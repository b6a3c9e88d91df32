(* One job = one seeded simulation, checkpointed as it runs so that a
   daemon death at any instant loses at most [checkpoint_every] rounds
   of work — and none of the result's bytes. *)

open Rbb_core
module Jsonl = Rbb_sim.Jsonl
module Checkpoint = Rbb_sim.Checkpoint
module Telemetry = Rbb_sim.Telemetry

let spec_path ~state_dir ~id = Filename.concat state_dir (id ^ ".job")

let checkpoint_path ~state_dir ~id = Filename.concat state_dir (id ^ ".ckpt")

let result_path ~state_dir ~id = Filename.concat state_dir (id ^ ".result")

let failed_path ~state_dir ~id = Filename.concat state_dir (id ^ ".failed")

let quarantine_dir ~state_dir = Filename.concat state_dir "quarantine"

(* Corrupt artifacts are moved aside, not deleted: the quarantined file
   is the evidence (operators diff it against a clean snapshot; the
   chaos harness asserts it exists).  The move is a same-filesystem
   rename; a numbered suffix keeps repeat offenders from clobbering
   each other. *)
let quarantine_file ~state_dir ~path =
  let dir = quarantine_dir ~state_dir in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
  let base = Filename.basename path in
  let rec attempt k =
    if k > 999 then None
    else
      let dest =
        Filename.concat dir
          (if k = 0 then base else Printf.sprintf "%s.%d" base k)
      in
      if Sys.file_exists dest then attempt (k + 1)
      else
        match Sys.rename path dest with
        | () -> Some dest
        | exception Sys_error _ -> None
  in
  attempt 0

exception Canceled of { id : string; round : int; reason : string }

let () =
  Printexc.register_printer (function
    | Canceled { id; round; reason } ->
        Some (Printf.sprintf "Job.Canceled(%s, round=%d, %s)" id round reason)
    | _ -> None)

let spec_schema = "rbb.job-spec/1"
let result_schema = "rbb.job-result/1"
let failed_schema = "rbb.job-failed/1"

let write_spec ~state_dir ~id spec =
  let line =
    Jsonl.obj
      (("schema", Jsonl.String spec_schema)
      :: ("id", Jsonl.String id)
      :: Protocol.spec_fields spec)
  in
  Rbb_sim.Fileio.write_atomic ~path:(spec_path ~state_dir ~id) (fun oc ->
      output_string oc line;
      output_char oc '\n')

let write_failed ~state_dir ~id ~round ~detail =
  let line =
    Jsonl.obj
      [
        ("schema", Jsonl.String failed_schema);
        ("id", Jsonl.String id);
        ("round", Jsonl.Int round);
        ("error", Jsonl.String detail);
      ]
  in
  Rbb_sim.Fileio.write_atomic ~path:(failed_path ~state_dir ~id) (fun oc ->
      output_string oc line;
      output_char oc '\n')

let read_failed ~state_dir ~id =
  match open_in (failed_path ~state_dir ~id) with
  | exception Sys_error _ -> None
  | ic -> (
      let line =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> try Some (input_line ic) with End_of_file -> None)
      in
      (* The marker's presence is the fact; its fields are best-effort
         detail, so an unreadable body still reads as a failure. *)
      match Option.bind line Jsonl.parse with
      | None -> Some (0, "failed (unreadable failure marker)")
      | Some fields ->
          Some
            ( Option.value ~default:0 (Jsonl.find_int fields "round"),
              Option.value ~default:"" (Jsonl.find_string fields "error") ))

let load_spec ~path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic -> (
      let line =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> try Some (input_line ic) with End_of_file -> None)
      in
      match Option.map Jsonl.parse line with
      | None -> Error (Printf.sprintf "%s: empty spec file" path)
      | Some None -> Error (Printf.sprintf "%s: unparseable spec" path)
      | Some (Some fields) -> (
          match
            (Jsonl.find_string fields "schema", Jsonl.find_string fields "id")
          with
          | Some schema, Some id when schema = spec_schema -> (
              match Protocol.spec_of_fields fields with
              | Ok spec -> Ok (id, spec)
              | Error e -> Error (Printf.sprintf "%s: %s" path e))
          | _ ->
              Error (Printf.sprintf "%s: not an %s document" path spec_schema)))

(* Ids are "job-%06d"; the sequence number drives fresh allocation. *)

let fresh_id k = Printf.sprintf "job-%06d" k

let id_seq id =
  match String.length id > 4 && String.sub id 0 4 = "job-" with
  | true -> int_of_string_opt (String.sub id 4 (String.length id - 4))
  | false -> None

let scan ?(on_quarantine = fun ~id:_ ~reason:_ -> ()) ~state_dir () =
  let entries = try Sys.readdir state_dir with Sys_error _ -> [||] in
  let pending = ref [] in
  let next = ref 1 in
  (* The sequence advances past every id with *any* artifact — spec,
     result or failure marker.  A quarantined spec leaves only its
     .failed marker behind, and reissuing that id to a fresh submit
     would collide the new job with the old failure record. *)
  let advance id =
    match id_seq id with
    | Some k when k >= !next -> next := k + 1
    | _ -> ()
  in
  Array.iter
    (fun name ->
      List.iter
        (fun suffix ->
          if Filename.check_suffix name suffix then
            advance (Filename.chop_suffix name suffix))
        [ ".result"; ".failed" ];
      if Filename.check_suffix name ".job" then begin
        let id = Filename.chop_suffix name ".job" in
        advance id;
        if
          (not (Sys.file_exists (result_path ~state_dir ~id)))
          && not (Sys.file_exists (failed_path ~state_dir ~id))
        then
          let quarantine reason =
            (* An acknowledged job whose durable spec went bad must stay
               accounted: a durable .failed marker records the loss, so
               the job reads as permanently failed — never as silently
               absent — and only then does the spec move to quarantine/
               as evidence.  If the marker write fails (injected I/O
               fault), the spec stays put and the next restart's scan
               retries. *)
            (match write_failed ~state_dir ~id ~round:0 ~detail:reason with
            | () ->
                ignore
                  (quarantine_file ~state_dir
                     ~path:(Filename.concat state_dir name))
            | exception _ -> ());
            on_quarantine ~id ~reason
          in
          match load_spec ~path:(Filename.concat state_dir name) with
          | Ok (id', spec) when id' = id -> pending := (id, spec) :: !pending
          | Ok (id', _) ->
              quarantine
                (Printf.sprintf "spec corrupted: file %s names id %s" name id')
          | Error e -> quarantine (Printf.sprintf "spec corrupted: %s" e)
      end)
    entries;
  ( List.sort (fun (a, _) (b, _) -> String.compare a b) !pending,
    !next )

(* Result rendering: every field below is a pure function of the final
   engine state + the spec, so interrupted-and-resumed runs publish the
   same bytes.  Loads travel as an FNV-1a fingerprint — enough for a
   byte-exact identity check without shipping n integers. *)

let fnv64 loads =
  let h = ref 0xcbf29ce484222325L in
  Array.iter
    (fun load ->
      h := Int64.logxor !h (Int64.of_int load);
      h := Int64.mul !h 0x100000001b3L)
    loads;
  Printf.sprintf "%016Lx" !h

let result_fields ~id ~(spec : Protocol.job_spec) ~round ~config ~telemetry =
  [
    ("schema", Jsonl.String result_schema);
    ("id", Jsonl.String id);
    ("engine", Jsonl.String (Engine.kind_name spec.engine));
    ("n", Jsonl.Int spec.n);
    ("rounds", Jsonl.Int round);
    ("seed", Jsonl.Int spec.seed);
    ("init", Jsonl.String spec.init);
    ("max_load", Jsonl.Int (Config.max_load config));
    ("empty_bins", Jsonl.Int (Config.empty_bins config));
    ("balls", Jsonl.Int (Config.balls config));
    ("loads_fnv64", Jsonl.String (fnv64 (Config.loads config)));
    (* The embedded snapshot is the counters-only telemetry document:
       counters are deterministic per seed and restored across resume,
       so this field — like everything above — is byte-stable between a
       resumed job and one that never crashed.  Timers/latency are
       wall-clock and deliberately excluded. *)
    ("telemetry", Jsonl.String (Telemetry.counters_json telemetry));
  ]
  @ List.map
      (fun (k, v) -> ("c." ^ k, Jsonl.Int v))
      (Telemetry.counters telemetry)

let result_body fields = Jsonl.obj fields

let run ?(on_progress = fun ~round:_ -> ())
    ?(on_quarantine = fun ~path:_ ~reason:_ -> ())
    ?(on_save_error = fun ~round:_ ~error:_ -> ())
    ?(should_stop = fun () -> None) ~state_dir ~checkpoint_every ~id
    (spec : Protocol.job_spec) =
  if checkpoint_every < 1 then
    invalid_arg "Job.run: checkpoint_every must be at least 1";
  (match Protocol.validate_spec spec with
  | Ok () -> ()
  | Error e -> invalid_arg ("Job.run: " ^ e));
  let ckpt = checkpoint_path ~state_dir ~id in
  let tel = Telemetry.create () in
  (* The quarantine-and-fall-back chain: a checkpoint that fails to
     load (CRC mismatch, truncation, schema damage) or belongs to the
     wrong engine family is moved to quarantine/ and the job restarts
     from its durable spec.  Every result field is a deterministic
     function of (final state, spec), so the fresh run publishes bytes
     identical to what the poisoned resume would have produced — the
     corruption costs recomputation, never correctness. *)
  let quarantined reason =
    let dest = quarantine_file ~state_dir ~path:ckpt in
    (* If the move itself failed, still never resume from poison. *)
    if Sys.file_exists ckpt then (try Sys.remove ckpt with Sys_error _ -> ());
    on_quarantine
      ~path:(Option.value dest ~default:(quarantine_dir ~state_dir))
      ~reason;
    None
  in
  let snap =
    if Sys.file_exists ckpt then
      match Checkpoint.load ~path:ckpt () with
      | Ok snap when snap.Checkpoint.kind = spec.engine -> Some snap
      | Ok _ -> quarantined "checkpoint engine kind does not match the spec"
      | Error e -> quarantined e
    else None
  in
  let engine =
    match snap with
    | Some s -> Rbb_sim.Engines.restore ~telemetry:tel s
    | None ->
        let rng = Rbb_prng.Rng.create ~seed:(Int64.of_int spec.seed) () in
        let init =
          match spec.init with
          | "uniform" -> Config.uniform ~n:spec.n (* validate_spec: m = n *)
          | "balanced" -> Config.balanced ~n:spec.n ~m:spec.m
          | "pile" -> Config.all_in_one ~n:spec.n ~m:spec.m ()
          | "random" -> Config.random rng ~n:spec.n ~m:spec.m
          | _ -> assert false (* validated above *)
        in
        Rbb_sim.Engines.create ~telemetry:tel ~kind:spec.engine ~rng ~init ()
  in
  for r = engine.round () + 1 to spec.rounds do
    (match should_stop () with
    | Some reason -> raise (Canceled { id; round = r - 1; reason })
    | None -> ());
    engine.step ();
    if r mod checkpoint_every = 0 && r < spec.rounds then begin
      (* A failed checkpoint save (disk full, injected I/O fault) is
         degradation, not death: the previous snapshot is still whole
         on disk — atomic publication — so the job keeps computing and
         merely risks more recomputation after a crash. *)
      match
        Checkpoint.save ~path:ckpt (Checkpoint.capture ~telemetry:tel engine)
      with
      | () -> on_progress ~round:r
      | exception e -> on_save_error ~round:r ~error:(Printexc.to_string e)
    end
  done;
  let fields =
    result_fields ~id ~spec ~round:spec.rounds ~config:(engine.config ())
      ~telemetry:tel
  in
  (* The result is the one artifact that must land: retry transient
     write failures (under probabilistic fault injection each retry
     draws fresh luck) before letting the exception fail the job. *)
  let rec publish attempt =
    match
      Rbb_sim.Fileio.write_atomic ~path:(result_path ~state_dir ~id) (fun oc ->
          output_string oc (result_body fields);
          output_char oc '\n')
    with
    | () -> ()
    | exception e ->
        if attempt >= 5 then raise e
        else begin
          Unix.sleepf 0.002;
          publish (attempt + 1)
        end
  in
  publish 0;
  (* The checkpoint has served its purpose; the result now marks the
     job done (and a stale checkpoint must not shadow a future job that
     reuses the id in a wiped directory). *)
  (try Sys.remove ckpt with Sys_error _ -> ());
  fields

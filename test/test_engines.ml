(* Engine-surface parity: the four engines (Process, Sharded,
   Counts_process, Sharded_counts) expose the same observability and
   persistence surface.

   - Telemetry counter keysets are pinned per engine, so a renamed or
     dropped counter breaks a test instead of silently breaking
     dashboards.
   - Tracer streams (observables, threshold events, convergence) are
     compared record-for-record within each law-sharing pair:
     Process/Sharded and Counts_process/Sharded_counts are bit-identical
     trajectories, so their event streams must agree exactly.
   - Conformance: one list of checks runs over the four Engine.t values
     the chooser (Rbb_sim.Engines) builds — ball conservation, exact
     resume through a checkpoint file whose save -> load -> save bytes
     are identical and whose "engine_kind" header matches the family
     (balls files carry none, so their bytes predate the counts
     extension), conservation across the adversary's set_config, and
     Engine.run_until_legitimate agreeing with the sequential engine of
     the family.
     Typed cross-kind restores raise instead of silently switching
     randomness laws. *)

open Rbb_core
module Rng = Rbb_prng.Rng
module Jsonl = Rbb_sim.Jsonl
module Telemetry = Rbb_sim.Telemetry
module Tracer = Rbb_sim.Tracer
module Checkpoint = Rbb_sim.Checkpoint
module Sharded = Rbb_sim.Sharded
module Sharded_counts = Rbb_sim.Sharded_counts

let fake_clock () =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t 1000L;
    !t

let rng seed = Rng.create ~seed ()

let temp_path suffix =
  let path = Filename.temp_file "rbb_engines" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Telemetry counter keysets                                           *)
(* ------------------------------------------------------------------ *)

let counter_keys tel = List.map fst (Telemetry.counters tel)

let n = 2048
let rounds = 5

let test_counter_keys_process () =
  let tel = Telemetry.create ~clock:(fake_clock ()) () in
  let p = Process.create ~rng:(rng 1L) ~init:(Config.uniform ~n) () in
  Process.run p ~probe:(Telemetry.probe tel) ~rounds;
  Alcotest.(check (list string))
    "process counters"
    [ "process.launch.blocks"; "process.rounds" ]
    (counter_keys tel);
  Alcotest.(check int) "rounds counted" rounds
    (Telemetry.counter tel "process.rounds")

let test_counter_keys_counts () =
  let tel = Telemetry.create ~clock:(fake_clock ()) () in
  let c = Counts_process.create ~rng:(rng 1L) ~init:(Config.uniform ~n) () in
  Counts_process.run c ~probe:(Telemetry.probe tel) ~rounds;
  Alcotest.(check (list string))
    "counts counters"
    [ "counts.release.blocks"; "counts.rounds" ]
    (counter_keys tel);
  Alcotest.(check int) "rounds counted" rounds
    (Telemetry.counter tel "counts.rounds")

let test_counter_keys_sharded () =
  let tel = Telemetry.create ~clock:(fake_clock ()) () in
  let s =
    Sharded.create ~telemetry:tel ~domains:2 ~rng:(rng 1L)
      ~init:(Config.uniform ~n) ()
  in
  Sharded.run s ~rounds;
  Alcotest.(check (list string))
    "sharded counters (fault-free run)"
    [ "sharded.launch.blocks"; "sharded.rounds" ]
    (counter_keys tel);
  Alcotest.(check int) "rounds counted" rounds
    (Telemetry.counter tel "sharded.rounds")

let test_counter_keys_sharded_counts () =
  let tel = Telemetry.create ~clock:(fake_clock ()) () in
  let s =
    Sharded_counts.create ~telemetry:tel ~domains:2 ~rng:(rng 1L)
      ~init:(Config.uniform ~n) ()
  in
  Sharded_counts.run s ~rounds;
  Alcotest.(check (list string))
    "sharded counts counters"
    [ "counts_sharded.release.blocks"; "counts_sharded.rounds" ]
    (counter_keys tel);
  Alcotest.(check int) "rounds counted" rounds
    (Telemetry.counter tel "counts_sharded.rounds");
  Alcotest.(check int) "latency sample per round" rounds
    (Telemetry.latency_count tel)

(* ------------------------------------------------------------------ *)
(* Tracer stream parity within law-sharing pairs                       *)
(* ------------------------------------------------------------------ *)

let lines_of buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let records_of_type buf ty =
  List.filter_map
    (fun l ->
      match Jsonl.parse l with
      | Some fields when Jsonl.find_string fields "type" = Some ty -> Some fields
      | _ -> None)
    (lines_of buf)

(* Project the trajectory-determined payload; timestamps and worker ids
   legitimately differ between sequential and sharded runs. *)
let stream buf =
  List.concat_map
    (fun ty ->
      List.map
        (fun f ->
          ( ty,
            Jsonl.find_int f "round",
            Jsonl.find_int f "max_load",
            Jsonl.find_int f "empty_bins" ))
        (records_of_type buf ty))
    [
      "observable"; "legitimacy_exit"; "legitimacy_enter"; "convergence";
      "quarter_violation";
    ]

(* Pile init with n balls in one bin: the run starts illegitimate and,
   since unit capacity drains the pile one ball per round, re-enters
   legitimacy just before round n, so exits/enters/convergence all
   appear within the traced window. *)
let traced_rounds = 100
let traced_n = 64

let trace_events engine =
  let buf = Buffer.create 4096 in
  let tracer =
    Tracer.create ~clock:(fake_clock ()) ~ndjson:(`Buffer buf) ~n:traced_n ()
  in
  let init = Config.all_in_one ~n:traced_n ~m:traced_n () in
  (match engine with
  | `Process ->
      let p = Process.create ~rng:(rng 11L) ~init () in
      Process.run p ~probe:(Tracer.probe tracer) ~rounds:traced_rounds
  | `Sharded ->
      let s = Sharded.create ~tracer ~domains:2 ~rng:(rng 11L) ~init () in
      Sharded.run s ~rounds:traced_rounds
  | `Counts ->
      let c = Counts_process.create ~rng:(rng 11L) ~init () in
      Counts_process.run c ~probe:(Tracer.probe tracer) ~rounds:traced_rounds
  | `Sharded_counts ->
      let s = Sharded_counts.create ~tracer ~domains:2 ~rng:(rng 11L) ~init () in
      Sharded_counts.run s ~rounds:traced_rounds);
  Tracer.close tracer;
  stream buf

let check_stream_nonempty name events =
  Alcotest.(check bool)
    (name ^ " stream has observables and threshold events")
    true
    (List.exists (fun (ty, _, _, _) -> ty = "observable") events
    && List.exists (fun (ty, _, _, _) -> ty = "legitimacy_enter") events)

let test_tracer_parity_balls () =
  let seq = trace_events `Process and par = trace_events `Sharded in
  check_stream_nonempty "balls" seq;
  Alcotest.(check bool) "Process and Sharded streams identical" true (seq = par)

let test_tracer_parity_counts () =
  let seq = trace_events `Counts and par = trace_events `Sharded_counts in
  check_stream_nonempty "counts" seq;
  Alcotest.(check bool)
    "Counts_process and Sharded_counts streams identical" true (seq = par)

(* ------------------------------------------------------------------ *)
(* Checkpoint round trips                                              *)
(* ------------------------------------------------------------------ *)

(* A counts checkpoint restored into Sharded_counts continues exactly
   like the sequential counts engine restored from the same file. *)
let test_checkpoint_roundtrip_sharded_counts () =
  let s =
    Sharded_counts.create ~domains:2 ~rng:(rng 3L)
      ~init:(Config.uniform ~n:1000) ()
  in
  Sharded_counts.run s ~rounds:7;
  let snap = Checkpoint.capture_sharded_counts s in
  let seq = Checkpoint.to_counts snap in
  let par = Checkpoint.to_sharded_counts ~domains:3 snap in
  Counts_process.run seq ~rounds:9;
  Sharded_counts.run par ~rounds:9;
  Alcotest.(check bool)
    "resumed sequential and parallel counts agree" true
    (Config.equal (Counts_process.config seq) (Sharded_counts.config par))

let test_checkpoint_cross_kind_errors () =
  let p = Process.create ~rng:(rng 4L) ~init:(Config.uniform ~n:256) () in
  Process.run p ~rounds:2;
  let balls_snap = Checkpoint.capture_process p in
  let c = Counts_process.create ~rng:(rng 4L) ~init:(Config.uniform ~n:256) () in
  Counts_process.run c ~rounds:2;
  let counts_snap = Checkpoint.capture_counts c in
  Tutil.check_raises_invalid "to_counts on balls snapshot" (fun () ->
      ignore (Checkpoint.to_counts balls_snap));
  Tutil.check_raises_invalid "to_sharded_counts on balls snapshot" (fun () ->
      ignore (Checkpoint.to_sharded_counts balls_snap));
  Tutil.check_raises_invalid "to_process on counts snapshot" (fun () ->
      ignore (Checkpoint.to_process counts_snap))

let test_checkpoint_counts_resume_trajectory () =
  (* File-level resume is invisible: run 6 + (save/load) + 6 rounds
     equals an uninterrupted 12-round counts run. *)
  let path = temp_path ".ckpt" in
  let full = Counts_process.create ~rng:(rng 9L) ~init:(Config.uniform ~n:800) () in
  Counts_process.run full ~rounds:12;
  let part = Counts_process.create ~rng:(rng 9L) ~init:(Config.uniform ~n:800) () in
  Counts_process.run part ~rounds:6;
  Checkpoint.save ~path (Checkpoint.capture_counts part);
  match Checkpoint.load ~path () with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok snap ->
      let resumed = Checkpoint.to_counts snap in
      Counts_process.run resumed ~rounds:6;
      Alcotest.(check bool)
        "resumed trajectory equals uninterrupted" true
        (Config.equal (Counts_process.config full)
           (Counts_process.config resumed));
      Alcotest.(check int) "round counter restored" 12
        (Counts_process.round resumed)

(* ------------------------------------------------------------------ *)
(* Conformance: every Engine.t the chooser builds                      *)
(* ------------------------------------------------------------------ *)

(* Two randomness blocks (4096 bins each) and m <> n, from a random
   start so every block launches balls from the first round on. *)
let conf_n = 5000
let conf_m = 2 * conf_n
let conf_k = 6

let engines =
  [
    ("balls", Engine.Balls, 1);
    ("counts", Engine.Counts, 1);
    ("balls_2_domains", Engine.Balls, 2);
    ("counts_2_domains", Engine.Counts, 2);
  ]

let fresh kind domains =
  let rng = rng 21L in
  let init = Config.random rng ~n:conf_n ~m:conf_m in
  Rbb_sim.Engines.create ~domains ~kind ~rng ~init ()

let steps (e : Engine.t) k =
  for _ = 1 to k do
    e.step ()
  done

(* The record's incremental observables agree with its configuration,
   which still holds every ball. *)
let check_state name (e : Engine.t) ~round =
  let q = e.config () in
  Alcotest.(check int) (name ^ ": balls conserved") conf_m (Config.balls q);
  Alcotest.(check int) (name ^ ": balls field") conf_m e.balls;
  Alcotest.(check int) (name ^ ": round") round (e.round ());
  Alcotest.(check int) (name ^ ": max_load") (Config.max_load q)
    (e.max_load ());
  Alcotest.(check int) (name ^ ": empty_bins") (Config.empty_bins q)
    (e.empty_bins ())

let conserves kind domains () =
  let e = fresh kind domains in
  Alcotest.(check bool) "kind" true (e.kind = kind);
  steps e conf_k;
  check_state "after k rounds" e ~round:conf_k

let resume_exact kind domains () =
  let e = fresh kind domains in
  steps e conf_k;
  let path = temp_path ".ckpt" and again = temp_path ".ckpt" in
  Checkpoint.save ~path (Checkpoint.capture e);
  let bytes = read_file path in
  let header =
    Option.get (Jsonl.parse (List.hd (String.split_on_char '\n' bytes)))
  in
  Alcotest.(check string) "header engine_kind matches kind"
    (Engine.kind_name kind)
    (Option.value ~default:"balls" (Jsonl.find_string header "engine_kind"));
  Alcotest.(check bool) "balls headers carry no engine_kind" (kind = Balls)
    (not (contains ~needle:"engine_kind" bytes));
  let r =
    match Checkpoint.load ~path () with
    | Ok snap -> Rbb_sim.Engines.restore ~domains snap
    | Error e -> Alcotest.failf "load failed: %s" e
  in
  Checkpoint.save ~path:again (Checkpoint.capture r);
  Alcotest.(check string) "save -> load -> save bytes identical" bytes
    (read_file again);
  steps e conf_k;
  steps r conf_k;
  Alcotest.(check bool) "resumed kind" true (r.kind = kind);
  check_state "resumed" r ~round:(2 * conf_k);
  Alcotest.(check bool) "resumed equals uninterrupted" true
    (Config.equal (e.config ()) (r.config ()))

let set_config_conserves kind domains () =
  let e = fresh kind domains in
  steps e 2;
  let pile = Config.all_in_one ~n:conf_n ~m:conf_m () in
  e.set_config pile;
  Alcotest.(check int) "set_config lands" conf_m (e.max_load ());
  e.step ();
  check_state "after set_config and a step" e ~round:3;
  Tutil.check_raises_invalid "ball count differs" (fun () ->
      e.set_config (Config.uniform ~n:conf_n))

(* Observation conformance: each engine built twice by the chooser, once
   with live telemetry and tracer sinks and once with the noop ones,
   driven from the n = 64 pile with a re-pile at round 100 so the window
   holds an enter, an exit and a second enter.  A registry probe is fed
   from the driving loop, as [rbb simulate] feeds it. *)
let observed_rounds = 200

let family (kind : Engine.kind) domains =
  match (kind, domains > 1) with
  | Balls, false -> "process"
  | Balls, true -> "sharded"
  | Counts, false -> "counts"
  | Counts, true -> "counts_sharded"

let observation kind domains () =
  let pile = Config.all_in_one ~n:traced_n ~m:traced_n () in
  let drive ?telemetry ?tracer ?(on_round = fun ~round:_ _ -> ()) () =
    let e =
      Rbb_sim.Engines.create ?telemetry ?tracer ~domains ~kind ~rng:(rng 11L)
        ~init:pile ()
    in
    let seen =
      List.init observed_rounds (fun _ ->
          if e.round () = observed_rounds / 2 then e.set_config pile;
          e.step ();
          let seen = (e.max_load (), e.empty_bins ()) in
          on_round ~round:(e.round ()) seen;
          (e.round (), seen))
    in
    (seen, e.config ())
  in
  let tel = Telemetry.create ~clock:(fake_clock ()) () in
  let buf = Buffer.create 4096 in
  let tracer =
    Tracer.create ~clock:(fake_clock ()) ~ndjson:(`Buffer buf) ~n:traced_n ()
  in
  let registry = Rbb_obs.Registry.create () in
  let rprobe =
    Rbb_obs.Registry.probe
      ~threshold:(Config.legitimacy_threshold ~m:traced_n traced_n)
      registry
  in
  let live, live_config =
    drive ~telemetry:tel ~tracer
      ~on_round:(fun ~round (max_load, empty_bins) ->
        rprobe.on_round ~round ~max_load ~empty_bins ~balls:traced_n)
      ()
  in
  Tracer.close tracer;
  let quiet, quiet_config = drive () in
  Alcotest.(check bool) "probes never steer: observables" true (live = quiet);
  Alcotest.(check bool) "probes never steer: configuration" true
    (Config.equal live_config quiet_config);
  let observables =
    List.map
      (fun f ->
        ( Option.get (Jsonl.find_int f "round"),
          ( Option.get (Jsonl.find_int f "max_load"),
            Option.get (Jsonl.find_int f "empty_bins") ) ))
      (records_of_type buf "observable")
  in
  Alcotest.(check (list (pair int (pair int int))))
    "one observable per round, equal to the engine's after the step" live
    observables;
  let report = Rbb_sim.Trace_report.of_lines (lines_of buf) in
  let counter name =
    int_of_float (Rbb_obs.Registry.counter_value registry name)
  in
  Alcotest.(check int) "dwell rounds" report.legit_observed
    (counter "rbb_legitimacy_dwell_rounds_total");
  Alcotest.(check int) "excursion rounds"
    (report.observables - report.legit_observed)
    (counter "rbb_legitimacy_excursion_rounds_total");
  Alcotest.(check (pair int int)) "enters and exits" (2, 1)
    (report.enters, report.exits);
  Alcotest.(check int) "registry enters" report.enters
    (counter "rbb_legitimacy_enters_total");
  Alcotest.(check int) "registry exits" report.exits
    (counter "rbb_legitimacy_exits_total");
  Alcotest.(check int) "rounds counter" observed_rounds
    (Telemetry.counter tel (family kind domains ^ ".rounds"))

(* Run-until over the record: from the n = 64 pile the engine reaches
   legitimacy, reports its completed-round count, and agrees with the
   sequential engine of its family started from the same seed. *)
let runs_until_legitimate kind domains () =
  let pile = Config.all_in_one ~n:traced_n ~m:traced_n () in
  let max_rounds = 100 * traced_n in
  let e =
    Rbb_sim.Engines.create ~domains ~kind ~rng:(rng 11L) ~init:pile ()
  in
  let r = Engine.run_until_legitimate e ~max_rounds in
  (match r with
  | Some r ->
      Alcotest.(check int) "completed-round count" (e.round ()) r;
      Alcotest.(check bool) "max load within the threshold" true
        (e.max_load () <= Config.legitimacy_threshold ~m:traced_n traced_n)
  | None -> Alcotest.fail "not legitimate within 100n rounds");
  let sequential =
    match kind with
    | Balls ->
        Process.run_until_legitimate ~max_rounds
          (Process.create ~rng:(rng 11L) ~init:pile ())
    | Counts ->
        Counts_process.run_until_legitimate ~max_rounds
          (Counts_process.create ~rng:(rng 11L) ~init:pile ())
  in
  Alcotest.(check (option int)) "sequential engine of the family" sequential r

let create_rejects_counts_misuse () =
  let create ?d_choices ?failpoints () =
    Rbb_sim.Engines.create ?d_choices ?failpoints ~kind:Counts ~rng:(rng 1L)
      ~init:(Config.uniform ~n:64) ()
  in
  Tutil.check_raises_invalid "counts with d_choices > 1" (fun () ->
      create ~d_choices:2 ());
  let armed =
    Rbb_sim.Failpoint.of_specs
      [
        {
          Rbb_sim.Failpoint.name = "sharded.settle";
          trigger = At { round = Some 1; shard = None; fails = 1 };
        };
      ]
  in
  Tutil.check_raises_invalid "counts with armed failpoints" (fun () ->
      create ~failpoints:armed ())

let suite =
  [
    ( "engines.telemetry_keys",
      [
        Tutil.quick "process" test_counter_keys_process;
        Tutil.quick "counts" test_counter_keys_counts;
        Tutil.quick "sharded" test_counter_keys_sharded;
        Tutil.quick "sharded counts" test_counter_keys_sharded_counts;
      ] );
    ( "engines.tracer_parity",
      [
        Tutil.quick "process vs sharded" test_tracer_parity_balls;
        Tutil.quick "counts vs sharded counts" test_tracer_parity_counts;
      ] );
    ( "engines.checkpoint",
      [
        Tutil.quick "sharded counts round trip"
          test_checkpoint_roundtrip_sharded_counts;
        Tutil.quick "cross-kind restores error" test_checkpoint_cross_kind_errors;
        Tutil.quick "counts file resume exact"
          test_checkpoint_counts_resume_trajectory;
      ] );
    ( "engines.conformance",
      [
        Tutil.quick "create rejects counts misuse"
          create_rejects_counts_misuse;
      ] );
  ]
  @ List.map
      (fun (name, kind, domains) ->
        ( "engines.conformance." ^ name,
          [
            Tutil.quick "conserves balls" (conserves kind domains);
            Tutil.quick "resume exact" (resume_exact kind domains);
            Tutil.quick "set_config conserves"
              (set_config_conserves kind domains);
            Tutil.quick "observation" (observation kind domains);
            Tutil.quick "run until legitimate" (runs_until_legitimate kind domains);
          ] ))
      engines

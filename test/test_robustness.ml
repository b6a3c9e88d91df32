(* Robustness tests: crash-safe checkpoint/resume (bit-identity of an
   interrupted-and-resumed run on both engines), deterministic fault
   injection and the retry supervisor, atomic file IO, torn-trace
   tolerance, and the recovery-time harness.  All seeds are fixed, so
   every check is exact and CI-stable. *)

open Rbb_core
module Checkpoint = Rbb_sim.Checkpoint
module Failpoint = Rbb_sim.Failpoint
module Supervisor = Rbb_sim.Supervisor
module Sharded = Rbb_sim.Sharded
module Telemetry = Rbb_sim.Telemetry

let mk_rng seed = Rbb_prng.Rng.create ~seed ()

let temp_path suffix =
  let path = Filename.temp_file "rbb_rob" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* Instant supervisor: full retry budget, no real sleeping. *)
let instant_supervisor ?retries ?on_event () =
  Supervisor.create ?retries ?on_event ~sleep:(fun _ -> ()) ()

(* ------------------------------------------------------------------ *)
(* Failpoint specs                                                     *)
(* ------------------------------------------------------------------ *)

let failpoint_parse () =
  (match Failpoint.parse "sharded.launch" with
  | Ok { name = "sharded.launch"; trigger = At { round = None; shard = None; fails = 1 } } ->
      ()
  | Ok _ -> Alcotest.fail "bare name: wrong spec"
  | Error e -> Alcotest.failf "bare name: %s" e);
  (match Failpoint.parse "sharded.merge@round=7,shard=2,fails=3" with
  | Ok { name = "sharded.merge"; trigger = At { round = Some 7; shard = Some 2; fails = 3 } } ->
      ()
  | _ -> Alcotest.fail "deterministic spec");
  (match Failpoint.parse "parallel.task@p=0.25,seed=9" with
  | Ok { name = "parallel.task"; trigger = Prob { p = 0.25; seed = 9L } } -> ()
  | _ -> Alcotest.fail "probabilistic spec");
  List.iter
    (fun bad ->
      match Failpoint.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" bad)
    [
      "";
      "@round=1";
      "x@round=";
      "x@round=zero";
      "x@p=0.5,round=3";
      "x@seed=4";
      "x@p=2.0";
      "x@unknown=1";
    ];
  (* Specs render back to their parse syntax. *)
  List.iter
    (fun s ->
      match Failpoint.parse s with
      | Ok spec -> Alcotest.(check string) ("round-trip " ^ s) s (Failpoint.to_string spec)
      | Error e -> Alcotest.failf "%s: %s" s e)
    [ "sharded.launch"; "sharded.merge@round=7,shard=2,fails=3" ]

let failpoint_fires () =
  let spec s = match Failpoint.parse s with Ok v -> v | Error e -> failwith e in
  let fp = Failpoint.of_specs [ spec "sharded.launch@round=5,shard=1,fails=2" ] in
  let fires ~name ~round ~shard ~attempt =
    Failpoint.fires fp ~name ~round ~shard ~attempt
  in
  Alcotest.(check bool) "fires at (5,1,0)" true
    (fires ~name:"sharded.launch" ~round:5 ~shard:1 ~attempt:0);
  Alcotest.(check bool) "fires at attempt 1 (fails=2)" true
    (fires ~name:"sharded.launch" ~round:5 ~shard:1 ~attempt:1);
  Alcotest.(check bool) "passes at attempt 2" false
    (fires ~name:"sharded.launch" ~round:5 ~shard:1 ~attempt:2);
  Alcotest.(check bool) "other round" false
    (fires ~name:"sharded.launch" ~round:4 ~shard:1 ~attempt:0);
  Alcotest.(check bool) "other shard" false
    (fires ~name:"sharded.launch" ~round:5 ~shard:0 ~attempt:0);
  Alcotest.(check bool) "other name" false
    (fires ~name:"sharded.merge" ~round:5 ~shard:1 ~attempt:0);
  Alcotest.(check bool) "noop never fires" false
    (Failpoint.fires Failpoint.noop ~name:"sharded.launch" ~round:5 ~shard:1
       ~attempt:0);
  (* Probabilistic firing is a deterministic function of the
     coordinates, and its frequency tracks p. *)
  let pr = Failpoint.of_specs [ spec "x@p=0.3,seed=11" ] in
  let hit ~round ~attempt = Failpoint.fires pr ~name:"x" ~round ~shard:0 ~attempt in
  let count = ref 0 in
  for round = 1 to 2000 do
    if hit ~round ~attempt:0 then incr count;
    Alcotest.(check bool)
      (Printf.sprintf "replay round %d" round)
      (hit ~round ~attempt:0) (hit ~round ~attempt:0)
  done;
  let freq = float_of_int !count /. 2000. in
  if Float.abs (freq -. 0.3) > 0.05 then
    Alcotest.failf "p=0.3 fired with frequency %.3f" freq;
  (* Distinct attempts are independent coin flips: over many rounds the
     two attempt streams must differ somewhere. *)
  let differs = ref false in
  for round = 1 to 200 do
    if hit ~round ~attempt:0 <> hit ~round ~attempt:1 then differs := true
  done;
  Alcotest.(check bool) "attempts are independent flips" true !differs;
  let p0 = Failpoint.of_specs [ spec "x@p=0.0" ] in
  let p1 = Failpoint.of_specs [ spec "x@p=1.0" ] in
  for round = 1 to 50 do
    Alcotest.(check bool) "p=0 never" false
      (Failpoint.fires p0 ~name:"x" ~round ~shard:0 ~attempt:0);
    Alcotest.(check bool) "p=1 always" true
      (Failpoint.fires p1 ~name:"x" ~round ~shard:0 ~attempt:0)
  done

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let supervisor_retries_then_succeeds () =
  let events = ref [] in
  let sup =
    instant_supervisor ~retries:3 ~on_event:(fun e -> events := e :: !events) ()
  in
  let calls = ref 0 in
  let v =
    Supervisor.supervise sup ~name:"phase" ~round:9 ~shard:2 (fun ~attempt ->
        incr calls;
        if attempt < 2 then failwith "injected" else attempt * 10)
  in
  Alcotest.(check int) "returns the successful attempt's value" 20 v;
  Alcotest.(check int) "three executions" 3 !calls;
  let events = List.rev !events in
  Alcotest.(check int) "two failure events" 2 (List.length events);
  List.iteri
    (fun i (e : Supervisor.event) ->
      Alcotest.(check string) "event name" "phase" e.name;
      Alcotest.(check int) "event round" 9 e.round;
      Alcotest.(check int) "event shard" 2 e.shard;
      Alcotest.(check int) "event attempt" i e.attempt;
      Alcotest.(check bool) "not giving up" false e.giving_up;
      Alcotest.(check bool) "backoff positive" true (e.backoff_ns > 0L))
    events;
  (* Exponential backoff between the two failures. *)
  (match events with
  | [ a; b ] ->
      Alcotest.(check int64) "backoff doubles" (Int64.mul 2L a.backoff_ns)
        b.backoff_ns
  | _ -> Alcotest.fail "expected two events");
  (* noop supervision runs once and lets exceptions fly. *)
  let calls = ref 0 in
  (match
     Supervisor.supervise Supervisor.noop ~name:"phase" ~round:1 ~shard:0
       (fun ~attempt:_ ->
         incr calls;
         failwith "boom")
   with
  | exception Failure msg when msg = "boom" -> ()
  | _ -> Alcotest.fail "noop must not retry");
  Alcotest.(check int) "noop runs once" 1 !calls

let supervisor_budget_exhausted () =
  let giving_up = ref 0 in
  let sup =
    instant_supervisor ~retries:2
      ~on_event:(fun e -> if e.Supervisor.giving_up then incr giving_up)
      ()
  in
  match
    Supervisor.supervise sup ~name:"phase" ~round:4 ~shard:1 (fun ~attempt:_ ->
        failwith "always")
  with
  | exception Supervisor.Budget_exhausted { name; round; shard; attempts; last }
    ->
      Alcotest.(check string) "name" "phase" name;
      Alcotest.(check int) "round" 4 round;
      Alcotest.(check int) "shard" 1 shard;
      Alcotest.(check int) "attempts = 1 + retries" 3 attempts;
      Alcotest.(check bool) "last is the Failure" true (last = Failure "always");
      Alcotest.(check int) "one giving-up event" 1 !giving_up
  | _ -> Alcotest.fail "expected Budget_exhausted"

(* ------------------------------------------------------------------ *)
(* Checkpoint: round-trip and resume bit-identity                      *)
(* ------------------------------------------------------------------ *)

let checkpoint_roundtrip () =
  let p = Process.create ~d_choices:2 ~rng:(mk_rng 5L) ~init:(Config.uniform ~n:700) () in
  Process.run p ~rounds:37;
  let tel = Telemetry.create () in
  Telemetry.add tel "some.counter" 12;
  let snap = Checkpoint.capture_process ~telemetry:tel p in
  let path = temp_path ".ckpt" in
  Checkpoint.save ~path snap;
  match Checkpoint.load ~path () with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok snap' ->
      Alcotest.(check int) "round" 37 snap'.Checkpoint.round;
      Alcotest.(check int) "d_choices" 2 snap'.d_choices;
      Alcotest.(check int) "capacity" 1 snap'.capacity;
      Alcotest.(check bool) "config" true (Config.equal snap.config snap'.config);
      Alcotest.(check bool) "master" true (snap.master = snap'.master);
      Alcotest.(check bool) "rng state" true (snap.rng = snap'.rng);
      Alcotest.(check (list (pair string int))) "counters"
        [ ("some.counter", 12) ] snap'.counters;
      (* Saving the reloaded snapshot reproduces the file byte for
         byte: the format is canonical. *)
      let path2 = temp_path ".ckpt" in
      Checkpoint.save ~path:path2 snap';
      let read f = In_channel.with_open_bin f In_channel.input_all in
      Alcotest.(check string) "canonical bytes" (read path) (read path2)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every shape a run can stop in comes back equal, on both engine
   families: one bin, zero loads between non-zero ones, a single pile,
   m far above n, and the empty system. *)
let checkpoint_config_shapes () =
  List.iter
    (fun (name, init) ->
      List.iter
        (fun (kind, snap) ->
          let path = temp_path ".ckpt" in
          Checkpoint.save ~path snap;
          match Checkpoint.load ~path () with
          | Error e -> Alcotest.failf "%s, %s: %s" name kind e
          | Ok snap' ->
              Alcotest.(check (array int))
                (Printf.sprintf "%s, %s" name kind)
                (Config.loads init)
                (Config.loads snap'.Checkpoint.config))
        [
          ( "balls",
            Checkpoint.capture_process
              (Process.create ~rng:(mk_rng 21L) ~init ()) );
          ( "counts",
            Checkpoint.capture_counts
              (Counts_process.create ~rng:(mk_rng 21L) ~init ()) );
        ])
    [
      ("one bin", Config.of_array [| 5 |]);
      ("sparse", Config.of_array [| 1; 0; 3; 0; 2 |]);
      ("pile", Config.all_in_one ~bin:3 ~n:7 ~m:40 ());
      ("m >> n", Config.balanced ~n:3 ~m:1_000_001);
      ("empty system", Config.of_array [| 0; 0; 0 |]);
    ]

(* The codec's bytes, pinned: length and MD5 of the files of three fixed
   states — a per-ball run with a telemetry counter, a counts run whose
   loads span two full records and a 5-bin tail, and a counts run at
   m <> n with four-digit loads.  Loading each file and saving it again
   must reproduce it byte for byte. *)
let checkpoint_golden_bytes () =
  let per_ball =
    let p =
      Process.create ~d_choices:2 ~rng:(mk_rng 11L)
        ~init:(Config.uniform ~n:300) ()
    in
    Process.run p ~rounds:23;
    let tel = Telemetry.create () in
    Telemetry.add tel "golden.counter" 5;
    Checkpoint.capture_process ~telemetry:tel p
  in
  let counts ~init ~rounds =
    let c = Counts_process.create ~rng:(mk_rng 12L) ~init () in
    Counts_process.run c ~rounds;
    Checkpoint.capture_counts c
  in
  List.iter
    (fun (name, snap, golden) ->
      let path = temp_path ".ckpt" in
      Checkpoint.save ~path snap;
      let bytes = read_file path in
      Alcotest.(check (pair int string))
        (name ^ ": length and md5") golden
        (String.length bytes, Digest.to_hex (Digest.string bytes));
      match Checkpoint.load ~path () with
      | Error e -> Alcotest.failf "%s: load: %s" name e
      | Ok snap' ->
          let again = temp_path ".ckpt" in
          Checkpoint.save ~path:again snap';
          Alcotest.(check string) (name ^ ": load then save") bytes
            (read_file again))
    [
      ("per-ball, n = 300", per_ball, (1033, "5de14fb4d01ca2c119bbbdfd6f3398cb"));
      ( "counts, two records and a tail",
        counts ~init:(Config.uniform ~n:((2 * 4096) + 5)) ~rounds:40,
        (16901, "5ff216804b4bd3ed7be908db31ac4ad3") );
      ( "counts, m <> n",
        counts ~init:(Config.balanced ~n:1000 ~m:1_234_567) ~rounds:7,
        (5408, "0fd34b39946e9399d7abacccd93e8b64") );
    ]

(* The loader's answer to malformed and non-canonical loads records, at
   n = 3.  The files carry no integrity trailer (an end record without
   crc32), so each case is a hand-written record, and a file that loads
   does so with the unverified-content warning. *)
let checkpoint_loads_records () =
  let p = Process.create ~rng:(mk_rng 13L) ~init:(Config.uniform ~n:3) () in
  let path = temp_path ".ckpt" in
  Checkpoint.save ~path (Checkpoint.capture_process p);
  let header, rng =
    match String.split_on_char '\n' (read_file path) with
    | header :: rng :: _ -> (header, rng)
    | _ -> Alcotest.fail "a checkpoint has a header and an rng record"
  in
  let loads ?(count = 3) ?(off = 0) values =
    Printf.sprintf {|{"count":%d,"off":%d,"type":"loads","values":"%s"}|}
      count off values
  in
  let prefix = {|{"balls":3,|} in
  let k = String.length prefix in
  if String.sub header 0 k <> prefix then
    Alcotest.failf "unexpected header %s" header;
  (* [records] lays out the file around its header (whose ball count is
     patched to [balls]); a trailer-less end record closes it. *)
  let file ?(balls = 3) records =
    let lines =
      records
        (Printf.sprintf {|{"balls":%d,%s|} balls
           (String.sub header k (String.length header - k)))
    in
    lines @ [ Printf.sprintf {|{"records":%d,"type":"end"}|} (List.length lines) ]
  in
  let outcome lines =
    Out_channel.with_open_bin path (fun oc ->
        List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
    let warned = ref false in
    match Checkpoint.load ~on_warning:(fun _ -> warned := true) ~path () with
    | Error e -> Error e
    | Ok snap when !warned -> Ok (Config.loads snap.Checkpoint.config)
    | Ok _ -> Alcotest.fail "a trailer-less file must load with the warning"
  in
  let check name ?balls records expected =
    Alcotest.(check (result (array int) string))
      name expected
      (outcome (file ?balls records))
  in
  let body line header = [ header; rng; line ] in
  let fails name line err = check name (body line) (Error ("checkpoint: " ^ err)) in
  fails "two spaces" (loads "1  1") "non-integer load value";
  fails "too few values" (loads "1 1") "loads chunk count mismatch";
  fails "too many values" (loads "1 1 1 0") "loads chunk count mismatch";
  fails "trailing space" (loads "1 1 1 ") "loads chunk count mismatch";
  fails "negative value" (loads "-1 2 2") "non-integer load value";
  fails "junk after digits" (loads "1x 1 1") "non-integer load value";
  fails "20-digit value" (loads "1 1 12345678901234567890")
    "non-integer load value";
  fails "chunk past the end" (loads ~off:1 "1 1 1") "loads chunk out of range";
  fails "empty chunk" (loads ~count:0 "") "incomplete load vector";
  check "loads before header"
    (fun header -> [ loads "1 1 1"; header; rng ])
    (Error "checkpoint: loads before header");
  check "OCaml integer literals" ~balls:12
    (body (loads "+1 0x1 1_0"))
    (Ok [| 1; 1; 10 |]);
  check "leading zeros" (body (loads "001 01 1")) (Ok [| 1; 1; 1 |]);
  check "keys reordered"
    (body {|{"values":"2 0 1","type":"loads","off":0,"count":3}|})
    (Ok [| 2; 0; 1 |]);
  check "spaces inside the object"
    (body {|{ "count": 3, "off": 0, "type": "loads", "values": "0 3 0" }|})
    (Ok [| 0; 3; 0 |])

let checkpoint_rejects_weighted () =
  let n = 64 in
  let weights = Array.init n (fun i -> 1.0 +. float_of_int (i mod 3)) in
  let p = Process.create ~weights ~rng:(mk_rng 6L) ~init:(Config.uniform ~n) () in
  Tutil.check_raises_invalid "weighted process" (fun () ->
      Checkpoint.capture_process p);
  let s = Sharded.create ~weights ~shards:2 ~domains:1 ~rng:(mk_rng 6L) ~init:(Config.uniform ~n) () in
  Tutil.check_raises_invalid "weighted sharded" (fun () ->
      Checkpoint.capture (Sharded.engine s))

let checkpoint_load_errors () =
  (match Checkpoint.load ~path:"/nonexistent/rbb.ckpt" () with
  | Error e ->
      Alcotest.(check bool) "unreadable is prose" true
        (Tutil.contains_substring e "/nonexistent/rbb.ckpt")
  | Ok _ -> Alcotest.fail "expected error");
  let p = Process.create ~rng:(mk_rng 7L) ~init:(Config.uniform ~n:300) () in
  Process.run p ~rounds:5;
  let path = temp_path ".ckpt" in
  Checkpoint.save ~path (Checkpoint.capture_process p);
  let full = In_channel.with_open_bin path In_channel.input_all in
  (* Drop the end record: the record-count trailer must notice. *)
  let lines = String.split_on_char '\n' full in
  let truncated =
    String.concat "\n"
      (List.filteri (fun i _ -> i < List.length lines - 2) lines)
  in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc truncated);
  (match Checkpoint.load ~path () with
  | Error e ->
      Alcotest.(check bool) "truncation detected" true
        (Tutil.contains_substring e "truncated")
  | Ok _ -> Alcotest.fail "truncated checkpoint must not load");
  (* Garbage content fails with prose, not an exception. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "not a checkpoint\n");
  match Checkpoint.load ~path () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not load"

(* The golden bit-identity law: interrupting at round k (through a real
   save/load cycle) and resuming reproduces the uninterrupted run
   exactly — same configuration, same continued randomness. *)
let resume_process_golden () =
  let n = 1200 and k = 23 and total = 61 in
  let init () = Config.all_in_one ~n ~m:n () in
  let full = Process.create ~d_choices:2 ~rng:(mk_rng 42L) ~init:(init ()) () in
  Process.run full ~rounds:total;
  let part = Process.create ~d_choices:2 ~rng:(mk_rng 42L) ~init:(init ()) () in
  Process.run part ~rounds:k;
  let path = temp_path ".ckpt" in
  Checkpoint.save ~path (Checkpoint.capture_process part);
  let resumed =
    match Checkpoint.load ~path () with
    | Ok snap -> Checkpoint.to_process snap
    | Error e -> Alcotest.failf "load: %s" e
  in
  Process.run resumed ~rounds:(total - k);
  Alcotest.(check bool) "config bit-identical" true
    (Config.equal (Process.config full) (Process.config resumed));
  Alcotest.(check int) "round" total (Process.round resumed);
  Alcotest.(check int) "max_load" (Process.max_load full) (Process.max_load resumed);
  (* The creation stream resumes mid-sequence too: future adversary
     draws agree. *)
  Alcotest.(check int) "continued rng draw"
    (Rbb_prng.Rng.int_below (Process.rng full) 1_000_000)
    (Rbb_prng.Rng.int_below (Process.rng resumed) 1_000_000)

let resume_sharded_golden () =
  let n = 9_000 and k = 11 and total = 29 in
  let full =
    Sharded.create ~shards:7 ~domains:2 ~rng:(mk_rng 77L)
      ~init:(Config.uniform ~n) ()
  in
  Sharded.run full ~rounds:total;
  let part =
    Sharded.create ~shards:7 ~domains:2 ~rng:(mk_rng 77L)
      ~init:(Config.uniform ~n) ()
  in
  Sharded.run part ~rounds:k;
  let path = temp_path ".ckpt" in
  Checkpoint.save ~path (Checkpoint.capture (Sharded.engine part));
  let snap =
    match Checkpoint.load ~path () with
    | Ok s -> s
    | Error e -> Alcotest.failf "load: %s" e
  in
  (* Resume with a different worker geometry: results never depend on
     shards/domains. *)
  let resumed = Rbb_sim.Engines.restore ~shards:3 ~domains:1 snap in
  for _ = k + 1 to total do
    resumed.step ()
  done;
  Alcotest.(check bool) "config bit-identical" true
    (Config.equal (Sharded.config full) (resumed.config ()));
  Alcotest.(check int) "round" total (resumed.round ());
  (* Cross-engine: the same checkpoint resumed on the sequential engine
     lands on the same configuration. *)
  let cross = Checkpoint.to_process snap in
  Process.run cross ~rounds:(total - k);
  Alcotest.(check bool) "cross-engine resume" true
    (Config.equal (Sharded.config full) (Process.config cross))

(* QCheck: the resume law holds for arbitrary (n, split, seed) on both
   engines, through a real file round-trip. *)
let gen_resume_case =
  QCheck2.Gen.(
    quad (int_range 64 800) (int_range 0 40) (int_range 0 40)
      (int_range 0 10_000))

let prop_resume_bit_identical (n, k1, k2, seed) =
  let seed = Int64.of_int seed in
  let total = k1 + k2 in
  let path = Filename.temp_file "rbb_rob_prop" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* Sequential engine. *)
      let full = Process.create ~rng:(mk_rng seed) ~init:(Config.uniform ~n) () in
      Process.run full ~rounds:total;
      let part = Process.create ~rng:(mk_rng seed) ~init:(Config.uniform ~n) () in
      Process.run part ~rounds:k1;
      Checkpoint.save ~path (Checkpoint.capture_process part);
      let resumed =
        match Checkpoint.load ~path () with
        | Ok snap -> Checkpoint.to_process snap
        | Error e -> failwith e
      in
      Process.run resumed ~rounds:k2;
      let seq_ok = Config.equal (Process.config full) (Process.config resumed) in
      (* Sharded engine (inline worker: geometry never matters). *)
      let spart =
        Sharded.create ~shards:2 ~domains:1 ~rng:(mk_rng seed)
          ~init:(Config.uniform ~n) ()
      in
      Sharded.run spart ~rounds:k1;
      Checkpoint.save ~path (Checkpoint.capture (Sharded.engine spart));
      let sresumed =
        match Checkpoint.load ~path () with
        | Ok snap -> Rbb_sim.Engines.restore ~shards:3 ~domains:1 snap
        | Error e -> failwith e
      in
      for _ = 1 to k2 do
        sresumed.step ()
      done;
      let sh_ok = Config.equal (Process.config full) (sresumed.config ()) in
      seq_ok && sh_ok)

(* ------------------------------------------------------------------ *)
(* Fault injection through the sharded engine                          *)
(* ------------------------------------------------------------------ *)

let spec s = match Failpoint.parse s with Ok v -> v | Error e -> failwith e

let reference_config ~n ~seed ~rounds =
  let p = Process.create ~rng:(mk_rng seed) ~init:(Config.uniform ~n) () in
  Process.run p ~rounds;
  Process.config p

(* An injected fault that is retried leaves the trajectory — and the
   deterministic trace stream — byte-identical to an undisturbed run. *)
let injected_fault_is_invisible () =
  let n = 9_000 and rounds = 12 and seed = 31L in
  let run_with ?(failpoints = Failpoint.noop) ?(supervisor = Supervisor.noop)
      ?telemetry buf =
    let tracer = Rbb_sim.Tracer.create ~ndjson:(`Buffer buf) ~n () in
    let p =
      Sharded.create ?telemetry ~tracer ~failpoints ~supervisor ~shards:4
        ~domains:2 ~rng:(mk_rng seed) ~init:(Config.uniform ~n) ()
    in
    Sharded.run p ~rounds;
    Rbb_sim.Tracer.close tracer;
    p
  in
  (* Keep only the deterministic record families: spans carry wall-clock
     durations and faults appear only in the injected run. *)
  let deterministic_lines buf =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun line ->
           match Rbb_sim.Jsonl.parse line with
           | None -> false
           | Some fields -> (
               match Rbb_sim.Jsonl.find_string fields "type" with
               | Some ("span" | "fault") -> false
               | Some _ -> true
               | None -> false))
  in
  let ref_buf = Buffer.create 4096 in
  let reference = run_with ref_buf in
  let inj_buf = Buffer.create 4096 in
  let tel = Telemetry.create () in
  let injected =
    run_with
      ~failpoints:
        (Failpoint.of_specs
           [
             spec "sharded.launch@round=5,shard=1,fails=1";
             spec "sharded.settle@round=8,fails=1";
           ])
      ~supervisor:(instant_supervisor ()) ~telemetry:tel inj_buf
  in
  Alcotest.(check bool) "trajectory unchanged" true
    (Config.equal (Sharded.config reference) (Sharded.config injected));
  Alcotest.(check bool) "not degraded" false (Sharded.degraded injected);
  Alcotest.(check (list string)) "observable/threshold stream identical"
    (deterministic_lines ref_buf) (deterministic_lines inj_buf);
  (* The faults were really injected: settle fires on every worker of
     round 8, launch on shard 1 of round 5. *)
  Alcotest.(check int) "faults counted" 3 (Telemetry.counter tel "sharded.faults");
  Alcotest.(check int) "retries counted" 3 (Telemetry.counter tel "sharded.retries");
  Alcotest.(check int) "no degradation" 0 (Telemetry.counter tel "sharded.degraded");
  let faults =
    String.split_on_char '\n' (Buffer.contents inj_buf)
    |> List.filter (fun l -> Tutil.contains_substring l "\"type\":\"fault\"")
  in
  Alcotest.(check int) "fault records traced" 3 (List.length faults)

(* Every geometry fails the same way: two domains, one worker, and one
   domain scheduling several shards. *)
let geometries = [ (3, 2); (1, 1); (4, 1) ]

let geometry_name (shards, domains) what =
  Printf.sprintf "%s (shards=%d, domains=%d)" what shards domains

(* Exhausting the budget degrades to one domain, still with the correct
   trajectory; without a supervisor the engine rolls back. *)
let budget_exhaustion_degrades () =
  let n = 6_000 and rounds = 15 and seed = 87L in
  let reference = reference_config ~n ~seed ~rounds in
  List.iter
    (fun ((shards, domains) as g) ->
      let label = geometry_name g in
      let tel = Telemetry.create () in
      let p =
        Sharded.create ~telemetry:tel
          ~failpoints:(Failpoint.of_specs [ spec "sharded.merge@round=6,fails=99" ])
          ~supervisor:(instant_supervisor ~retries:2 ()) ~shards ~domains
          ~rng:(mk_rng seed) ~init:(Config.uniform ~n) ()
      in
      Sharded.run p ~rounds;
      Alcotest.(check bool) (label "degraded") true (Sharded.degraded p);
      Alcotest.(check bool) (label "trajectory still exact") true
        (Config.equal reference (Sharded.config p));
      Alcotest.(check int) (label "round completed") rounds (Sharded.round p);
      Alcotest.(check int) (label "degradations") 1
        (Telemetry.counter tel "sharded.degraded");
      (* With several in-flight shard tasks, more than one can exhaust
         its budget before the engine observes the first exhaustion and
         degrades — the count is timing-dependent but never zero. *)
      Alcotest.(check bool) (label "giving up") true
        (Telemetry.counter tel "sharded.fault.giving_up" >= 1);
      Alcotest.(check int) (label "rounds counter exact") rounds
        (Telemetry.counter tel "sharded.rounds"))
    geometries

let unsupervised_fault_rolls_back () =
  let n = 6_000 and seed = 88L in
  List.iter
    (fun ((shards, domains) as g) ->
      let label = geometry_name g in
      let tel = Telemetry.create () in
      let p =
        Sharded.create ~telemetry:tel
          ~failpoints:(Failpoint.of_specs [ spec "sharded.launch@round=6,fails=99" ])
          ~shards ~domains ~rng:(mk_rng seed) ~init:(Config.uniform ~n) ()
      in
      (match Sharded.run p ~rounds:15 with
      | exception Failpoint.Injected { name = "sharded.launch"; round = 6; _ } -> ()
      | exception e ->
          Alcotest.failf "%s: wrong exception: %s" (label "raise")
            (Printexc.to_string e)
      | () -> Alcotest.failf "%s: expected Injected" (label "raise"));
      Alcotest.(check int) (label "rolled back to last committed round") 5
        (Sharded.round p);
      Alcotest.(check bool) (label "state = reference at round 5") true
        (Config.equal (reference_config ~n ~seed ~rounds:5) (Sharded.config p));
      Alcotest.(check int) (label "committed rounds counted") 5
        (Telemetry.counter tel "sharded.rounds"))
    geometries

(* ------------------------------------------------------------------ *)
(* Adversary invariants                                                *)
(* ------------------------------------------------------------------ *)

let gen_perturb_case =
  QCheck2.Gen.(
    quad (int_range 2 64) (int_range 0 150) (int_range 0 3) (int_range 0 10_000))

let prop_perturb_conserves (n, m, which, seed) =
  let rng = mk_rng (Int64.of_int seed) in
  let q = Config.random rng ~n ~m in
  let action =
    match which with
    | 0 -> Adversary.Pile_into (seed mod n)
    | 1 -> Adversary.Reshuffle
    | 2 -> Adversary.Rotate (seed mod (2 * n))
    | _ -> Adversary.Rotate (-(seed mod n))
  in
  let q' = Adversary.perturb action rng q in
  let conserved = Config.n q' = n && Config.balls q' = m in
  let multiset_ok =
    match action with
    | Rotate _ ->
        (* A rotation permutes bins: the load multiset is preserved. *)
        let sorted q =
          let l = Config.loads q in
          Array.sort compare l;
          l
        in
        sorted q = sorted q'
    | Pile_into b -> Config.load q' b = m
    | Reshuffle -> true
  in
  conserved && multiset_ok

let faulty_round_boundaries () =
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "Every 1 hits round %d" r)
        true
        (Adversary.is_faulty_round (Adversary.Every 1) r);
      Alcotest.(check bool)
        (Printf.sprintf "At_rounds [] misses round %d" r)
        false
        (Adversary.is_faulty_round (Adversary.At_rounds []) r);
      Alcotest.(check bool)
        (Printf.sprintf "Never misses round %d" r)
        false
        (Adversary.is_faulty_round Adversary.Never r))
    [ 1; 2; 3; 100 ];
  Alcotest.(check bool) "Every 5 hits 5" true
    (Adversary.is_faulty_round (Adversary.Every 5) 5);
  Alcotest.(check bool) "Every 5 misses 4" false
    (Adversary.is_faulty_round (Adversary.Every 5) 4);
  Tutil.check_raises_invalid "Every 0" (fun () ->
      Adversary.is_faulty_round (Adversary.Every 0) 1)

(* ------------------------------------------------------------------ *)
(* Fileio                                                              *)
(* ------------------------------------------------------------------ *)

let fileio_unique_temps () =
  let path = temp_path ".out" in
  let w1 = Rbb_sim.Fileio.open_atomic ~path in
  let w2 = Rbb_sim.Fileio.open_atomic ~path in
  output_string (Rbb_sim.Fileio.channel w1) "one";
  output_string (Rbb_sim.Fileio.channel w2) "two";
  (* Two in-flight writers never clobber each other; the last commit
     wins the rename race cleanly. *)
  Rbb_sim.Fileio.commit w1;
  Rbb_sim.Fileio.commit w2;
  Alcotest.(check string) "last commit wins" "two"
    (In_channel.with_open_bin path In_channel.input_all)

let fileio_failure_cleanup () =
  let path = temp_path ".out" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "old");
  (match
     Rbb_sim.Fileio.write_atomic ~path (fun oc ->
         output_string oc "partial";
         failwith "writer died")
   with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected the writer's exception");
  Alcotest.(check string) "published file untouched" "old"
    (In_channel.with_open_bin path In_channel.input_all);
  let dir = Filename.dirname path and base = Filename.basename path in
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > String.length base
           && String.sub f 0 (String.length base) = base)
  in
  Alcotest.(check (list string)) "no temp leftovers" [] leftovers

(* ------------------------------------------------------------------ *)
(* Torn-trace tolerance                                                *)
(* ------------------------------------------------------------------ *)

let truncated_trace_tolerated () =
  let path = temp_path ".ndjson" in
  let write s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s) in
  let obs round =
    Printf.sprintf
      "{\"balls\":8,\"empty_bins\":4,\"max_load\":2,\"round\":%d,\"type\":\"observable\"}"
      round
  in
  let header =
    "{\"every\":1,\"n\":8,\"schema\":\"rbb.trace/1\",\"threshold\":9,\"type\":\"header\"}"
  in
  (* A producer killed mid-write leaves an unterminated, unparsable
     final line: tolerated with a warning, not counted as skipped. *)
  write
    (header ^ "\n" ^ obs 1 ^ "\n" ^ obs 2 ^ "\n"
   ^ "{\"balls\":8,\"empty_bins\":4,\"max_lo");
  let r = Rbb_sim.Trace_report.read_file path in
  Alcotest.(check bool) "truncated tail flagged" true r.truncated_tail;
  Alcotest.(check int) "torn tail not skipped" 0 r.skipped;
  Alcotest.(check int) "observables before the tear" 2 r.observables;
  Alcotest.(check bool) "render warns" true
    (Tutil.contains_substring
       (Rbb_sim.Trace_report.render ~plot:false r)
       "warning: truncated final line");
  (* A complete final line without a newline is fine. *)
  write (header ^ "\n" ^ obs 1 ^ "\n" ^ obs 2);
  let r = Rbb_sim.Trace_report.read_file path in
  Alcotest.(check bool) "complete unterminated line ok" false r.truncated_tail;
  Alcotest.(check int) "both observables" 2 r.observables;
  (* A properly terminated file is never flagged. *)
  write (header ^ "\n" ^ obs 1 ^ "\n");
  let r = Rbb_sim.Trace_report.read_file path in
  Alcotest.(check bool) "clean file not flagged" false r.truncated_tail

(* ------------------------------------------------------------------ *)
(* Recovery harness                                                    *)
(* ------------------------------------------------------------------ *)

let recovery_measures_relegitimacy () =
  let n = 128 in
  let measure engine =
    Rbb_sim.Recovery.measure ~action:(Adversary.Pile_into 0) ~episodes:2
      ~max_recovery:(100 * n) engine
  in
  let r =
    measure
      (Process.engine
         (Process.create ~rng:(mk_rng 9L) ~init:(Config.uniform ~n) ()))
  in
  Alcotest.(check int) "n" n r.Rbb_sim.Recovery.n;
  Alcotest.(check string) "action" "pile_into(0)" r.action;
  Alcotest.(check int) "episodes" 2 (List.length r.episodes);
  List.iter
    (fun (e : Rbb_sim.Recovery.episode) ->
      Alcotest.(check int) "spike is the full pile" n e.spike_max_load;
      match e.recovery_rounds with
      | Some k -> Alcotest.(check bool) "recovers in O(n)" true (k < 100 * n)
      | None -> Alcotest.fail "episode did not recover")
    r.episodes;
  (* Engine-generic: the sharded engine reproduces the series byte for
     byte. *)
  let r' =
    measure
      (Sharded.engine
         (Sharded.create ~shards:2 ~domains:1 ~rng:(mk_rng 9L)
            ~init:(Config.uniform ~n) ()))
  in
  Alcotest.(check string) "engine-identical JSON"
    (Rbb_sim.Recovery.to_json r)
    (Rbb_sim.Recovery.to_json r');
  Alcotest.(check bool) "json has schema" true
    (Tutil.contains_substring (Rbb_sim.Recovery.to_json r) "rbb.recovery/1");
  Tutil.check_raises_invalid "episodes < 1" (fun () ->
      Rbb_sim.Recovery.measure ~action:Adversary.Reshuffle ~episodes:0
        ~max_recovery:10
        (Process.engine
           (Process.create ~rng:(mk_rng 9L) ~init:(Config.uniform ~n) ())))

(* Regression for the m = n lock-in: Recovery.measure used to derive
   its legitimacy threshold from n alone, so with m ≫ n every episode
   was doomed before it started — with m balls in n bins the max load
   can never drop below ⌈m/n⌉, and the n-only threshold sits far under
   that floor.  The fix derives the threshold from n AND m. *)
let recovery_threshold_is_m_aware () =
  let n = 64 and m = 8192 in
  let floor_load = (m + n - 1) / n in
  let old_threshold = Config.legitimacy_threshold n in
  (* The arithmetic that proves the old behaviour could never succeed:
     the n-only threshold is below the conservation floor. *)
  Alcotest.(check bool)
    (Printf.sprintf "n-only threshold %d < unavoidable max load %d"
       old_threshold floor_load)
    true
    (old_threshold < floor_load);
  let threshold = Config.legitimacy_threshold ~m n in
  Alcotest.(check bool) "m-aware threshold clears the floor" true
    (threshold >= floor_load);
  (* With the fix a reshuffled m ≫ n configuration is recognised as
     legitimate: a uniform throw of m balls sits well inside the
     ⌈4 (m/n) ln n⌉ band. *)
  let r =
    Rbb_sim.Recovery.measure ~action:Adversary.Reshuffle ~episodes:2
      ~max_recovery:(100 * n)
      (Process.engine
         (Process.create ~rng:(mk_rng 21L) ~init:(Config.balanced ~n ~m) ()))
  in
  Alcotest.(check int) "record carries m" m r.Rbb_sim.Recovery.balls;
  Alcotest.(check int) "record carries the m-aware threshold" threshold
    r.Rbb_sim.Recovery.threshold;
  List.iter
    (fun (e : Rbb_sim.Recovery.episode) ->
      match e.recovery_rounds with
      | Some _ -> ()
      | None -> Alcotest.fail "reshuffle episode did not relegitimize")
    r.episodes;
  (* And a genuine pile of m ≫ n balls drains back into the band —
     slowly (the pile sheds at most one ball a round, then decays
     diffusively: Ω(m) rounds), but it gets there.  Small sizes keep
     the test fast. *)
  let n = 16 and m = 256 in
  let r =
    Rbb_sim.Recovery.measure ~action:(Adversary.Pile_into 0) ~episodes:1
      ~max_recovery:(100 * Stdlib.max n m)
      (Counts_process.engine
         (Counts_process.create ~rng:(mk_rng 22L)
            ~init:(Config.balanced ~n ~m) ()))
  in
  List.iter
    (fun (e : Rbb_sim.Recovery.episode) ->
      Alcotest.(check int) "spike is the full pile" m e.spike_max_load;
      match e.recovery_rounds with
      | Some k ->
          Alcotest.(check bool) "pile recovery is slower than O(n)" true (k > n)
      | None -> Alcotest.fail "m >> n pile episode did not relegitimize")
    r.episodes

let suite =
  [
    ( "robustness",
      [
        Tutil.quick "failpoint: parse" failpoint_parse;
        Tutil.quick "failpoint: fires" failpoint_fires;
        Tutil.quick "supervisor: retries then succeeds"
          supervisor_retries_then_succeeds;
        Tutil.quick "supervisor: budget exhausted" supervisor_budget_exhausted;
        Tutil.quick "checkpoint: round-trip" checkpoint_roundtrip;
        Tutil.quick "checkpoint: rejects weighted" checkpoint_rejects_weighted;
        Tutil.quick "checkpoint: load errors" checkpoint_load_errors;
        Tutil.quick "checkpoint: golden bytes" checkpoint_golden_bytes;
        Tutil.quick "checkpoint: loads records" checkpoint_loads_records;
        Tutil.quick "checkpoint: config shapes" checkpoint_config_shapes;
        Tutil.quick "resume: Process golden" resume_process_golden;
        Tutil.quick "resume: Sharded golden (cross-engine)" resume_sharded_golden;
        Tutil.prop "resume: bit-identical (both engines)" ~count:25
          gen_resume_case prop_resume_bit_identical;
        Tutil.quick "failpoint: injected fault invisible"
          injected_fault_is_invisible;
        Tutil.quick "supervisor: degradation" budget_exhaustion_degrades;
        Tutil.quick "failpoint: unsupervised rollback"
          unsupervised_fault_rolls_back;
        Tutil.prop "adversary: perturb conserves" ~count:100 gen_perturb_case
          prop_perturb_conserves;
        Tutil.quick "adversary: schedule boundaries" faulty_round_boundaries;
        Tutil.quick "fileio: concurrent writers" fileio_unique_temps;
        Tutil.quick "fileio: failure cleanup" fileio_failure_cleanup;
        Tutil.quick "trace-report: truncated tail" truncated_trace_tolerated;
        Tutil.quick "recovery: rounds-to-relegitimacy"
          recovery_measures_relegitimacy;
        Tutil.quick "recovery: m-aware threshold (m >> n regression)"
          recovery_threshold_is_m_aware;
      ] );
  ]

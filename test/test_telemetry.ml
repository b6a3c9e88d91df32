(* Tests for the telemetry subsystem: a complete golden JSON document
   under an injected deterministic clock, noop-sink inertness, file
   round-trip, the Process probe wiring, and a QCheck property tying the
   engine counters to the randomness-block lattice on both engines. *)

open Rbb_core
module Telemetry = Rbb_sim.Telemetry

(* A fake monotonic clock advancing 1000 ns per reading, so every timer
   in the golden document has an exact, reproducible value. *)
let fake_clock () =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t 1000L;
    !t

(* ------------------------------------------------------------------ *)
(* Golden JSON under a deterministic clock                             *)
(* ------------------------------------------------------------------ *)

let golden_expected =
  String.concat "\n"
    [
      "{";
      "  \"schema\": \"rbb.telemetry/1\",";
      "  \"counters\": {";
      "    \"alpha\": 1,";
      "    \"beta\": 42";
      "  },";
      "  \"gauges\": {";
      "    \"load.mean\": 2.5,";
      "    \"whole\": 7.0";
      "  },";
      "  \"timers\": {";
      "    \"phase.a\": { \"calls\": 1, \"total_ns\": 1000 },";
      "    \"phase.b\": { \"calls\": 1, \"total_ns\": 500 }";
      "  },";
      "  \"round_latency_ns\": {";
      "    \"count\": 3,";
      "    \"buckets\": [";
      "      { \"le\": 0, \"count\": 1 },";
      "      { \"le\": 1, \"count\": 1 },";
      "      { \"le\": 2047, \"count\": 1 }";
      "    ]";
      "  }";
      "}";
    ]

let populate tel =
  Telemetry.incr tel "alpha";
  Telemetry.add tel "beta" 41;
  Telemetry.incr tel "beta";
  Telemetry.set_gauge tel "load.mean" 2.5;
  Telemetry.set_gauge tel "whole" 7.;
  (* span: one clock read before f, one after -> exactly 1000 ns. *)
  Telemetry.span tel "phase.a" (fun () -> ());
  Telemetry.timer_add tel "phase.b" 500L;
  Telemetry.record_latency tel 0L;
  Telemetry.record_latency tel 1L;
  Telemetry.record_latency tel 1500L

let golden_json () =
  let tel = Telemetry.create ~clock:(fake_clock ()) () in
  populate tel;
  Alcotest.(check string) "golden document" golden_expected
    (Telemetry.to_json_string tel)

let golden_readers () =
  let tel = Telemetry.create ~clock:(fake_clock ()) () in
  populate tel;
  Alcotest.(check int) "alpha" 1 (Telemetry.counter tel "alpha");
  Alcotest.(check int) "beta" 42 (Telemetry.counter tel "beta");
  Alcotest.(check int) "absent counter" 0 (Telemetry.counter tel "nope");
  (match Telemetry.gauge tel "load.mean" with
  | Some v -> Tutil.check_close "load.mean" 2.5 v
  | None -> Alcotest.fail "gauge load.mean missing");
  Alcotest.(check bool) "absent gauge" true (Telemetry.gauge tel "nope" = None);
  let calls, total = Telemetry.timer tel "phase.a" in
  Alcotest.(check int) "phase.a calls" 1 calls;
  Alcotest.(check bool) "phase.a ns" true (total = 1000L);
  Alcotest.(check int) "latency count" 3 (Telemetry.latency_count tel)

let span_propagates () =
  (* span times the body even when it raises, and re-raises. *)
  let tel = Telemetry.create ~clock:(fake_clock ()) () in
  (match Telemetry.span tel "boom" (fun () -> failwith "x") with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "span swallowed the exception");
  let calls, total = Telemetry.timer tel "boom" in
  Alcotest.(check int) "boom calls" 1 calls;
  Alcotest.(check bool) "boom ns" true (total = 1000L);
  Alcotest.(check int) "span result" 5
    (Telemetry.span tel "ok" (fun () -> 5))

(* ------------------------------------------------------------------ *)
(* Noop sink: inert and renders the empty document                     *)
(* ------------------------------------------------------------------ *)

let noop_inert () =
  let tel = Telemetry.noop in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled tel);
  populate tel;
  Alcotest.(check int) "counter" 0 (Telemetry.counter tel "alpha");
  Alcotest.(check bool) "gauge" true (Telemetry.gauge tel "load.mean" = None);
  Alcotest.(check bool) "timer" true (Telemetry.timer tel "phase.a" = (0, 0L));
  Alcotest.(check int) "latency" 0 (Telemetry.latency_count tel);
  Alcotest.(check bool) "now" true (Telemetry.now tel = 0L);
  Alcotest.(check int) "span passthrough" 9
    (Telemetry.span tel "t" (fun () -> 9));
  Alcotest.(check bool) "noop probe" true
    (Telemetry.probe tel == Probe.noop);
  let doc = Telemetry.to_json_string tel in
  Alcotest.(check bool) "empty counters" true
    (Tutil.contains_substring doc "\"counters\": {}");
  Alcotest.(check bool) "zero latency" true
    (Tutil.contains_substring doc "\"count\": 0")

(* ------------------------------------------------------------------ *)
(* write_json round-trip                                               *)
(* ------------------------------------------------------------------ *)

let write_json_roundtrip () =
  let tel = Telemetry.create ~clock:(fake_clock ()) () in
  populate tel;
  let path = Filename.temp_file "rbb_telemetry" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.write_json tel ~path;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      Alcotest.(check string) "file contents" (golden_expected ^ "\n") contents)

(* ------------------------------------------------------------------ *)
(* Engine wiring: counters follow the randomness-block lattice         *)
(* ------------------------------------------------------------------ *)

let process_probe_counters () =
  let n = 9_000 and rounds = 7 in
  let tel = Telemetry.create () in
  let p =
    Process.create ~rng:(Tutil.rng ()) ~init:(Config.uniform ~n) ()
  in
  Process.run ~probe:(Telemetry.probe tel) p ~rounds;
  Alcotest.(check int) "process.rounds" rounds
    (Telemetry.counter tel "process.rounds");
  Alcotest.(check int) "process.launch.blocks"
    (rounds * Process.shard_count ~bins:n)
    (Telemetry.counter tel "process.launch.blocks");
  Alcotest.(check int) "latency samples" rounds (Telemetry.latency_count tel);
  let calls, _ = Telemetry.timer tel "process.launch" in
  Alcotest.(check int) "launch timer calls" rounds calls;
  let calls, _ = Telemetry.timer tel "process.settle" in
  Alcotest.(check int) "settle timer calls" rounds calls;
  let calls, _ = Telemetry.timer tel "process.run" in
  Alcotest.(check int) "run timer calls" 1 calls

let sharded_phase_timers () =
  (* Phase timer keys appear on one domain and on two, flushed once per
     domain per run; barrier_wait only when more than one domain runs. *)
  let n = 5_000 and rounds = 4 in
  let check_keys ~shards ~domains expect_barrier =
    let tel = Telemetry.create () in
    let p =
      Rbb_sim.Sharded.create ~telemetry:tel ~shards ~domains
        ~rng:(Tutil.rng ()) ~init:(Config.uniform ~n) ()
    in
    Rbb_sim.Sharded.run p ~rounds;
    List.iter
      (fun key ->
        let calls, _ = Telemetry.timer tel key in
        if calls = 0 then Alcotest.failf "timer %s missing (w=%d)" key domains)
      [ "sharded.launch"; "sharded.merge"; "sharded.settle" ];
    let barrier_calls, _ = Telemetry.timer tel "sharded.barrier_wait" in
    Alcotest.(check bool)
      (Printf.sprintf "barrier key (w=%d)" domains)
      expect_barrier (barrier_calls > 0);
    Alcotest.(check int)
      (Printf.sprintf "latency samples (w=%d)" domains)
      rounds (Telemetry.latency_count tel)
  in
  check_keys ~shards:1 ~domains:1 false;
  check_keys ~shards:3 ~domains:2 true

let gen_engine_case =
  let open QCheck2.Gen in
  let* n = int_range 1 9_000 in
  let* rounds = int_range 0 8 in
  let* shards = int_range 1 5 in
  let* domains = int_range 1 3 in
  let* seed = int_range 0 10_000 in
  return (n, rounds, shards, domains, seed)

let prop_counters_match_lattice (n, rounds, shards, domains, seed) =
  (* On both engines the launch counter equals rounds x block count —
     the block lattice is a constant of the law, however the blocks are
     scheduled — and the instrumented runs stay bit-identical. *)
  let init = Config.uniform ~n in
  let blocks = Process.shard_count ~bins:n in
  let seq_tel = Telemetry.create () in
  let seq =
    Process.create ~rng:(Rbb_prng.Rng.create ~seed:(Int64.of_int seed) ()) ~init ()
  in
  Process.run ~probe:(Telemetry.probe seq_tel) seq ~rounds;
  let par_tel = Telemetry.create () in
  let par =
    Rbb_sim.Sharded.create ~telemetry:par_tel ~shards ~domains
      ~rng:(Rbb_prng.Rng.create ~seed:(Int64.of_int seed) ())
      ~init ()
  in
  Rbb_sim.Sharded.run par ~rounds;
  Telemetry.counter seq_tel "process.rounds" = rounds
  && Telemetry.counter seq_tel "process.launch.blocks" = rounds * blocks
  && Telemetry.counter par_tel "sharded.rounds" = (if rounds = 0 then 0 else rounds)
  && Telemetry.counter par_tel "sharded.launch.blocks" = rounds * blocks
  && Config.equal (Process.config seq) (Rbb_sim.Sharded.config par)

let parallel_worker_counters () =
  let tel = Telemetry.create () in
  let tasks = 13 and domains = 3 in
  let res =
    Rbb_sim.Parallel.map_domains ~telemetry:tel ~domains ~tasks (fun i -> i * i)
  in
  Alcotest.(check int) "results" tasks (Array.length res);
  Alcotest.(check int) "parallel.tasks" tasks
    (Telemetry.counter tel "parallel.tasks");
  let sum = ref 0 in
  for w = 0 to domains - 1 do
    sum :=
      !sum + Telemetry.counter tel (Printf.sprintf "parallel.worker%d.tasks" w)
  done;
  Alcotest.(check int) "worker task counts sum" tasks !sum;
  (* Round-robin assignment is deterministic in (tasks, domains). *)
  Alcotest.(check int) "worker0 tasks" 5
    (Telemetry.counter tel "parallel.worker0.tasks")

let suite =
  [
    ( "sim.telemetry",
      [
        Tutil.quick "golden JSON (fake clock)" golden_json;
        Tutil.quick "readers" golden_readers;
        Tutil.quick "span times and re-raises" span_propagates;
        Tutil.quick "noop sink is inert" noop_inert;
        Tutil.quick "write_json round-trip" write_json_roundtrip;
        Tutil.quick "Process probe counters" process_probe_counters;
        Tutil.quick "Sharded phase timers (inline + pooled)"
          sharded_phase_timers;
        Tutil.prop "engine counters follow block lattice" ~count:40
          gen_engine_case prop_counters_match_lattice;
        Tutil.quick "Parallel worker counters" parallel_worker_counters;
      ] );
  ]

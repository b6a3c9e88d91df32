(* Tests for the observability layer: the labeled metrics registry
   (counters, gauges, log-bucketed histograms), the Prometheus text
   exporter and its scrape-side parser, the engine probe bridge, the
   telemetry re-export, and the pure parts of the `rbb top` dashboard. *)

open Rbb_core
module Registry = Rbb_obs.Registry
module Prometheus = Rbb_obs.Prometheus
module Telemetry = Rbb_sim.Telemetry
module Top = Rbb_serve.Top
module Jsonl = Rbb_sim.Jsonl

(* ------------------------------------------------------------------ *)
(* Registry: counters, gauges, labels, kinds                           *)
(* ------------------------------------------------------------------ *)

let test_counters_and_gauges () =
  let r = Registry.create () in
  Alcotest.(check bool) "enabled" true (Registry.enabled r);
  Registry.incr r "jobs_total";
  Registry.add r "jobs_total" 2.;
  Alcotest.(check (float 1e-9)) "counter" 3. (Registry.counter_value r "jobs_total");
  Registry.set_gauge r "queue_len" 5.;
  Registry.set_gauge r "queue_len" 2.;
  Alcotest.(check (option (float 1e-9))) "gauge keeps last" (Some 2.)
    (Registry.gauge_value r "queue_len");
  Alcotest.(check (float 1e-9)) "absent counter reads zero" 0.
    (Registry.counter_value r "nope");
  Alcotest.(check (option (float 1e-9))) "absent gauge" None
    (Registry.gauge_value r "nope");
  (* set_counter is absolute: importing twice lands on the same total. *)
  Registry.set_counter r "imported_total" 7.;
  Registry.set_counter r "imported_total" 7.;
  Alcotest.(check (float 1e-9)) "set_counter idempotent" 7.
    (Registry.counter_value r "imported_total")

let test_labels_canonical () =
  let r = Registry.create () in
  Registry.incr r ~labels:[ ("b", "2"); ("a", "1") ] "x_total";
  Registry.incr r ~labels:[ ("a", "1"); ("b", "2") ] "x_total";
  Alcotest.(check (float 1e-9)) "label order is immaterial" 2.
    (Registry.counter_value r ~labels:[ ("b", "2"); ("a", "1") ] "x_total");
  Alcotest.(check (float 1e-9)) "different labels, different series" 0.
    (Registry.counter_value r ~labels:[ ("a", "1") ] "x_total");
  Tutil.check_raises_invalid "duplicate label keys" (fun () ->
      Registry.incr r ~labels:[ ("a", "1"); ("a", "2") ] "x_total")

let test_kind_conflicts () =
  let r = Registry.create () in
  Registry.incr r "c_total";
  Tutil.check_raises_invalid "counter as gauge" (fun () ->
      Registry.set_gauge r "c_total" 1.);
  Tutil.check_raises_invalid "counter as histogram" (fun () ->
      Registry.observe r "c_total" 1.);
  Tutil.check_raises_invalid "negative increment" (fun () ->
      Registry.add r "c_total" (-1.));
  (* The failed calls must not have poisoned the registry (the lock is
     released on the error path). *)
  Registry.incr r "c_total";
  Alcotest.(check (float 1e-9)) "still usable" 2.
    (Registry.counter_value r "c_total")

let test_noop_registry () =
  let r = Registry.noop in
  Alcotest.(check bool) "disabled" false (Registry.enabled r);
  Registry.incr r "a";
  Registry.set_gauge r "b" 1.;
  Registry.observe r "c" 1.;
  Alcotest.(check (float 1e-9)) "counter" 0. (Registry.counter_value r "a");
  Alcotest.(check (option (float 1e-9))) "gauge" None (Registry.gauge_value r "b");
  Alcotest.(check int) "hist" 0 (Registry.hist_count r "c");
  Alcotest.(check (option (float 1e-9))) "quantile" None (Registry.quantile r "c" 0.5);
  Alcotest.(check bool) "empty snapshot" true
    ((Registry.snapshot r).Registry.families = []);
  Alcotest.(check bool) "noop probe" true
    (not (Probe.live (Registry.probe r)))

(* ------------------------------------------------------------------ *)
(* Histograms: quantile accuracy, window rotation, reset               *)
(* ------------------------------------------------------------------ *)

let test_histogram_quantiles () =
  let r = Registry.create () in
  (* 1..1000 ms: quantiles are known exactly; the log buckets are 4.4%
     wide so the interpolated readback must be within 5%. *)
  for i = 1 to 1000 do
    Registry.observe r "lat_seconds" (float_of_int i /. 1000.)
  done;
  Alcotest.(check int) "count" 1000 (Registry.hist_count r "lat_seconds");
  Tutil.check_close ~tol:1e-6 "sum" 500.5 (Registry.hist_sum r "lat_seconds");
  List.iter
    (fun q ->
      match Registry.quantile r "lat_seconds" q with
      | None -> Alcotest.fail "quantile must exist"
      | Some v -> Tutil.check_rel ~tol:0.05 (Printf.sprintf "p%.0f" (q *. 100.)) q v)
    [ 0.25; 0.5; 0.9; 0.99 ];
  Tutil.check_raises_invalid "q out of range" (fun () ->
      ignore (Registry.quantile r "lat_seconds" 1.5));
  (* The rejected call must not have kept the registry lock. *)
  Registry.incr r "after_total";
  Alcotest.(check (float 1e-9)) "still counts" 1.
    (Registry.counter_value r "after_total");
  Alcotest.(check bool) "still snapshots" true
    (List.mem_assoc "after_total" (Registry.snapshot r).Registry.families)

let test_reset_histograms () =
  let r = Registry.create () in
  Registry.incr r "kept_total";
  Registry.set_gauge r "kept_gauge" 4.;
  Registry.observe r "h" 0.5;
  Registry.reset_histograms r;
  Alcotest.(check int) "histogram zeroed" 0 (Registry.hist_count r "h");
  Alcotest.(check (float 1e-9)) "counter kept" 1.
    (Registry.counter_value r "kept_total");
  Alcotest.(check (option (float 1e-9))) "gauge kept" (Some 4.)
    (Registry.gauge_value r "kept_gauge")

let test_merge_histogram () =
  let r = Registry.create () in
  let rng = Tutil.rng () in
  let all = ref [] in
  for i = 1 to 300 do
    let v = Float.of_int (1 + Rbb_prng.Rng.int_below rng 5000) /. 1000. in
    all := v :: !all;
    Registry.observe r (if i mod 2 = 0 then "ha" else "hb") v
  done;
  let snap_hist name =
    match List.assoc_opt name (Registry.snapshot r).Registry.families with
    | Some [ (_, Registry.Vhistogram h) ] -> h
    | _ -> Alcotest.failf "missing histogram %s" name
  in
  let a = snap_hist "ha" and b = snap_hist "hb" in
  let m = Registry.merge_histogram a b in
  Alcotest.(check int) "counts add" (a.Registry.count + b.Registry.count)
    m.Registry.count;
  Tutil.check_close ~tol:1e-9 "sums add"
    (a.Registry.sum +. b.Registry.sum)
    m.Registry.sum;
  (* Quantiles of the merge match quantiles of the concatenated sample
     within bucket resolution (4.4% buckets; 10% is generous). *)
  let sorted = List.sort compare !all |> Array.of_list in
  List.iter
    (fun q ->
      let exact = sorted.(int_of_float (q *. float_of_int (Array.length sorted))) in
      match Registry.quantile_of_buckets m.Registry.buckets q with
      | None -> Alcotest.fail "merged quantile must exist"
      | Some v ->
          Tutil.check_rel ~tol:0.1 (Printf.sprintf "merged p%.0f" (q *. 100.))
            exact v)
    [ 0.1; 0.5; 0.9 ];
  (* Merging histograms of different shapes stays cumulative-monotone. *)
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        Alcotest.(check bool) "cumulative nondecreasing" true (a <= b);
        monotone rest
    | _ -> ()
  in
  monotone m.Registry.buckets

(* ------------------------------------------------------------------ *)
(* Prometheus exposition: golden render, escaping, parse-back          *)
(* ------------------------------------------------------------------ *)

let test_prometheus_golden () =
  let r = Registry.create ~clock:(fun () -> 0L) () in
  Registry.help r ~name:"rbb_jobs_total" "Total jobs, by outcome.";
  Registry.incr r ~labels:[ ("outcome", "ok") ] "rbb_jobs_total";
  Registry.add r ~labels:[ ("outcome", "err\"or\\x") ] "rbb_jobs_total" 2.;
  Registry.set_gauge r "rbb.queue.len" 3.5;
  (* Three zero observations land in bucket 0, whose bound (2^-30) is
     the one exactly-representable edge — so the histogram block is
     byte-pinnable. *)
  for _ = 1 to 3 do
    Registry.observe r "rbb_wait_seconds" 0.
  done;
  let expected =
    "# TYPE rbb_queue_len gauge\n" ^ "rbb_queue_len 3.5\n"
    ^ "# HELP rbb_jobs_total Total jobs, by outcome.\n"
    ^ "# TYPE rbb_jobs_total counter\n"
    ^ "rbb_jobs_total{outcome=\"err\\\"or\\\\x\"} 2\n"
    ^ "rbb_jobs_total{outcome=\"ok\"} 1\n"
    ^ "# TYPE rbb_wait_seconds histogram\n"
    ^ "rbb_wait_seconds_bucket{le=\"9.31322575e-10\"} 3\n"
    ^ "rbb_wait_seconds_bucket{le=\"+Inf\"} 3\n"
    ^ "rbb_wait_seconds_sum 0\n" ^ "rbb_wait_seconds_count 3\n"
  in
  Alcotest.(check string) "golden exposition" expected
    (Prometheus.render_registry r);
  (* Determinism: a second snapshot renders the same bytes. *)
  Alcotest.(check string) "deterministic" expected
    (Prometheus.render_registry r)

let test_name_sanitization () =
  Alcotest.(check string) "dots" "process_rounds"
    (Prometheus.sanitize_name "process.rounds");
  Alcotest.(check string) "leading digit" "_1xx"
    (Prometheus.sanitize_name "1xx");
  Alcotest.(check string) "colon kept" "rbb:x" (Prometheus.sanitize_name "rbb:x");
  Alcotest.(check string) "empty" "_" (Prometheus.sanitize_name "");
  Alcotest.(check string) "label escape" "a\\\\b\\\"c\\nd"
    (Prometheus.escape_label_value "a\\b\"c\nd");
  Alcotest.(check string) "+Inf" "+Inf" (Prometheus.render_value infinity);
  Alcotest.(check string) "integral" "42" (Prometheus.render_value 42.);
  Alcotest.(check string) "fractional" "0.1875" (Prometheus.render_value 0.1875)

let test_scrape_roundtrip () =
  let r = Registry.create () in
  let labels = [ ("outcome", "ok") ] in
  for i = 1 to 500 do
    Registry.observe r ~labels "rbb_job_sojourn_seconds"
      (float_of_int i /. 100.)
  done;
  Registry.observe r
    ~labels:[ ("outcome", "error") ]
    "rbb_job_sojourn_seconds" 9.;
  Registry.set_gauge r "rbb_workers" 4.;
  let body = Prometheus.render_registry r in
  Alcotest.(check (option (float 1e-9))) "gauge readback" (Some 4.)
    (Prometheus.sample_value body "rbb_workers");
  let buckets = Prometheus.parse_histogram ~labels body "rbb_job_sojourn_seconds" in
  Alcotest.(check bool) "buckets parsed" true (List.length buckets > 2);
  (match List.rev buckets with
  | (le, total) :: _ ->
      Alcotest.(check bool) "+Inf last" true (le = Float.infinity);
      Alcotest.(check int) "label filter excludes the error series" 500 total
  | [] -> Alcotest.fail "no buckets");
  (* The scraped quantile agrees with the registry's own (both within
     bucket resolution of the exact sample quantile). *)
  List.iter
    (fun q ->
      match
        ( Prometheus.scraped_quantile ~labels body "rbb_job_sojourn_seconds" q,
          Registry.quantile r ~labels "rbb_job_sojourn_seconds" q )
      with
      | Some scraped, Some direct ->
          Tutil.check_rel ~tol:0.05 "scraped vs direct" direct scraped;
          Tutil.check_rel ~tol:0.1 "scraped vs exact" (5. *. q) scraped
      | _ -> Alcotest.fail "quantiles must exist")
    [ 0.5; 0.95; 0.99 ];
  (* Without labels the two series are summed bucket-wise, not
     interleaved: the list stays cumulative and its quantiles are the
     registry's merged read. *)
  let all = Prometheus.parse_histogram body "rbb_job_sojourn_seconds" in
  ignore
    (List.fold_left
       (fun prev (_, c) ->
         Alcotest.(check bool) "unlabeled cumulative-monotone" true (prev <= c);
         c)
       0 all);
  Alcotest.(check (option int)) "unlabeled total" (Some 501)
    (Option.map snd (List.nth_opt all (List.length all - 1)));
  let merged =
    Option.get (Registry.family_histogram r "rbb_job_sojourn_seconds")
  in
  List.iter
    (fun q ->
      match
        ( Prometheus.scraped_quantile body "rbb_job_sojourn_seconds" q,
          Registry.histogram_quantile merged q )
      with
      | Some scraped, Some direct ->
          Tutil.check_rel ~tol:1e-6 "unlabeled scrape vs merged read" direct
            scraped
      | _ -> Alcotest.fail "merged quantiles must exist")
    [ 0.5; 0.75; 0.95; 0.99; 1. ]

(* ------------------------------------------------------------------ *)
(* The engine probe bridge and the telemetry re-export                 *)
(* ------------------------------------------------------------------ *)

let test_probe_legitimacy () =
  let r = Registry.create ~clock:(fun () -> 0L) () in
  let p = Registry.probe ~threshold:5 r in
  Alcotest.(check bool) "live" true (Probe.live p);
  (* Baseline illegitimate; then enter, dwell, exit. *)
  p.Probe.on_round ~round:1 ~max_load:7 ~empty_bins:10 ~balls:64;
  p.Probe.on_round ~round:2 ~max_load:3 ~empty_bins:20 ~balls:64;
  p.Probe.on_round ~round:3 ~max_load:5 ~empty_bins:22 ~balls:64;
  p.Probe.on_round ~round:4 ~max_load:8 ~empty_bins:9 ~balls:64;
  let c name = Registry.counter_value r name in
  Alcotest.(check (float 1e-9)) "rounds" 4. (c "rbb_rounds_total");
  Alcotest.(check (float 1e-9)) "dwell" 2. (c "rbb_legitimacy_dwell_rounds_total");
  Alcotest.(check (float 1e-9)) "excursion" 2.
    (c "rbb_legitimacy_excursion_rounds_total");
  Alcotest.(check (float 1e-9)) "enters" 1. (c "rbb_legitimacy_enters_total");
  Alcotest.(check (float 1e-9)) "exits (baseline uncounted)" 1.
    (c "rbb_legitimacy_exits_total");
  Alcotest.(check (option (float 1e-9))) "max-load gauge is current" (Some 8.)
    (Registry.gauge_value r "rbb_max_load");
  Alcotest.(check (option (float 1e-9))) "legitimate gauge" (Some 0.)
    (Registry.gauge_value r "rbb_legitimate");
  Alcotest.(check (option (float 1e-9))) "threshold gauge" (Some 5.)
    (Registry.gauge_value r "rbb_legitimacy_threshold");
  (* Telemetry-style instruments flow through the same probe. *)
  p.Probe.add "engine.spins" 3;
  p.Probe.timer_add "engine.settle" 2_000_000_000L;
  p.Probe.latency 500_000_000L;
  Alcotest.(check (float 1e-9)) "counter re-export" 3. (c "engine.spins_total");
  Alcotest.(check (float 1e-9)) "timer seconds" 2. (c "engine.settle_seconds_total");
  Alcotest.(check (float 1e-9)) "timer calls" 1. (c "engine.settle_calls_total");
  Alcotest.(check int) "latency histogrammed" 1
    (Registry.hist_count r "rbb_round_seconds")

let test_import_telemetry () =
  let tel = Telemetry.create () in
  Telemetry.add tel "process.rounds" 10;
  Telemetry.set_gauge tel "simulate.mean_max_load" 3.25;
  Telemetry.timer_add tel "engine.settle" 1_500_000_000L;
  Telemetry.timer_add tel "engine.settle" 500_000_000L;
  let r = Registry.create () in
  Registry.import_telemetry r tel;
  (* Idempotent: a second import must not double anything. *)
  Registry.import_telemetry r tel;
  Alcotest.(check (float 1e-9)) "counter" 10.
    (Registry.counter_value r "process.rounds_total");
  Alcotest.(check (option (float 1e-9))) "gauge" (Some 3.25)
    (Registry.gauge_value r "simulate.mean_max_load");
  Alcotest.(check (float 1e-9)) "timer seconds" 2.
    (Registry.counter_value r "engine.settle_seconds_total");
  Alcotest.(check (float 1e-9)) "timer calls" 2.
    (Registry.counter_value r "engine.settle_calls_total");
  (* A live probe that accumulated the same instruments lands on the
     same totals after the import (set-semantics, not add). *)
  let p = Registry.probe r in
  p.Probe.add "process.rounds" 10;
  Registry.import_telemetry r tel;
  Alcotest.(check (float 1e-9)) "no double counting" 10.
    (Registry.counter_value r "process.rounds_total");
  (* Importing a noop sink or into a noop registry is inert. *)
  Registry.import_telemetry r Telemetry.noop;
  Registry.import_telemetry Registry.noop tel

(* ------------------------------------------------------------------ *)
(* rbb top: pure assembly and rendering                                *)
(* ------------------------------------------------------------------ *)

let canned_stats ~queue_len ~completed =
  [
    ("workers", Jsonl.Int 2);
    ("queue_depth", Jsonl.Int 16);
    ("queue_len", Jsonl.Int queue_len);
    ("started", Jsonl.Int (completed + 1));
    ("completed", Jsonl.Int completed);
    ("failed", Jsonl.Int 0);
    ("rejected", Jsonl.Int 3);
    ("lambda_hat_per_s", Jsonl.Float 4.);
    ("service_mean_s", Jsonl.Float 0.25);
  ]

let canned_metrics () =
  let r = Registry.create () in
  for i = 1 to 100 do
    Registry.observe r
      ~labels:[ ("outcome", "ok") ]
      "rbb_job_sojourn_seconds"
      (float_of_int i /. 100.)
  done;
  Prometheus.render_registry r

let test_top_assemble () =
  let v =
    Top.assemble
      ~stats:(canned_stats ~queue_len:4 ~completed:10)
      ~metrics_body:(canned_metrics ()) ~completed_delta:5 ~dt:2.
      ~jobs:[ { Top.id = "job-000001"; state = "running"; round = 42 } ]
  in
  Alcotest.(check int) "queue" 4 v.Top.queue_len;
  Alcotest.(check int) "capacity" 16 v.Top.queue_capacity;
  Alcotest.(check int) "running" 1 v.Top.running;
  Tutil.check_close ~tol:1e-9 "jobs/s" 2.5 v.Top.jobs_per_s;
  (* lambda 4 /s over c=2 workers at mu 4 /s: rho = 0.5, and the M/M/c
     predicted wait is finite. *)
  Tutil.check_close ~tol:1e-9 "rho" 0.5 v.Top.utilization;
  (match v.Top.mmc_wait_s with
  | Some w -> Alcotest.(check bool) "mmc wait positive" true (w > 0.)
  | None -> Alcotest.fail "mmc prediction expected");
  (match v.Top.sojourn_p50_s with
  | Some p50 -> Tutil.check_rel ~tol:0.1 "p50 from scrape" 0.5 p50
  | None -> Alcotest.fail "p50 expected");
  let frame = Top.render v in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "frame mentions %S" needle) true
        (Tutil.contains_substring frame needle))
    [ "rbb top"; "queue"; "4/16"; "rho=0.50"; "job-000001"; "running" ]

let test_top_tracker () =
  let tr = Top.tracker () in
  let ev id ev round =
    Top.note_event tr { Rbb_serve.Protocol.id; ev; round; detail = "" }
  in
  ev "job-000001" "accepted" 0;
  ev "job-000002" "accepted" 0;
  ev "job-000001" "started" 0;
  ev "job-000001" "checkpoint" 64;
  ev "job-000002" "started" 0;
  (match Top.jobs_of_tracker tr with
  | [ b; a ] ->
      Alcotest.(check string) "most recent first" "job-000002" b.Top.id;
      Alcotest.(check string) "state" "running" b.Top.state;
      Alcotest.(check string) "older" "job-000001" a.Top.id;
      Alcotest.(check int) "round survives later events" 64 a.Top.round
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  Alcotest.(check int) "limit" 1 (List.length (Top.jobs_of_tracker ~limit:1 tr));
  (* Event lines from the ndjson log fold the same way; junk is ignored. *)
  Top.note_event_line tr
    "{\"schema\":\"rbb.job/1\",\"type\":\"event\",\"event\":\"done\",\"id\":\"job-000002\",\"round\":100}";
  Top.note_event_line tr "not json at all";
  (match Top.jobs_of_tracker tr with
  | { Top.id = "job-000002"; state = "done"; round = 100 } :: _ -> ()
  | _ -> Alcotest.fail "event line must fold")

(* ------------------------------------------------------------------ *)
(* trace-report --follow live lines                                    *)
(* ------------------------------------------------------------------ *)

let test_live_line_format () =
  let l =
    {
      Rbb_sim.Trace_report.live_rounds = 10;
      live_last_round = Some 200;
      live_max_load = Some 3;
      live_legitimate = Some true;
    }
  in
  Alcotest.(check string) "with rate"
    "live: round=200 max_load=3 legitimate=yes (812.5 rounds/s)"
    (Rbb_sim.Trace_report.live_line ~rate:812.5 l);
  Alcotest.(check string) "without rate" "live: round=200 max_load=3 legitimate=yes"
    (Rbb_sim.Trace_report.live_line l);
  let unknown =
    {
      Rbb_sim.Trace_report.live_rounds = 0;
      live_last_round = None;
      live_max_load = None;
      live_legitimate = None;
    }
  in
  Alcotest.(check string) "unknowns render as placeholders"
    "live: round=? max_load=? legitimate=-"
    (Rbb_sim.Trace_report.live_line unknown)

let test_follow_live_callback () =
  (* A complete trace file: follow_file must deliver at least one live
     snapshot whose fields match the final report. *)
  let path = Filename.temp_file "rbb_obs_follow" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let tracer =
        Rbb_sim.Tracer.create ~n:64 ~ndjson:(`File path) ()
      in
      let rng = Tutil.rng () in
      let p = Process.create ~rng ~init:(Config.uniform ~n:64) () in
      Process.run ~probe:(Rbb_sim.Tracer.probe tracer) p ~rounds:20;
      Rbb_sim.Tracer.close tracer;
      let snaps = ref [] in
      let r =
        Rbb_sim.Trace_report.follow_file ~poll_interval_s:0.005 ~idle_polls:2
          ~live:(fun l -> snaps := l :: !snaps)
          path
      in
      Alcotest.(check int) "report sees all rounds" 20 r.Rbb_sim.Trace_report.observables;
      match !snaps with
      | [] -> Alcotest.fail "live callback never fired"
      | last :: _ ->
          Alcotest.(check int) "live rounds" 20
            last.Rbb_sim.Trace_report.live_rounds;
          Alcotest.(check (option int)) "live round" (Some 20)
            last.Rbb_sim.Trace_report.live_last_round;
          (* live_max_load is the newest observable's value, so it is
             bounded by (but need not equal) the report's peak. *)
          let peak =
            match r.Rbb_sim.Trace_report.peak_max_load with
            | Some p -> p
            | None -> Alcotest.fail "peak expected"
          in
          (match last.Rbb_sim.Trace_report.live_max_load with
          | Some m ->
              Alcotest.(check bool) "live max load bounded by peak" true
                (m >= 1 && m <= peak)
          | None -> Alcotest.fail "live max load expected"))

let suite =
  [
    ( "obs.registry",
      [
        Tutil.quick "counters and gauges" test_counters_and_gauges;
        Tutil.quick "label canonicalization" test_labels_canonical;
        Tutil.quick "kind conflicts raise" test_kind_conflicts;
        Tutil.quick "noop registry is inert" test_noop_registry;
        Tutil.quick "histogram quantile accuracy" test_histogram_quantiles;
        Tutil.quick "reset zeroes histograms only" test_reset_histograms;
        Tutil.quick "merge histogram" test_merge_histogram;
      ] );
    ( "obs.prometheus",
      [
        Tutil.quick "golden render" test_prometheus_golden;
        Tutil.quick "sanitization and escaping" test_name_sanitization;
        Tutil.quick "scrape round-trip" test_scrape_roundtrip;
      ] );
    ( "obs.bridges",
      [
        Tutil.quick "probe legitimacy tracking" test_probe_legitimacy;
        Tutil.quick "telemetry import is idempotent" test_import_telemetry;
      ] );
    ( "obs.top",
      [
        Tutil.quick "assemble and render" test_top_assemble;
        Tutil.quick "event tracker" test_top_tracker;
      ] );
    ( "obs.follow",
      [
        Tutil.quick "live line format" test_live_line_format;
        Tutil.quick "follow delivers live snapshots" test_follow_live_callback;
      ] );
  ]

(* Observability benchmark: the metrics registry's per-operation cost
   and the daemon's scrape path under load, recorded to BENCH_obs.json.

   Phase 1 (registry): ns/op of the hot instruments — counter incr,
   gauge set, histogram observe — on an active registry, against the
   noop registry (which must be branch-cheap).

   Phase 2 (scrape under load): a daemon is slammed with open-loop
   Poisson arrivals while a concurrent domain scrapes the `metrics`
   request on a timer, measuring scrape round-trip latency.  After the
   slam drains, the job-sojourn quantiles parsed from a final scrape
   must agree with slam's (rel err <= 0.1).  Slam's come from the stats
   reply, which reads the same registry buckets in process, so the gate
   compares the exposition's parse with an in-process read of one
   store: it catches exporter and parser faults, not bucket error (the
   obs.registry tests check that against exact samples). *)

module Daemon = Rbb_serve.Daemon
module Client = Rbb_serve.Client
module Slam = Rbb_serve.Slam
module Protocol = Rbb_serve.Protocol
module Registry = Rbb_obs.Registry
module Prometheus = Rbb_obs.Prometheus

let json_path = "BENCH_obs.json"

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let spawn_daemon cfg =
  match Unix.fork () with
  | 0 ->
      (try Daemon.run cfg with _ -> ());
      Stdlib.exit 0
  | pid -> pid

let graceful_stop ~socket pid =
  let c = Client.connect ~socket () in
  Client.shutdown c;
  Client.close c;
  ignore (Unix.waitpid [] pid)

(* Phase 1 ------------------------------------------------------------ *)

let ns_per_op ~ops f =
  let t0 = Unix.gettimeofday () in
  for i = 1 to ops do
    f i
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int ops

let registry_micro ~quick =
  let ops = if quick then 50_000 else 500_000 in
  let r = Registry.create () in
  let labels = [ ("outcome", "ok") ] in
  let incr_ns = ns_per_op ~ops (fun _ -> Registry.incr r "bench_total") in
  let gauge_ns =
    ns_per_op ~ops (fun i -> Registry.set_gauge r "bench_gauge" (float_of_int i))
  in
  let observe_ns =
    ns_per_op ~ops (fun i ->
        Registry.observe r ~labels "bench_seconds" (float_of_int i *. 1e-6))
  in
  let noop_ns =
    ns_per_op ~ops (fun i ->
        Registry.observe Registry.noop ~labels "bench_seconds"
          (float_of_int i *. 1e-6))
  in
  Printf.printf
    "registry: incr %.0f ns/op, set_gauge %.0f ns/op, observe %.0f ns/op, \
     noop observe %.1f ns/op\n\
     %!"
    incr_ns gauge_ns observe_ns noop_ns;
  (incr_ns, gauge_ns, observe_ns, noop_ns)

(* Phase 2 ------------------------------------------------------------ *)

let quantile_of_sorted a q =
  let len = Array.length a in
  if len = 0 then nan
  else a.(Stdlib.min (len - 1) (int_of_float (q *. float_of_int len)))

let run ?(quick = false) () =
  Printf.printf
    "\n=== OBS: registry overhead + scrape latency under slam load ===\n\n%!";
  let incr_ns, gauge_ns, observe_ns, noop_ns = registry_micro ~quick in
  let dir = temp_dir "rbb_bench_obs" in
  let socket = Filename.concat dir "obs.sock" in
  let cfg =
    {
      (Daemon.default_config ~socket ~state_dir:(Filename.concat dir "obs"))
      with
      Daemon.queue_depth = 32;
    }
  in
  let pid = spawn_daemon cfg in
  (* Concurrent scraper: one connection, a scrape every 20 ms until the
     slam finishes, each round trip timed. *)
  let stop = Atomic.make false in
  let scraper =
    Domain.spawn (fun () ->
        let c = Client.connect ~socket ~max_frame:(1 lsl 22) () in
        let lat = ref [] in
        while not (Atomic.get stop) do
          let t0 = Unix.gettimeofday () in
          let body = Client.metrics c in
          let dt = Unix.gettimeofday () -. t0 in
          if String.length body > 0 then lat := dt :: !lat;
          Unix.sleepf 0.02
        done;
        Client.close c;
        !lat)
  in
  let jobs = if quick then 20 else 150 in
  let slam =
    Slam.run
      {
        Slam.socket;
        jobs;
        rate = 0.;
        rho_target = 0.6;
        calibrate = if quick then 2 else 5;
        spec =
          {
            Protocol.n = 128;
            m = 128;
            rounds = (if quick then 500 else 2000);
            seed = 42;
            init = "uniform";
            engine = Protocol.Balls;
            deadline_s = infinity;
          };
        arrival_seed = 2026;
        workers = cfg.Daemon.workers;
      }
  in
  Atomic.set stop true;
  let scrape_lat = Domain.join scraper in
  (* Final scrape after the drain: the slam's reset-stats zeroed both
     the admission counters and the registry histograms, so this body
     covers exactly the measured window's jobs. *)
  let c = Client.connect ~socket ~max_frame:(1 lsl 22) () in
  let body = Client.metrics c in
  Client.close c;
  graceful_stop ~socket pid;
  (* Merged over outcomes, as the stats reply reads it. *)
  let scraped q =
    match Prometheus.scraped_quantile body "rbb_job_sojourn_seconds" q with
    | Some v -> v
    | None -> failwith "obs bench: no rbb_job_sojourn_seconds in the scrape"
  in
  let scraped_p50 = scraped 0.5 and scraped_p99 = scraped 0.99 in
  let rel a b = Float.abs (a -. b) /. Float.max b 1e-9 in
  let err_p50 = rel scraped_p50 slam.Slam.sojourn_p50_s in
  let err_p99 = rel scraped_p99 slam.Slam.sojourn_p99_s in
  let lat = Array.of_list scrape_lat in
  Array.sort compare lat;
  let lat_p50 = quantile_of_sorted lat 0.5 in
  let lat_max = if Array.length lat = 0 then nan else lat.(Array.length lat - 1) in
  Printf.printf
    "scrape  : %d scrapes under load, round trip p50 %.2f ms, max %.2f ms\n\
     sojourn : scraped p50 %.2f ms vs slam %.2f ms (rel err %.3f)\n\
    \          scraped p99 %.2f ms vs slam %.2f ms (rel err %.3f)\n\
     %!"
    (Array.length lat) (lat_p50 *. 1e3) (lat_max *. 1e3) (scraped_p50 *. 1e3)
    (slam.Slam.sojourn_p50_s *. 1e3)
    err_p50 (scraped_p99 *. 1e3)
    (slam.Slam.sojourn_p99_s *. 1e3)
    err_p99;
  (* The agreement gate.  Both sides read the same buckets; only the
     exposition's %.9g rendering of bucket bounds separates them. *)
  if err_p50 > 0.1 || err_p99 > 0.1 then
    failwith
      (Printf.sprintf
         "obs bench: scraped sojourn quantiles disagree with slam's measured \
          quantiles (p50 rel err %.3f, p99 rel err %.3f, gate 0.1)"
         err_p50 err_p99);
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"obs\",\n\
    \  \"quick\": %b,\n\
    \  \"registry_ns_per_op\": {\n\
    \    \"incr\": %.1f,\n\
    \    \"set_gauge\": %.1f,\n\
    \    \"observe\": %.1f,\n\
    \    \"noop_observe\": %.2f\n\
    \  },\n\
    \  \"scrape\": {\n\
    \    \"count\": %d,\n\
    \    \"latency_p50_s\": %.6f,\n\
    \    \"latency_max_s\": %.6f\n\
    \  },\n\
    \  \"sojourn_agreement\": {\n\
    \    \"scraped_p50_s\": %.6f,\n\
    \    \"slam_p50_s\": %.6f,\n\
    \    \"p50_rel_err\": %.4f,\n\
    \    \"scraped_p99_s\": %.6f,\n\
    \    \"slam_p99_s\": %.6f,\n\
    \    \"p99_rel_err\": %.4f,\n\
    \    \"gate\": 0.1\n\
    \  },\n\
    \  \"slam\": %s\n\
     }\n"
    quick incr_ns gauge_ns observe_ns noop_ns (Array.length lat) lat_p50 lat_max
    scraped_p50 slam.Slam.sojourn_p50_s err_p50 scraped_p99
    slam.Slam.sojourn_p99_s err_p99
    (Rbb_sim.Jsonl.obj (Slam.to_fields slam));
  close_out oc;
  Printf.printf "wrote %s\n%!" json_path

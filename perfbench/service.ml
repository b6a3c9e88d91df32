(* The service path, measured from a client: a forked rbb serve daemon
   (Daemon.default_config: one worker, checkpoint every 256 rounds) fed
   by a closed loop that keeps 2 jobs in the system, so one always
   waits.  One connection submits; a second one subscribes, and a job's
   completion time is the arrival of its "done" event, not a result
   poll. *)

open Measure
module Daemon = Rbb_serve.Daemon
module Client = Rbb_serve.Client
module Protocol = Rbb_serve.Protocol
module Job = Rbb_serve.Job
module Jsonl = Rbb_sim.Jsonl

type daemon = { pid : int; socket : string }

(* Fork a daemon and wait until it answers a ping.  OCaml 5 forbids
   fork once a domain has been spawned, so every daemon of a run is
   started before the engines are built. *)
let start ~dir ~tag =
  let state_dir = Filename.concat dir tag in
  let socket = Filename.concat dir (tag ^ ".sock") in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        try
          Daemon.run (Daemon.default_config ~socket ~state_dir);
          0
        with e ->
          Printf.eprintf "perfbench: daemon: %s\n%!" (Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid ->
      let c = Client.connect ~retry_for:30. ~socket () in
      Client.ping c;
      Client.close c;
      { pid; socket }

let stop d =
  (try
     let c = Client.connect ~socket:d.socket () in
     Client.shutdown c;
     Client.close c
   with Failure _ -> Unix.kill d.pid Sys.sigkill);
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> gate "daemon exits cleanly" false

(* Jobs are per-ball, n = 128, 500 rounds: about 8 ms of service, so two
   of them fit well inside the daemon's 50 ms select tick.  At 2000
   rounds two jobs took about one tick, and sojourn p50 flipped between
   one tick and two from run to run. *)
let job_spec ~seed =
  {
    Protocol.n = 128;
    m = 128;
    rounds = 500;
    seed;
    init = "uniform";
    engine = Protocol.Balls;
    deadline_s = infinity;
  }

let in_flight = 2

(* p95 is the highest percentile with at least ten samples beyond it
   only from 200 jobs on. *)
let min_jobs = 200

(* Results re-derived in-process and compared byte for byte. *)
let replays = 3

let checkpoint_every = (Daemon.default_config ~socket:"" ~state_dir:"").checkpoint_every

let stat fields name =
  match Jsonl.find_float fields name with Some s -> s *. 1e3 | None -> nan

(* In-process Submit round trip through the codecs, in microseconds per
   frame (batches of 100 frames, median batch). *)
let frame_us spec =
  let req = Protocol.Submit spec in
  let batch () =
    time_ms (fun () ->
        for _ = 1 to 100 do
          let frame = Protocol.encode_frame (Protocol.request_to_json req) in
          match
            Protocol.extract ~max_frame:Protocol.default_max_frame frame
          with
          | Protocol.Frame { payload; _ } -> (
              match Protocol.request_of_json payload with
              | Ok r -> if r <> req then gate "Submit frame round-trips" false
              | Error e -> gate ("Submit frame decodes: " ^ e) false)
          | _ -> gate "Submit frame extracts" false
        done)
  in
  Samples.median (repeat 50 batch) *. 10.

(* Submit [job k] for the [k]-th job, for [seconds] and until [min_jobs]
   have finished. *)
let run ~dir ~trace ~seconds ~job d =
  let sub = Client.connect ~max_frame:(1 lsl 24) ~socket:d.socket () in
  let ev = Client.connect ~socket:d.socket () in
  Client.subscribe ev ();
  Client.reset_stats sub;
  let sent = Hashtbl.create 1024 in
  let finished = ref [] in
  let submit_ms = Samples.create () and sojourn = Samples.create () in
  let next = ref 0 and outstanding = ref 0 and failed = ref 0 in
  let finished_count = ref 0 in
  let t0 = now () in
  let last = ref t0 in
  let submit () =
    let spec = job !next in
    incr next;
    let ts = now () in
    match Client.submit sub spec with
    | `Accepted id ->
        Samples.add submit_ms (ms_since ts);
        Hashtbl.replace sent id (ts, spec);
        incr outstanding
    | `Rejected _ -> incr failed
    | exception Failure e ->
        log "submit: %s" e;
        incr failed
  in
  let more () =
    ms_since t0 < seconds *. 1e3 || !finished_count + !failed < min_jobs
  in
  for _ = 1 to in_flight do
    submit ()
  done;
  while !outstanding > 0 do
    let e = Client.next_event ev in
    match (e.Protocol.ev, Hashtbl.find_opt sent e.Protocol.id) with
    | ("done" | "failed"), Some (ts, spec) ->
        decr outstanding;
        last := now ();
        if e.Protocol.ev = "done" then begin
          Samples.add sojourn (ms_since ts);
          incr finished_count;
          finished := (e.Protocol.id, spec) :: !finished
        end
        else incr failed;
        if more () then submit ()
    | _ -> ()
  done;
  let window_s = Int64.to_float (Int64.sub !last t0) /. 1e9 in
  let stats = Client.stats sub in
  let finished = List.rev !finished in
  (* Every finished job must have published its result. *)
  let bodies =
    List.filter_map
      (fun (id, spec) ->
        match Client.request sub (Protocol.Result id) with
        | Protocol.Job_result { body; _ } -> Some (id, spec, body)
        | _ ->
            incr failed;
            gate ("job " ^ id ^ " delivers a result") false;
            None)
      finished
  in
  (* A sample of results must be byte-identical to an in-process Job.run
     of the same spec under the same id. *)
  let run_ms = Samples.create () in
  let nb = List.length bodies in
  List.iteri
    (fun i (id, spec, body) ->
      if i mod max 1 (nb / replays) = 0 then begin
        let state_dir = Filename.concat dir ("replay-" ^ id) in
        Unix.mkdir state_dir 0o755;
        let fields, ms =
          timed (fun () -> Job.run ~state_dir ~checkpoint_every ~id spec)
        in
        Samples.add run_ms ms;
        gate
          ("job " ^ id ^ " result equals an in-process Job.run")
          (String.equal (Job.result_body fields) body)
      end)
    bodies;
  let attempted = !next in
  let sojourn_p50 = Samples.median sojourn in
  gate "at least 200 jobs finish, so p95 has ten samples beyond it"
    (Samples.count sojourn >= min_jobs);
  let layer =
    if not trace then []
    else begin
      let spec = job 0 in
      let submit_p50 = Samples.median submit_ms in
      let daemon_sojourn = stat stats "sojourn_p50_s" in
      let wait = stat stats "wait_p50_s" and service = stat stats "service_p50_s" in
      let notify = sojourn_p50 -. submit_p50 -. daemon_sojourn in
      (* The job's parts, replayed in-process: Job.run's engine loop
         (one probed round at a time) with no I/O, one checkpoint save at
         the job's size, one spec write. *)
      let engine () =
        Rbb_core.Process.create
          ~rng:(Rbb_prng.Rng.create ~seed:(Int64.of_int spec.seed) ())
          ~init:(Rbb_core.Config.uniform ~n:spec.n)
          ()
      in
      let compute =
        repeat 5 (fun () ->
            let probe = Rbb_sim.Telemetry.probe (Rbb_sim.Telemetry.create ()) in
            let p = engine () in
            time_ms (fun () ->
                for _ = 1 to spec.rounds do
                  Rbb_core.Process.run ~probe p ~rounds:1
                done))
      in
      let parts_dir = Filename.concat dir "replay-parts" in
      Unix.mkdir parts_dir 0o755;
      let p = engine () in
      let ckpt = Filename.concat parts_dir "job.ckpt" in
      let save =
        repeat 20 (fun () ->
            time_ms (fun () ->
                Rbb_sim.Checkpoint.save ~path:ckpt
                  (Rbb_sim.Checkpoint.capture_process p)))
      in
      let spec_write =
        repeat 20 (fun () ->
            time_ms (fun () -> Job.write_spec ~state_dir:parts_dir ~id:"spec" spec))
      in
      let scrape = repeat 5 (fun () -> time_ms (fun () -> ignore (Client.metrics sub))) in
      let run = Samples.median run_ms and compute = Samples.median compute in
      let saves = (spec.rounds - 1) / checkpoint_every in
      [
        m "protocol.frame_us" "us" (frame_us spec);
        m "serve.submit_ms" "ms" submit_p50;
        m "serve.wait_ms" "ms" wait;
        m "serve.service_ms" "ms" service;
        m "serve.notify_ms" "ms" notify;
        m "serve.sojourn_residual" "ratio"
          ((submit_p50 +. wait +. service +. notify) /. sojourn_p50 -. 1.);
        m "failed_frac" "ratio" (float_of_int !failed /. float_of_int attempted);
        m "job.run_ms" "ms" run;
        m "job.compute_ms" "ms" compute;
        m "job.ckpt_save_ms" "ms" (float_of_int saves *. Samples.median save);
        m "job.spec_write_ms" "ms" (Samples.median spec_write);
        m "job.storage_share" "ratio" ((run -. compute) /. run);
        m "obs.scrape_ms" "ms" (Samples.median scrape);
      ]
    end
  in
  Client.close ev;
  Client.close sub;
  {
    e2e =
      [
        m "jobs_per_s" "1/s" (float_of_int !finished_count /. window_s);
        m "sojourn_p50_ms" "ms" sojourn_p50;
        m "sojourn_p95_ms" "ms" (Samples.quantile sojourn 0.95);
      ];
    layer;
    attempted;
    failed = !failed;
  }

(* The serve daemon: a select-driven event loop on the calling domain
   (socket I/O, admission decisions, event fan-out) plus a worker pool
   hosted on Parallel.map_domains (one long-lived task per worker).
   All cross-domain traffic funnels through Admission's queue and one
   daemon mutex guarding job states + the event queue. *)

module Jsonl = Rbb_sim.Jsonl
module Fileio = Rbb_sim.Fileio
module Failpoint = Rbb_sim.Failpoint
module Registry = Rbb_obs.Registry
module Prometheus = Rbb_obs.Prometheus

type config = {
  socket : string;
  state_dir : string;
  workers : int;
  queue_depth : int;
  checkpoint_every : int;
  max_frame : int;
  log : out_channel option;
  io_failpoints : Failpoint.t;
}

let default_config ~socket ~state_dir =
  {
    socket;
    state_dir;
    workers = 1;
    queue_depth = 16;
    checkpoint_every = 256;
    max_frame = Protocol.default_max_frame;
    log = None;
    io_failpoints = Failpoint.noop;
  }

type job_state =
  | Queued
  | Running of int
  | Finished of int
  | Failed of int * string  (** last checkpointed round, error detail *)

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : string;
  mutable outbuf : string;
  mutable discard : int;  (** oversized-frame payload bytes left to swallow *)
  mutable sub : string option option;
      (** [None] no subscription; [Some None] all jobs; [Some (Some id)] *)
  mutable close_after_flush : bool;
  mutable alive : bool;
}

type t = {
  cfg : config;
  admission : Admission.t;
  registry : Registry.t;
      (** every counter and histogram the daemon keeps; locks itself *)
  lock : Mutex.t;
      (** guards [states], [events], [workers_live] and [deadlines] *)
  states : (string, job_state) Hashtbl.t;
  events : Protocol.event Queue.t;
  deadlines : (string, float * bool Atomic.t) Hashtbl.t;
      (** running jobs with a finite deadline: absolute monotonic expiry
          plus the cancel flag the owning worker polls each round *)
  mutable workers_live : int;
  (* event-loop-domain state: *)
  mutable draining : bool;
  mutable next_id : int;
  mutable conns : conn list;
  mutable completed_this_run : int;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_state t id st = with_lock t (fun () -> Hashtbl.replace t.states id st)
let get_state t id = with_lock t (fun () -> Hashtbl.find_opt t.states id)
let push_event t ev = with_lock t (fun () -> Queue.add ev t.events)

let drain_events t =
  with_lock t (fun () ->
      let evs = List.of_seq (Queue.to_seq t.events) in
      Queue.clear t.events;
      evs)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let logf t fmt =
  Printf.ksprintf
    (fun line ->
      match t.cfg.log with
      | None -> ()
      | Some oc ->
          output_string oc line;
          output_char oc '\n';
          flush oc)
    fmt

(* Workers ------------------------------------------------------------- *)

(* Count a finished job and record its latencies.  The registry's
   per-job histograms, labeled by outcome, are the one store of job
   latencies: the stats reply and the exposition both read them, so
   they cannot disagree.  Every duration comes from Admission's stamps,
   the completion time included.  A stats reply that lands between
   note_done and the observations counts the job before its latencies
   show; the done and failed events are pushed after both. *)
let observe_job t entry ~ok ~outcome =
  let now = Admission.note_done t.admission entry ~ok in
  let sec a b = Int64.to_float (Int64.sub a b) /. 1e9 in
  let labels = [ ("outcome", outcome) ] in
  Registry.observe t.registry ~labels "rbb_job_wait_seconds"
    (sec entry.Admission.t_start entry.Admission.t_submit);
  Registry.observe t.registry ~labels "rbb_job_service_seconds"
    (sec now entry.Admission.t_start);
  Registry.observe t.registry ~labels "rbb_job_sojourn_seconds"
    (sec now entry.Admission.t_submit)

(* Register a running job with the deadline watchdog.  The returned
   [should_stop] closure is what Job.run polls each round; the watchdog
   (event-loop domain) flips the flag once the wall clock passes the
   absolute expiry, so enforcement needs no per-round clock reads in
   the worker and one source of truth decides lateness. *)
let arm_deadline t ~id spec =
  let deadline_s = spec.Protocol.deadline_s in
  if not (Float.is_finite deadline_s) then fun () -> None
  else begin
    let flag = Atomic.make false in
    with_lock t (fun () ->
        Hashtbl.replace t.deadlines id (now_s () +. deadline_s, flag));
    fun () ->
      if Atomic.get flag then
        Some
          (Printf.sprintf "deadline of %ss exceeded"
             (Jsonl.float_repr deadline_s))
      else None
  end

let disarm_deadline t ~id = with_lock t (fun () -> Hashtbl.remove t.deadlines id)

let fail_job t entry ~round ~detail ~outcome =
  let id = entry.Admission.id in
  observe_job t entry ~ok:false ~outcome;
  Registry.incr t.registry "serve.failed_total";
  (* Durable failure record: without it, scan would resubmit the job on
     every restart and it would re-fail forever. *)
  (try Job.write_failed ~state_dir:t.cfg.state_dir ~id ~round ~detail
   with Sys_error _ | Unix.Unix_error _ | Failpoint.Injected _ -> ());
  set_state t id (Failed (round, detail));
  push_event t { Protocol.ev = "failed"; id; round; detail }

let worker_loop t _w =
  let rec go () =
    match Admission.pop t.admission with
    | None -> ()
    | Some entry ->
        let id = entry.Admission.id in
        Admission.note_started t.admission entry;
        Registry.incr t.registry "serve.started_total";
        set_state t id (Running 0);
        push_event t { Protocol.ev = "started"; id; round = 0; detail = "" };
        let last_round = ref 0 in
        let should_stop = arm_deadline t ~id entry.Admission.spec in
        (match
           Job.run
             ~on_progress:(fun ~round ->
               last_round := round;
               set_state t id (Running round);
               push_event t
                 { Protocol.ev = "checkpoint"; id; round; detail = "" })
             ~on_quarantine:(fun ~path ~reason ->
               Registry.incr t.registry "rbb_quarantined_total";
               push_event t
                 {
                   Protocol.ev = "quarantined";
                   id;
                   round = 0;
                   detail = Printf.sprintf "%s: %s" path reason;
                 })
             ~on_save_error:(fun ~round:_ ~error:_ ->
               Registry.incr t.registry "serve.checkpoint_save_errors_total")
             ~should_stop ~state_dir:t.cfg.state_dir
             ~checkpoint_every:t.cfg.checkpoint_every ~id entry.Admission.spec
         with
        | (_ : (string * Jsonl.value) list) ->
            disarm_deadline t ~id;
            observe_job t entry ~ok:true ~outcome:"ok";
            Registry.incr t.registry "serve.completed_total";
            let rounds = entry.Admission.spec.Protocol.rounds in
            set_state t id (Finished rounds);
            push_event t { Protocol.ev = "done"; id; round = rounds; detail = "" }
        | exception Job.Canceled { round; reason; _ } ->
            disarm_deadline t ~id;
            Registry.incr t.registry "rbb_jobs_deadlined_total";
            fail_job t entry ~round ~detail:reason ~outcome:"deadline"
        | exception e ->
            disarm_deadline t ~id;
            fail_job t entry ~round:!last_round
              ~detail:(Printexc.to_string e) ~outcome:"error");
        go ()
  in
  Fun.protect
    ~finally:(fun () ->
      with_lock t (fun () -> t.workers_live <- t.workers_live - 1))
    go

(* Stats --------------------------------------------------------------- *)

(* One job histogram merged over outcomes, read once per reply: mean,
   p50 and p99 from the buckets a scraper sees.  Absent until a job
   finishes, and again after reset-stats. *)
let latency_fields t name =
  match
    Registry.family_histogram t.registry ("rbb_job_" ^ name ^ "_seconds")
  with
  | None -> []
  | Some h ->
      let q p =
        Jsonl.Float (Option.get (Registry.histogram_quantile h p))
      in
      [
        (name ^ "_mean_s", Jsonl.Float (h.sum /. float_of_int h.count));
        (name ^ "_p50_s", q 0.5);
        (name ^ "_p99_s", q 0.99);
      ]

(* The arrival window in seconds and the estimated arrival rate λ̂ over
   it, once two arrivals span a positive window. *)
let arrival_rate s =
  let window_ns =
    Int64.to_float (Int64.sub s.Admission.last_arrival s.Admission.first_arrival)
  in
  if s.Admission.arrivals >= 2 && window_ns > 0. then
    let window_s = window_ns /. 1e9 in
    Some (window_s, float_of_int (s.Admission.arrivals - 1) /. window_s)
  else None

let counter_field t name =
  Jsonl.Int (int_of_float (Registry.counter_value t.registry name))

let stats_fields t =
  let s = Admission.stats t.admission in
  let rate_fields =
    match arrival_rate s with
    | Some (window_s, lambda_hat) ->
        [
          ("arrival_window_s", Jsonl.Float window_s);
          ("lambda_hat_per_s", Jsonl.Float lambda_hat);
        ]
    | None -> []
  in
  [
    ("workers", Jsonl.Int t.cfg.workers);
    ("queue_depth", Jsonl.Int t.cfg.queue_depth);
    ("queue_len", Jsonl.Int s.Admission.queue_len);
    ("arrivals", Jsonl.Int s.Admission.arrivals);
    ("rejected", Jsonl.Int s.Admission.rejected);
    ("started", Jsonl.Int s.Admission.started);
    ("completed", Jsonl.Int s.Admission.completed);
    ("failed", Jsonl.Int s.Admission.failed);
    ("deadlined", counter_field t "rbb_jobs_deadlined_total");
    ("quarantined", counter_field t "rbb_quarantined_total");
    ("io_faults_injected", Jsonl.Int (Fileio.injected_faults ()));
  ]
  @ rate_fields
  @ latency_fields t "wait"
  @ latency_fields t "service"
  @ latency_fields t "sojourn"

(* Bring the registry's gauges and Admission-derived counters up to
   date before every exposition.  Everything here is set-semantics, so
   refreshing is idempotent; the lifetime counters and the job
   histograms are pushed where their events happen. *)
let refresh_registry t =
  let r = t.registry in
  let s = Admission.stats t.admission in
  Registry.set_gauge r "rbb_workers" (float_of_int t.cfg.workers);
  Registry.set_gauge r "rbb_queue_capacity" (float_of_int t.cfg.queue_depth);
  Registry.set_gauge r "rbb_queue_len" (float_of_int s.Admission.queue_len);
  Registry.set_gauge r "rbb_jobs_running"
    (float_of_int (s.Admission.started - s.Admission.completed - s.Admission.failed));
  Registry.set_counter r "rbb_jobs_accepted_total"
    (float_of_int s.Admission.arrivals);
  Registry.set_counter r "rbb_jobs_rejected_total"
    (float_of_int s.Admission.rejected);
  Registry.set_counter r "rbb_jobs_started_total"
    (float_of_int s.Admission.started);
  Registry.set_counter r "rbb_jobs_completed_total"
    (float_of_int s.Admission.completed);
  Registry.set_counter r "rbb_jobs_failed_total"
    (float_of_int s.Admission.failed);
  Registry.set_counter r "rbb_io_faults_injected_total"
    (float_of_int (Fileio.injected_faults ()));
  let lambda_hat =
    match arrival_rate s with Some (_, lambda_hat) -> lambda_hat | None -> 0.
  in
  Registry.set_gauge r "rbb_lambda_hat_per_s" lambda_hat;
  let mu_hat =
    match Registry.family_histogram r "rbb_job_service_seconds" with
    | Some h when h.sum > 0. -> float_of_int h.count /. h.sum
    | Some _ | None -> 0.
  in
  Registry.set_gauge r "rbb_mu_hat_per_s" mu_hat;
  Registry.set_gauge r "rbb_utilization"
    (if mu_hat > 0. then
       lambda_hat /. (float_of_int t.cfg.workers *. mu_hat)
     else 0.)

let metrics_body t =
  refresh_registry t;
  Prometheus.render_registry t.registry

(* Requests ------------------------------------------------------------ *)

let read_result t id =
  let path = Job.result_path ~state_dir:t.cfg.state_dir ~id in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> try Some (input_line ic) with End_of_file -> None)

let result_rounds body =
  match Jsonl.parse body with
  | None -> 0
  | Some fields -> Option.value ~default:0 (Jsonl.find_int fields "rounds")

let dispatch t conn req =
  match (req : Protocol.request) with
  | Ping -> [ Protocol.Pong ]
  | Submit spec ->
      if t.draining then
        [
          Protocol.Error_reply
            { code = "shutting_down"; message = "daemon is draining" };
        ]
      else begin
        (* The full-queue decision is one atomic re-check-and-count:
           workers pop concurrently, so a separate fullness probe
           followed by a counting submit could land in a freed slot and
           enqueue a phantom job. *)
        match Admission.try_reject t.admission with
        | Some retry_after_ms ->
            Registry.incr t.registry "serve.rejected_total";
            [
              Protocol.Rejected
                { retry_after_ms; queue_depth = t.cfg.queue_depth };
            ]
        | None -> (
            (* Publish everything about the job — durable spec, state,
               lifecycle event — before the entry becomes poppable, so no
               worker can emit "started" ahead of our "accepted". *)
            let id = Job.fresh_id t.next_id in
            t.next_id <- t.next_id + 1;
            match Job.write_spec ~state_dir:t.cfg.state_dir ~id spec with
            | exception e ->
                (* The spec never became durable, so the job must not be
                   acknowledged: an ack is a promise the job survives a
                   crash.  The id is burned, nothing else happened. *)
                Registry.incr t.registry "serve.spec_write_errors_total";
                [
                  Protocol.Error_reply
                    {
                      code = "io_error";
                      message =
                        Printf.sprintf "could not persist job spec: %s"
                          (Printexc.to_string e);
                    };
                ]
            | () ->
            set_state t id Queued;
            Registry.incr t.registry "serve.accepted_total";
            push_event t { Protocol.ev = "accepted"; id; round = 0; detail = "" };
            match Admission.submit t.admission ~id ~spec with
            | `Accepted queue_depth -> [ Protocol.Accepted { id; queue_depth } ]
            | `Rejected _ ->
                (* Unreachable: try_reject saw room, only this thread
                   enqueues, pops only shrink the queue, and close is
                   issued from this thread too. *)
                assert false)
      end
  | Status id -> (
      match get_state t id with
      | Some Queued -> [ Protocol.Job_status { id; state = "queued"; round = 0 } ]
      | Some (Running round) ->
          [ Protocol.Job_status { id; state = "running"; round } ]
      | Some (Finished round) ->
          [ Protocol.Job_status { id; state = "done"; round } ]
      | Some (Failed (round, _)) ->
          [ Protocol.Job_status { id; state = "failed"; round } ]
      | None -> (
          (* Not in this daemon's memory — but a previous life may have
             finished (or failed) it: the result file and the failure
             marker are the durable records. *)
          match read_result t id with
          | Some body ->
              [
                Protocol.Job_status
                  { id; state = "done"; round = result_rounds body };
              ]
          | None -> (
              match Job.read_failed ~state_dir:t.cfg.state_dir ~id with
              | Some (round, _) ->
                  [ Protocol.Job_status { id; state = "failed"; round } ]
              | None ->
                  [
                    Protocol.Error_reply
                      {
                        code = "unknown_job";
                        message = Printf.sprintf "no job %S" id;
                      };
                  ])))
  | Result id -> (
      match read_result t id with
      | Some body -> [ Protocol.Job_result { id; body } ]
      | None -> (
          match get_state t id with
          | Some (Failed (_, detail)) ->
              [ Protocol.Error_reply { code = "job_failed"; message = detail } ]
          | Some Queued -> [ Protocol.Job_status { id; state = "queued"; round = 0 } ]
          | Some (Running round) ->
              [ Protocol.Job_status { id; state = "running"; round } ]
          | Some (Finished round) ->
              (* done-state seen but the result read raced the rename;
                 report status, the client will re-ask. *)
              [ Protocol.Job_status { id; state = "done"; round } ]
          | None -> (
              match Job.read_failed ~state_dir:t.cfg.state_dir ~id with
              | Some (_, detail) ->
                  [
                    Protocol.Error_reply
                      { code = "job_failed"; message = detail };
                  ]
              | None ->
                  [
                    Protocol.Error_reply
                      {
                        code = "unknown_job";
                        message = Printf.sprintf "no job %S" id;
                      };
                  ])))
  | Subscribe sel ->
      conn.sub <- Some sel;
      [ Protocol.Ok_reply ]
  | Stats -> [ Protocol.Stats_reply (stats_fields t) ]
  | Metrics -> [ Protocol.Metrics_reply { body = metrics_body t } ]
  | Reset_stats ->
      Admission.reset_stats t.admission;
      (* The job histograms are the stats reply's latencies: they must
         cover the same window as Admission's counters, or a slam run
         would mix settle-phase jobs into its measured quantiles. *)
      Registry.reset_histograms t.registry;
      [ Protocol.Ok_reply ]
  | Shutdown ->
      if not t.draining then begin
        t.draining <- true;
        Admission.close t.admission;
        logf t "rbb serve: draining";
        Registry.incr t.registry "serve.shutdown_requests_total"
      end;
      [ Protocol.Ok_reply ]

let handle t conn payload =
  match Jsonl.parse payload with
  | None ->
      [
        Protocol.Error_reply
          {
            code = "bad_json";
            message = "payload is not a flat JSON object";
          };
      ]
  | Some _ -> (
      match Protocol.request_of_json payload with
      | Error message ->
          [ Protocol.Error_reply { code = "bad_request"; message } ]
      | Ok req -> dispatch t conn req)

(* Connections --------------------------------------------------------- *)

let send conn resp =
  conn.outbuf <-
    conn.outbuf ^ Protocol.encode_frame (Protocol.response_to_json resp)

let kill conn =
  if conn.alive then begin
    conn.alive <- false;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let drop_prefix s n = String.sub s n (String.length s - n)

let rec process t conn =
  if conn.discard > 0 then begin
    let take = min conn.discard (String.length conn.inbuf) in
    conn.inbuf <- drop_prefix conn.inbuf take;
    conn.discard <- conn.discard - take;
    if conn.discard = 0 then process t conn
  end
  else if not conn.close_after_flush then
    match Protocol.extract ~max_frame:t.cfg.max_frame conn.inbuf with
    | Protocol.Need_more -> ()
    | Protocol.Frame { payload; consumed } ->
        conn.inbuf <- drop_prefix conn.inbuf consumed;
        List.iter (send conn) (handle t conn payload);
        process t conn
    | Protocol.Skip { consumed; discard; error } ->
        conn.inbuf <- drop_prefix conn.inbuf consumed;
        conn.discard <- discard;
        Registry.incr t.registry "serve.frames_oversized_total";
        send conn
          (Protocol.Error_reply { code = error.code; message = error.message });
        process t conn
    | Protocol.Corrupt error ->
        conn.inbuf <- "";
        Registry.incr t.registry "serve.frames_corrupt_total";
        send conn
          (Protocol.Error_reply { code = error.code; message = error.message });
        conn.close_after_flush <- true

let try_read t conn =
  let buf = Bytes.create 4096 in
  match Unix.read conn.fd buf 0 (Bytes.length buf) with
  | 0 -> kill conn
  | n ->
      conn.inbuf <- conn.inbuf ^ Bytes.sub_string buf 0 n;
      process t conn
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> kill conn

let try_write conn =
  if conn.alive && conn.outbuf <> "" then
    match
      Unix.write_substring conn.fd conn.outbuf 0 (String.length conn.outbuf)
    with
    | n ->
        conn.outbuf <- drop_prefix conn.outbuf n;
        if conn.outbuf = "" && conn.close_after_flush then kill conn
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> kill conn

let broadcast t ev =
  List.iter
    (fun conn ->
      match conn.sub with
      | Some sel
        when conn.alive
             && (sel = None || sel = Some ev.Protocol.id) ->
          send conn (Protocol.Event ev)
      | _ -> ())
    t.conns

(* Startup / shutdown -------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let listen_socket path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.bind fd (ADDR_UNIX path);
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  fd

let run cfg =
  if cfg.workers < 1 then invalid_arg "Daemon.run: workers must be at least 1";
  if cfg.queue_depth < 1 then
    invalid_arg "Daemon.run: queue-depth must be at least 1";
  if cfg.checkpoint_every < 1 then
    invalid_arg "Daemon.run: checkpoint-every must be at least 1";
  if cfg.max_frame < 1 then
    invalid_arg "Daemon.run: max-frame must be at least 1";
  mkdir_p cfg.state_dir;
  let lock =
    match
      Fileio.acquire_lock ~path:(Filename.concat cfg.state_dir "daemon.lock") ()
    with
    | Ok lock -> lock
    | Error e -> invalid_arg e
  in
  (* Arm the I/O fault plane only after the daemon owns its lock: chaos
     campaigns want startup to succeed and the *serving* daemon's
     writes to trip. *)
  Fileio.set_failpoints cfg.io_failpoints;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let registry = Registry.create () in
  List.iter
    (fun (name, text) -> Registry.help registry ~name text)
    [
      ("rbb_job_wait_seconds", "Queue wait per job, admission to start.");
      ("rbb_job_service_seconds", "Service time per job, start to done.");
      ("rbb_job_sojourn_seconds", "Total time in system per job.");
      ("rbb_queue_len", "Jobs waiting in the admission queue.");
      ("rbb_jobs_running", "Jobs currently being served.");
      ("rbb_utilization", "Estimated rho = lambda / (c * mu).");
      ("rbb_jobs_rejected_total", "Jobs turned away by admission control.");
    ];
  (* Present from the first scrape on, even while still zero. *)
  Registry.add registry "rbb_quarantined_total" 0.;
  Registry.add registry "rbb_jobs_deadlined_total" 0.;
  let t =
    {
      cfg;
      admission = Admission.create ~depth:cfg.queue_depth ~servers:cfg.workers ();
      registry;
      lock = Mutex.create ();
      states = Hashtbl.create 64;
      events = Queue.create ();
      deadlines = Hashtbl.create 8;
      workers_live = cfg.workers;
      draining = false;
      next_id = 1;
      conns = [];
      completed_this_run = 0;
    }
  in
  logf t "rbb serve: state dir %s" cfg.state_dir;
  (* Crash recovery: anything with a spec but no result was admitted by
     a previous life of this daemon and must be finished. *)
  let pending, next =
    Job.scan
      ~on_quarantine:(fun ~id ~reason ->
        Registry.incr t.registry "rbb_quarantined_total";
        set_state t id (Failed (0, reason));
        push_event t
          { Protocol.ev = "quarantined"; id; round = 0; detail = reason };
        logf t "rbb serve: quarantined spec of %s (%s)" id reason)
      ~state_dir:cfg.state_dir ()
  in
  t.next_id <- next;
  List.iter
    (fun (id, spec) ->
      set_state t id Queued;
      push_event t { Protocol.ev = "accepted"; id; round = 0; detail = "resumed" };
      Registry.incr t.registry "serve.resumed_total";
      Admission.resubmit t.admission ~id ~spec)
    pending;
  if pending <> [] then
    logf t "rbb serve: resumed %d pending job(s)" (List.length pending);
  let events_oc =
    open_out_gen
      [ Open_append; Open_creat; Open_wronly ]
      0o644
      (Filename.concat cfg.state_dir "events.ndjson")
  in
  let listen_fd = listen_socket cfg.socket in
  logf t "rbb serve: listening on %s (workers=%d queue-depth=%d)" cfg.socket
    cfg.workers cfg.queue_depth;
  let pool =
    Domain.spawn (fun () ->
        ignore
          (Rbb_sim.Parallel.map_domains ~domains:cfg.workers ~tasks:cfg.workers
             (worker_loop t)))
  in
  let workers_done () = with_lock t (fun () -> t.workers_live = 0) in
  let accept_new () =
    let rec go () =
      match Unix.accept listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          t.conns <-
            {
              fd;
              inbuf = "";
              outbuf = "";
              discard = 0;
              sub = None;
              close_after_flush = false;
              alive = true;
            }
            :: t.conns;
          go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    in
    go ()
  in
  let pump_events () =
    match drain_events t with
    | [] -> ()
    | evs ->
        List.iter
          (fun ev ->
            if ev.Protocol.ev = "done" then
              t.completed_this_run <- t.completed_this_run + 1;
            output_string events_oc
              (Protocol.response_to_json (Protocol.Event ev));
            output_char events_oc '\n';
            broadcast t ev)
          evs;
        flush events_oc
  in
  let prom_path = Filename.concat cfg.state_dir "metrics.prom" in
  let write_prom () =
    refresh_registry t;
    Prometheus.write_file t.registry ~path:prom_path
  in
  (* Deadline watchdog: flip the cancel flag of every running job whose
     wall-clock budget has expired.  The owning worker observes the flag
     at its next round boundary and fails the job through the durable
     .failed machinery. *)
  let check_deadlines () =
    let now = now_s () in
    with_lock t (fun () ->
        Hashtbl.iter
          (fun _id (expiry, flag) -> if now >= expiry then Atomic.set flag true)
          t.deadlines)
  in
  let next_prom = ref (now_s ()) in
  let flush_spins = ref 0 in
  let rec loop () =
    pump_events ();
    check_deadlines ();
    if now_s () >= !next_prom then begin
      (* The exposition write goes through the faultable I/O shim; an
         injected (or real) failure there must not kill the daemon —
         metrics are best-effort, jobs are not. *)
      (try write_prom ()
       with Sys_error _ | Unix.Unix_error _ | Failpoint.Injected _ -> ());
      Fileio.refresh_lock lock;
      next_prom := now_s () +. 1.
    end;
    t.conns <- List.filter (fun c -> c.alive) t.conns;
    let finished =
      t.draining && workers_done ()
      && with_lock t (fun () -> Queue.is_empty t.events)
    in
    let all_flushed = List.for_all (fun c -> c.outbuf = "") t.conns in
    if finished && (all_flushed || !flush_spins > 40) then ()
    else begin
      if finished then incr flush_spins;
      let reads =
        if t.draining then List.map (fun c -> c.fd) t.conns
        else listen_fd :: List.map (fun c -> c.fd) t.conns
      in
      let writes =
        List.filter_map
          (fun c -> if c.outbuf <> "" then Some c.fd else None)
          t.conns
      in
      let rs, ws, _ =
        try Unix.select reads writes [] 0.05
        with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
      in
      if List.mem listen_fd rs then accept_new ();
      List.iter
        (fun c -> if c.alive && List.mem c.fd rs then try_read t c)
        t.conns;
      List.iter
        (fun c -> if c.alive && List.mem c.fd ws then try_write c)
        t.conns;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter kill t.conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
      close_out_noerr events_oc;
      (try write_prom ()
       with Sys_error _ | Unix.Unix_error _ | Failpoint.Injected _ -> ());
      Fileio.release_lock lock)
    (fun () ->
      loop ();
      Domain.join pool;
      logf t "rbb serve: shutdown (%d job(s) completed this run)"
        t.completed_this_run)

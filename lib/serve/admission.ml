(* Bounded FIFO with O(1) counters.  One mutex/condition pair guards
   everything: submits and stats reads come from the daemon's event
   loop, pops and completion notes from worker domains. *)

type entry = {
  id : string;
  spec : Protocol.job_spec;
  t_submit : int64;
  mutable t_start : int64;
}

type t = {
  clock : unit -> int64;
  depth : int;
  servers : int;
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : entry Queue.t;
  mutable closed : bool;
  (* measurements, all under [lock] *)
  mutable arrivals : int;
  mutable rejected : int;
  mutable started : int;
  mutable completed : int;
  mutable failed : int;
  mutable first_arrival : int64;
  mutable last_arrival : int64;
  mutable service_sum_ns : float;  (* over completed + failed jobs *)
}

let create ?(clock = Monotonic_clock.now) ~depth ~servers () =
  if depth < 1 then invalid_arg "Admission.create: depth must be at least 1";
  if servers < 1 then
    invalid_arg "Admission.create: servers must be at least 1";
  {
    clock;
    depth;
    servers;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    closed = false;
    arrivals = 0;
    rejected = 0;
    started = 0;
    completed = 0;
    failed = 0;
    first_arrival = 0L;
    last_arrival = 0L;
    service_sum_ns = 0.;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let note_arrival t now =
  t.arrivals <- t.arrivals + 1;
  if t.first_arrival = 0L then t.first_arrival <- now;
  t.last_arrival <- now

(* Backoff hint: expected backlog drain time, from the mean measured
   service time (100 ms per queued job before any measurement exists).
   The mean is the running sum over [completed + failed]: O(1) under
   the lock. *)
let retry_after_ms t =
  let finished = t.completed + t.failed in
  let per_job_ms =
    if finished = 0 then 100.
    else t.service_sum_ns /. float_of_int finished /. 1e6
  in
  let backlog = Queue.length t.queue + 1 in
  max 1
    (int_of_float
       (Float.round (per_job_ms *. float_of_int backlog
                     /. float_of_int t.servers)))

let try_reject t =
  locked t (fun () ->
      if t.closed || Queue.length t.queue >= t.depth then begin
        t.rejected <- t.rejected + 1;
        Some (retry_after_ms t)
      end
      else None)

let submit t ~id ~spec =
  locked t (fun () ->
      if t.closed || Queue.length t.queue >= t.depth then begin
        t.rejected <- t.rejected + 1;
        `Rejected (retry_after_ms t)
      end
      else begin
        let now = t.clock () in
        note_arrival t now;
        Queue.add { id; spec; t_submit = now; t_start = 0L } t.queue;
        Condition.signal t.nonempty;
        `Accepted (Queue.length t.queue)
      end)

let resubmit t ~id ~spec =
  locked t (fun () ->
      let now = t.clock () in
      note_arrival t now;
      Queue.add { id; spec; t_submit = now; t_start = 0L } t.queue;
      Condition.signal t.nonempty)

let pop t =
  locked t (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.queue) then Some (Queue.take t.queue)
        else if t.closed then None
        else begin
          Condition.wait t.nonempty t.lock;
          wait ()
        end
      in
      wait ())

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let note_started t entry =
  locked t (fun () ->
      entry.t_start <- t.clock ();
      t.started <- t.started + 1)

let note_done t entry ~ok =
  locked t (fun () ->
      let now = t.clock () in
      if ok then t.completed <- t.completed + 1 else t.failed <- t.failed + 1;
      t.service_sum_ns <-
        t.service_sum_ns +. Int64.to_float (Int64.sub now entry.t_start);
      now)

type stats = {
  arrivals : int;
  rejected : int;
  started : int;
  completed : int;
  failed : int;
  queue_len : int;
  first_arrival : int64;
  last_arrival : int64;
}

let stats t =
  locked t (fun () ->
      {
        arrivals = t.arrivals;
        rejected = t.rejected;
        started = t.started;
        completed = t.completed;
        failed = t.failed;
        queue_len = Queue.length t.queue;
        first_arrival = t.first_arrival;
        last_arrival = t.last_arrival;
      })

let reset_stats t =
  locked t (fun () ->
      t.arrivals <- 0;
      t.rejected <- 0;
      t.started <- 0;
      t.completed <- 0;
      t.failed <- 0;
      t.first_arrival <- 0L;
      t.last_arrival <- 0L;
      t.service_sum_ns <- 0.)

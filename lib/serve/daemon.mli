(** The [rbb serve] daemon: a crash-safe simulation service over a
    Unix-domain socket.

    One process owns a {e state directory} (exclusive
    {!Rbb_sim.Fileio.acquire_lock} pid lock — two daemons can never
    share one) and a socket speaking {!Protocol} frames.  Jobs flow

    {v submit → admission queue (bounded; explicit reject) → worker
       domains (one per [workers], spawned at startup) →
       checkpointed execution ({!Job.run}) → atomic result v}

    {b Job table.}  The daemon keeps in memory only the jobs it is
    serving: queued ones, running ones (last checkpointed round,
    deadline expiry, cancel flag), and a failure whose [.failed] marker
    could not be written.  A job leaves the table as soon as its
    [<id>.result] or [<id>.failed] record is durable; from then on
    [status] and [result] answer from the state directory, the same
    after a week of uptime as after a restart.  The table's size is
    bounded by the work in hand, not by the jobs served.

    {b Crash safety.}  Every accepted job's spec is on disk before the
    accept is acknowledged, running jobs republish a checkpoint every
    [checkpoint_every] rounds, and results are published atomically —
    so [kill -9] at any instant loses at most one checkpoint interval
    of compute and zero acknowledged jobs.  On startup the daemon scans
    its state directory and re-enqueues every job with a spec but no
    result; those with a checkpoint resume {e bit-identically}
    ({!Rbb_sim.Checkpoint}), so an interrupted job's result is
    byte-identical to an uninterrupted run's.  A job whose run raises
    gets a durable [<id>.failed] marker instead: later daemon lives
    report the failure (status/result) rather than resubmitting a job
    that would only re-fail on every restart.

    {b Corruption.}  Artifacts that fail to load — a checkpoint whose
    CRC trailer disagrees with its content, a spec that no longer
    parses — are {e quarantined} ({!Job.quarantine_file}): moved under
    [state_dir/quarantine/], counted, and reported as ["quarantined"]
    events.  A corrupt checkpoint costs only the checkpointed progress
    (the job restarts from its durable spec and, being deterministic,
    republishes a byte-identical result); a corrupt spec fails the job
    durably rather than letting an acknowledged job vanish.

    {b Deadlines.}  A spec may carry a finite [deadline_s]: the event
    loop's watchdog flips a per-job cancel flag once the wall-clock
    budget (measured from dispatch to a worker) expires, the worker
    observes it at the next round boundary, and the job fails through
    the same durable [.failed] machinery — freeing the worker for
    queued work.  Deadline kills are counted separately ([deadlined]
    in stats, outcome ["deadline"] in the job histograms).

    {b Observability.}  Every job lifecycle transition (accepted /
    started / checkpoint / done / failed) is appended to
    [events.ndjson] in the state directory (flushed per line, so
    {!Rbb_sim.Jsonl.tail} can follow it live) and streamed as [event]
    frames to connected subscribers.

    The daemon counts into one {!Rbb_obs.Registry}: per-job
    wait/service/sojourn histograms labeled by outcome, queue/worker
    gauges, estimated λ̂/μ̂/ρ̂, and lifetime counters of every lifecycle
    event ([serve_*_total], [rbb_quarantined_total],
    [rbb_jobs_deadlined_total]) that [reset-stats] leaves alone.  The
    job histograms are the one store of job latencies.  The [metrics]
    request returns the Prometheus text exposition, and the same bytes
    are republished atomically to [metrics.prom] in the state directory
    about once a second and at shutdown.

    The [stats] request returns {!Admission.stats}'s counters and
    arrival window, [deadlined] and [quarantined] from the registry's
    counters, and, once a job has finished, the mean, p50 and p99 of
    wait, service and sojourn read from the job histograms merged over
    outcomes — so a stats reply equals what a scraper computes from the
    exposition, up to its rendering of bucket bounds.  [rbb slam] fits
    these against the {!Rbb_queueing.Mmc} model.  [reset-stats] zeroes
    the job histograms together with {!Admission.reset_stats}, so the
    stats reply and a scrape after a reset cover the same window. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  state_dir : string;  (** created if missing; exclusively locked *)
  workers : int;  (** worker domains = the [c] of the M/M/c view *)
  queue_depth : int;  (** admission bound *)
  checkpoint_every : int;  (** rounds between checkpoint publications *)
  max_frame : int;  (** protocol frame payload limit, bytes *)
  log : out_channel option;  (** startup/shutdown lines; [None] silent *)
  io_failpoints : Rbb_sim.Failpoint.t;
      (** I/O fault plane, armed process-wide
          ({!Rbb_sim.Fileio.set_failpoints}) once the daemon owns its
          lock — [io.write] / [io.fsync] / [io.rename] / [io.lock]
          triggers then fire inside every durable write.  This is the
          chaos harness's hook; production daemons leave the default
          {!Rbb_sim.Failpoint.noop}. *)
}

val default_config : socket:string -> state_dir:string -> config
(** workers 1, queue depth 16, checkpoint every 256 rounds, default
    frame limit, silent, no injected faults. *)

val run : config -> unit
(** Run until a [shutdown] request arrives, then drain: in-flight jobs
    finish, queued-but-unstarted jobs stay on disk for the next daemon.
    @raise Invalid_argument on nonsensical config values or when the
    state directory is locked by a {e running} daemon (a stale lock
    left by a killed daemon is broken silently). *)

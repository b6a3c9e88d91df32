(** Bounded admission queue with explicit rejection, plus the counters
    and arrival window the M/M/c validation feeds on.

    The daemon's load shedding happens here: a submit lands in a FIFO
    queue of bounded depth or is {e rejected} with a retry-after hint —
    the queue never grows without bound, so an overloaded daemon
    degrades by refusing work, not by dying.  Worker domains block in
    {!pop}; {!close} wakes them all with [None] (a graceful drain:
    entries still queued stay on disk as job spec files and are resumed
    by the next daemon).

    Entries are stamped at submit and start, and {!note_done} returns
    the completion time from the same clock: one set of stamps gives a
    job's wait, service and sojourn.  The queue keeps no per-job
    samples, so its state is O(1) in the jobs served; the daemon's
    metrics registry is the one store of job latencies.  All operations
    are safe to call from any domain. *)

type t

type entry = {
  id : string;
  spec : Protocol.job_spec;
  t_submit : int64;  (** ns, queue clock *)
  mutable t_start : int64;  (** ns; 0 until {!note_started} *)
}

val create : ?clock:(unit -> int64) -> depth:int -> servers:int -> unit -> t
(** [depth] is the maximum number of queued-but-not-started entries;
    [servers] the worker count, used by the retry-after estimate.
    [clock] (default: the monotonic clock, ns) is injectable for
    deterministic tests.
    @raise Invalid_argument if [depth < 1] or [servers < 1]. *)

val try_reject : t -> int option
(** The submitting thread's load-shedding decision, made atomically:
    when the queue is full (or closed), count a rejection and return
    [Some retry_after_ms] under a single lock acquisition; return
    [None] when a {!submit} issued now by that thread would be
    accepted.  Re-checking fullness and counting happen together, so a
    worker popping between a probe and the decision can never turn a
    planned rejection into an unintended enqueue.  After [None],
    concurrent pops can only shrink the queue further, so the
    follow-up {!submit} from the same (sole submitting) thread is
    guaranteed to be accepted. *)

val submit :
  t ->
  id:string ->
  spec:Protocol.job_spec ->
  [ `Accepted of int | `Rejected of int ]
(** Enqueue, or reject when [depth] entries are already waiting.
    [`Accepted k] reports the queue length after the insert;
    [`Rejected ms] hints how long to back off (the expected time for
    the backlog to drain: [(queue_len + 1) * mean_service / servers],
    from measured service times, with a coarse default before any job
    has finished).  Rejected when closed, too. *)

val resubmit : t -> id:string -> spec:Protocol.job_spec -> unit
(** Recovery-path enqueue that ignores the depth bound: jobs found on
    disk at daemon startup must never be refused (they were already
    admitted by a previous life of the daemon). *)

val pop : t -> entry option
(** Block until an entry is available (FIFO) or the queue is closed;
    [None] only after {!close}. *)

val close : t -> unit
(** Reject future submits, wake every blocked {!pop} with [None].
    Idempotent. *)

val note_started : t -> entry -> unit
(** Stamp the entry's start time and count the start. *)

val note_done : t -> entry -> ok:bool -> int64
(** Count a finished job (as completed when [ok], else as failed), add
    its service time to the running sum behind the retry-after hint,
    and return the completion time, ns on the queue clock. *)

(** {2 Measured statistics} *)

type stats = {
  arrivals : int;  (** accepted submits (incl. resubmits) *)
  rejected : int;
  started : int;
  completed : int;  (** finished ok *)
  failed : int;  (** finished with an error *)
  queue_len : int;
  first_arrival : int64;  (** ns; 0 when no arrivals *)
  last_arrival : int64;
}

val stats : t -> stats
(** Snapshot of the counters and the arrival window. *)

val reset_stats : t -> unit
(** Zero the counters, the arrival window and the service sum (queued
    entries are kept): lets a load harness measure a clean window after
    warming up. *)

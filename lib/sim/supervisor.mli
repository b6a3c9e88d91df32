(** Retry supervision with capped exponential backoff.

    The phases of {!Sharded} are pure functions of committed state —
    parity load buffers, worker-private arrival buffers, and
    per-(round, shard) PRNG streams — so a failed slice of work can
    simply be executed again and produce bit-identical results.  A
    supervisor wraps each execution: on failure it reports an {!event},
    sleeps a capped exponential backoff, and retries with a fresh
    attempt number (which {!Failpoint} triggers see, so a
    [fails = 1] deterministic fault passes on the first retry); once
    the budget is spent it raises {!Budget_exhausted}, which the
    engines translate into graceful degradation rather than a crash.

    {!noop} performs the work with no handler installed — failures
    propagate exactly as in an unsupervised engine — and costs one
    pattern match, preserving the noop-overhead guarantee. *)

type event = {
  name : string;  (** the supervised phase (a {!Failpoint} name) *)
  round : int;
  shard : int;  (** worker / shard index of the failed slice *)
  attempt : int;  (** 0-based attempt that failed *)
  error : string;  (** [Printexc.to_string] of the exception *)
  backoff_ns : int64;  (** sleep before the next attempt (0 if giving up) *)
  giving_up : bool;  (** true on the failure that exhausts the budget *)
}

exception
  Budget_exhausted of {
    name : string;
    round : int;
    shard : int;
    attempts : int;  (** total attempts made *)
    last : exn;  (** the final attempt's exception *)
  }

type t

val noop : t
(** No supervision: work runs once, exceptions propagate untouched. *)

val create :
  ?retries:int ->
  ?backoff_ns:int64 ->
  ?max_backoff_ns:int64 ->
  ?jitter:int64 ->
  ?sleep:(int64 -> unit) ->
  ?on_event:(event -> unit) ->
  unit ->
  t
(** An active supervisor.  [retries] (default 3) is the number of
    re-executions after the first failure; [backoff_ns] (default 1 ms)
    the base backoff, doubled per attempt and capped at
    [max_backoff_ns] (default 100 ms); [jitter] (default: none) seeds
    deterministic decorrelated jitter — each failed
    [(name, round, shard, attempt)] scales its exponential step by an
    independent uniform factor in [[0.5, 1.5)] drawn from
    {!Failpoint.hash_unit}, so a worker pool tripped by one fault does
    not retry in lockstep, yet every run replays the same schedule;
    [sleep] (default a real [Unix.sleepf]) is injectable so tests retry
    instantly; [on_event] observes every failure — engines feed it into
    {!Tracer.fault} and {!Telemetry} counters.  [on_event] and [sleep]
    may be called from worker domains concurrently; the sinks they feed
    must be domain-safe (ours are; the jitter draw is stateless).
    @raise Invalid_argument if [retries < 0] or [backoff_ns < 0]. *)

val enabled : t -> bool

val retries : t -> int
(** The retry budget (0 on {!noop}). *)

val with_on_event : t -> (event -> unit) -> t
(** A supervisor with the same budget and backoff whose events
    additionally reach the given hook (after any existing one).  This is
    how {!Sharded} splices its tracer / telemetry fault reporting onto a
    caller-supplied supervisor.  [with_on_event noop _] is {!noop}. *)

val supervise :
  t -> name:string -> round:int -> shard:int -> (attempt:int -> 'a) -> 'a
(** [supervise t ~name ~round ~shard f] runs [f ~attempt:0] and, on
    {!noop}, lets any exception fly.  On an active supervisor it
    retries [f] with increasing attempt numbers (backing off between
    attempts, reporting each failure) until success or the budget is
    spent.
    @raise Budget_exhausted after [1 + retries] failed attempts. *)

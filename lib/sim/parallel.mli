(** Parallel replication across OCaml 5 domains, and the round loop of
    the parallel engines ({!rounds}).

    Trials are embarrassingly parallel: each runs on its own
    deterministically derived seed, so the result array is {e identical}
    to {!Replicate.run}'s regardless of the number of domains —
    parallelism changes wall-clock time only, never results.

    Failure handling is deterministic too: every task's outcome lands in
    its own slot, a failing task never aborts its siblings, and when
    {!run} re-raises it always picks the exception of the {e smallest}
    failing trial index — never whichever domain happened to lose the
    race. *)

val default_domains : unit -> int
(** [max 1 (recommended_domain_count () - 1)]. *)

module Barrier : sig
  type t

  val create : int -> t
  (** A reusable rendezvous for a fixed number of parties.
      @raise Invalid_argument if [parties < 1]. *)

  val wait : t -> unit
  (** Blocks until all parties have arrived, then releases them all and
      resets for the next generation.  Blocking (Mutex/Condition), not
      spinning, so it degrades gracefully when domains outnumber cores.
      Establishes the happens-before edge phase-structured engines such
      as [Sharded] need between their launch and settle passes. *)
end

type phase = { name : string; workers : int; run : round:int -> int -> unit }
(** A named phase of a round: [run ~round w] does logical worker [w]'s
    share of 0-based [round], for [w] in [0 .. workers - 1]. *)

val rounds :
  probe:Rbb_core.Probe.t ->
  family:string ->
  domains:int ->
  round:int ->
  rounds:int ->
  observe:(round:int -> unit) ->
  phase list list ->
  (int * int * exn) option
(** [rounds ~probe ~family ~domains ~round ~rounds ~observe stages] runs
    rounds [[round, round + rounds)] of an engine whose round is
    [stages]: lists of phases, each stage ending at a barrier.  It is
    the round loop of {!Sharded} and {!Sharded_counts}.

    [min domains workers] domains ([workers] the largest phase worker
    count) each play the logical workers [d, d + domains, ...], running
    a stage's phases in order for all of them; one domain runs on the
    caller, with no spawn and no barrier.

    Through [probe] only: each phase's time, as a timer named after the
    phase flushed once per domain per call; a span per phase per
    worker; when more than one domain runs, a [<family>.barrier_wait]
    timer and, for each round's closing barrier, a [<family>.barrier]
    span per domain; a latency sample per completed round; and, when
    [probe.tracing], [observe ~round] with the 1-based number of each
    completed round.  [observe] runs on domain 0 between a round's last
    barrier and its next stage, so it may read what the last stage
    wrote if the first stage does not write it.

    A raising phase is recorded; the rest of its stage still runs, later
    stages and rounds are skipped, and every domain attends every
    barrier.  The result is the smallest failing [(round, worker, exn)]
    after the join — every earlier round completed — or [None].
    [rounds = 0] runs and reports nothing.
    @raise Invalid_argument if [domains < 1] or [rounds < 0]. *)

val map_domains :
  ?telemetry:Telemetry.t ->
  ?domains:int ->
  tasks:int ->
  (int -> 'a) ->
  'a array
(** [map_domains ~tasks f] evaluates [f i] for every [i] in
    [0 .. tasks - 1] across [min domains tasks] domains (round-robin
    task assignment; inline when a single worker remains) and returns
    the results in task order.  The result array is independent of
    [domains].  If tasks raise, all remaining tasks still run and the
    exception of the smallest failing index is re-raised after every
    domain joins.  This is the primitive under {!run}.

    When [telemetry] (default {!Telemetry.noop}) is an active sink, each
    worker [w] reports counter [parallel.worker<w>.tasks] (tasks it
    executed) and timer [parallel.worker<w>.wall] (its wall-clock time),
    plus the total counter [parallel.tasks]; task counts are
    deterministic in [(tasks, domains)].
    @raise Invalid_argument if [domains < 1] or [tasks < 0]. *)

val run :
  ?telemetry:Telemetry.t ->
  ?engine:Rbb_prng.Rng.engine ->
  ?domains:int ->
  base_seed:int64 ->
  trials:int ->
  (Rbb_prng.Rng.t -> 'a) ->
  'a array
(** [run ~base_seed ~trials f] evaluates [f] on [trials] independent
    generators using [domains] domains (default {!default_domains}).
    Seed derivation matches {!Replicate.run}.  If any trial raises, the
    exception of the smallest failing trial index is re-raised after all
    domains join (other trials are still evaluated).
    @raise Invalid_argument if [domains < 1] or [trials < 0]. *)

val try_run :
  ?telemetry:Telemetry.t ->
  ?engine:Rbb_prng.Rng.engine ->
  ?domains:int ->
  base_seed:int64 ->
  trials:int ->
  (Rbb_prng.Rng.t -> 'a) ->
  ('a, exn) result array
(** Like {!run} but total: each trial's outcome is recorded in its own
    slot, so one failure can neither abort nor overwrite the others and
    the caller sees exactly which trials failed.  Independent of
    [domains]. *)

val run_floats :
  ?telemetry:Telemetry.t ->
  ?engine:Rbb_prng.Rng.engine ->
  ?domains:int ->
  base_seed:int64 ->
  trials:int ->
  (Rbb_prng.Rng.t -> float) ->
  Rbb_stats.Summary.t

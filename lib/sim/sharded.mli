(** Domain-parallel sharded engine for one repeated balls-into-bins
    simulation.

    {!Rbb_core.Process} is the sequential engine; this one partitions
    the [n] bins and runs each round's two phases across OCaml 5
    domains:

    + {b launch} — every scheduling shard walks its contiguous range of
      fixed-size randomness blocks ({!Rbb_core.Process.shard_size} bins
      each), drawing every block's destinations from the independent
      stream keyed by [(master, round, block)]
      ({!Rbb_prng.Stream.for_shard}) and scattering arrivals into a
      worker-private buffer;
    + {b settle} — after the join barrier, workers own disjoint bin
      ranges, sum the arrival buffers into a shared merge array and
      apply departures/arrivals, maintaining the incremental max-load /
      empty-bins counters via a per-range reduce.

    {b Determinism guarantee.}  Randomness is keyed by the block lattice
    — a constant of the process law — never by [shards] or [domains],
    which only choose how blocks are scheduled.  The trajectory is
    therefore bit-identical for {e every} shard count (including 1) and
    {e every} domain count, and bit-identical to the sequential
    {!Rbb_core.Process} created from the same rng state.  Parallelism
    changes wall-clock time only.

    {b Restartability.}  Every phase is a pure function of state
    committed before it started: launch overwrites a worker-private
    buffer, merge overwrites a scratch array, and settle writes the
    {e other} buffer of a parity pair of load arrays ([round land 1]
    indexes the current one).  Consequently a failed slice of work can
    simply be executed again with bit-identical results — which is what
    an attached {!Supervisor} does — and a round abandoned by a fault
    leaves the committed configuration intact, so an unsupervised
    failure re-raises with the engine rolled back to its last completed
    round, and an exhausted retry budget degrades the rest of the call
    to one domain instead of crashing, on every geometry
    ({!degraded}).

    Rounds run in {!Parallel.rounds}, the round loop shared with
    {!Sharded_counts}, as the stages [[launch]; [merge; settle]]: two
    barriers per round. *)

type t

val create :
  ?telemetry:Telemetry.t ->
  ?tracer:Tracer.t ->
  ?failpoints:Failpoint.t ->
  ?supervisor:Supervisor.t ->
  ?d_choices:int ->
  ?weights:float array ->
  ?capacity:int ->
  ?shards:int ->
  ?domains:int ->
  rng:Rbb_prng.Rng.t ->
  init:Rbb_core.Config.t ->
  unit ->
  t
(** [create ~rng ~init ()] mirrors {!Rbb_core.Process.create} (and
    consumes the same single draw from [rng], so both engines derive the
    same master key from the same rng state).  [shards] is the number of
    scheduling shards for the launch phase (default [domains]);
    [domains] the number of worker domains (default
    {!Parallel.default_domains}).  Neither affects results.

    [telemetry] (default {!Telemetry.noop}) and [tracer] (default
    {!Tracer.noop}) form the round loop's probe: per-phase timers and
    per-worker spans [sharded.launch] / [sharded.merge] /
    [sharded.settle], a [sharded.barrier_wait] timer and
    [sharded.barrier] spans when more than one domain runs, a latency
    sample and an observable record per completed round, the
    unconditional threshold events, and the counters [sharded.rounds]
    and [sharded.launch.blocks] (committed rounds times
    [Process.shard_count ~bins], however the blocks are scheduled).
    Neither sink affects the trajectory; with both disabled the engine
    takes no clock reads at all.

    [failpoints] (default {!Failpoint.noop}) guards the phases
    [sharded.launch] / [sharded.merge] / [sharded.settle] at entry,
    keyed by the 1-based round number and the worker index.
    [supervisor] (default {!Supervisor.noop}) retries a failed phase
    slice — injected or real — with capped exponential backoff;
    because phases are restartable the retried trajectory is
    bit-identical, and every fault / retry / degradation is reported
    through {!Tracer.fault} and the counters [sharded.faults],
    [sharded.retries], [sharded.fault.giving_up], [sharded.degraded].
    Both default to inert and cost one pattern match per phase.
    @raise Invalid_argument under {!Rbb_core.Process.create}'s
    conditions, or if [shards < 1] or [domains < 1]. *)

val restore :
  ?telemetry:Telemetry.t ->
  ?tracer:Tracer.t ->
  ?failpoints:Failpoint.t ->
  ?supervisor:Supervisor.t ->
  ?d_choices:int ->
  ?capacity:int ->
  ?shards:int ->
  ?domains:int ->
  rng:Rbb_prng.Rng.t ->
  master:int64 ->
  round:int ->
  init:Rbb_core.Config.t ->
  unit ->
  t
(** [restore ~rng ~master ~round ~init ()] rebuilds an engine
    mid-trajectory from checkpointed state, consuming {e no} randomness
    — the sharded counterpart of {!Rbb_core.Process.restore}.  [shards]
    and [domains] may differ from the checkpointing run's: they never
    affect results.
    @raise Invalid_argument under {!create}'s conditions or if
    [round < 0]. *)

val step : t -> unit
(** Advance one synchronous round (both phases, with a barrier between). *)

val run : t -> rounds:int -> unit
(** [run t ~rounds] advances [rounds] rounds ([rounds = 0] is a no-op).

    Failure semantics: with an attached supervisor, faults are retried
    and an exhausted budget degrades the rest of the call to one domain,
    whatever [shards] and [domains] are ({!degraded} turns true) — the
    trajectory is unaffected either way.  Without one, the first fault re-raises after
    all domains join, with the engine rolled back to its last completed
    round.
    @raise Invalid_argument if [rounds < 0]. *)

val round : t -> int
val n : t -> int
val balls : t -> int

val shards : t -> int
(** Scheduling shard count (affects scheduling only, never results). *)

val domains : t -> int
(** Worker domain count (affects wall-clock only, never results). *)

val load : t -> int -> int
val max_load : t -> int
val empty_bins : t -> int

val config : t -> Rbb_core.Config.t
(** Snapshot of the current configuration. *)

val set_config : t -> Rbb_core.Config.t -> unit
(** Overwrite the load vector (round counter and generator state kept):
    the §4.1 adversary's move, mirroring
    {!Rbb_core.Process.set_config}.
    @raise Invalid_argument if [q] has a different bin or ball count. *)

val degraded : t -> bool
(** True once a retry budget was exhausted and the engine finished that
    call on one domain (failpoints are bypassed from then on).
    The trajectory is unaffected — degradation costs parallelism, not
    correctness. *)

val engine : t -> Rbb_core.Engine.t
(** This engine as the drivers see it ([kind = Balls]).  With the same
    creation rng state as a {!Rbb_core.Process}, adversary
    perturbations draw the same randomness, so faulty trajectories are
    engine-independent too. *)

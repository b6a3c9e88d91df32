(** Domain-parallel count-based engine.

    The parallel counterpart of {!Rbb_core.Counts_process}, paired with
    it exactly as {!Sharded} is paired with {!Rbb_core.Process}: same
    randomness law, bit-identical trajectories from the same creation
    rng state, for {e every} domain count.  Parallelism changes
    wall-clock time only.

    Instead of exchanging per-ball messages, the workers exchange one
    [(source block, destination block)] count matrix per round:

    + {b release} — every source block (4096 bins,
      {!Rbb_core.Counts_process.block_bits}) scans its loads slice for
      the released total and splits it over destination blocks by
      recursive binomial splitting
      ({!Rbb_core.Counts_process.release_block}), writing its private
      matrix row;
    + {b place} — after the barrier, every destination block column-sums
      the matrix, splits its arrival total down to bins
      ({!Rbb_core.Counts_process.place_block}) and settles its slice,
      with a per-range reduce maintaining max-load / empty-bins.

    Rows in phase A and bin slices in phase B are owned by exactly one
    worker, so the matrix is the only cross-worker state and it is
    written row-exclusively.  The phases run as the stages [[release];
    [place]] of {!Parallel.rounds}, the round loop shared with
    {!Sharded}.  Each worker keeps its own
    {!Rbb_prng.Multinomial} bit pool, reset to the owning block's
    stream before every split — worker assignment cannot change a draw.

    Counts-engine restrictions apply: uniform re-assignment only (no
    [d_choices], no [weights]); no failpoint / supervisor surface (the
    phases complete in microseconds; use {!Sharded} to study fault
    injection). *)

type t

val create :
  ?telemetry:Telemetry.t ->
  ?tracer:Tracer.t ->
  ?capacity:int ->
  ?domains:int ->
  rng:Rbb_prng.Rng.t ->
  init:Rbb_core.Config.t ->
  unit ->
  t
(** [create ~rng ~init ()] mirrors {!Rbb_core.Counts_process.create}
    and consumes the same single master-key draw from [rng], so the
    sequential and parallel counts engines produce bit-identical
    trajectories from the same rng state.  [domains] (default
    {!Parallel.default_domains}) never affects results.

    [telemetry] (default {!Telemetry.noop}) and [tracer] (default
    {!Tracer.noop}) form the round loop's probe: per-phase timers and
    per-worker spans [counts_sharded.release] / [counts_sharded.place],
    a [counts_sharded.barrier_wait] timer and [counts_sharded.barrier]
    spans when more than one domain runs, a latency sample and an
    observable per completed round, the unconditional threshold events,
    and the counters [counts_sharded.rounds] and
    [counts_sharded.release.blocks] (committed rounds times the block
    count).  Neither sink affects the trajectory.
    @raise Invalid_argument if [capacity < 1] or [domains < 1]. *)

val restore :
  ?telemetry:Telemetry.t ->
  ?tracer:Tracer.t ->
  ?capacity:int ->
  ?domains:int ->
  rng:Rbb_prng.Rng.t ->
  master:int64 ->
  round:int ->
  init:Rbb_core.Config.t ->
  unit ->
  t
(** Rebuild mid-trajectory from checkpointed state, consuming no
    randomness ({!Rbb_core.Counts_process.restore}).  [domains] may
    differ from the checkpointing run's.
    @raise Invalid_argument if [capacity < 1], [domains < 1] or
    [round < 0]. *)

val step : t -> unit
val run : t -> rounds:int -> unit
(** A phase that raises is re-raised once every domain has joined; the
    engine's state is then unspecified (place settles in place).
    @raise Invalid_argument if [rounds < 0]. *)

val round : t -> int
val n : t -> int
val balls : t -> int

val domains : t -> int
(** Worker domain count (wall-clock only, never results). *)

val load : t -> int -> int
val max_load : t -> int
val empty_bins : t -> int

val config : t -> Rbb_core.Config.t
val set_config : t -> Rbb_core.Config.t -> unit
(** The adversary's move; see {!Rbb_core.Process.set_config}. *)

val telemetry : t -> Telemetry.t
(** The attached telemetry sink ({!Telemetry.noop} when none). *)

val engine : t -> Rbb_core.Engine.t
(** This engine as the drivers see it ([kind = Counts]); paired with
    {!Rbb_core.Counts_process.engine} as {!Sharded.engine} is with
    {!Rbb_core.Process.engine}. *)

(** Count-based round kernel: the repeated balls-into-bins process
    sampled per-block instead of per-ball.

    The process' observables — loads, max load, empty bins, legitimacy —
    depend only on per-bin {e counts}, so a round can be drawn without
    materializing individual balls: sample how many released balls land
    in each 4096-bin block (an exact uniform multinomial over blocks,
    drawn by recursive binomial splitting — {!Rbb_prng.Multinomial}),
    then split each block's arrival total down to its bins, then settle.
    Same per-round load law as {!Process}, and about the same cost per
    round at [n = 10^6] now that {!Process} draws each block's
    destinations in one bulk call (see BENCH_counts_speedup.json).

    {2 Randomness law}

    This engine necessarily consumes randomness differently from
    {!Process}, so trajectories are {e not} bit-comparable with the
    per-ball engine — only equal in distribution, which
    [test/test_distributional.ml] verifies against the per-ball oracle
    (chi-square on destination laws, KS on max-load trajectories).
    Within the counts family the law is fixed: round [r] draws one
    release stream per source block [b] keyed [(master, r, b)] and one
    arrival stream per destination block [d] keyed
    [(master, r, blocks + d)] (see {!Rbb_prng.Stream.for_shard}), so
    the sequential engine here and the domain-parallel
    [Rbb_sim.Sharded_counts] engine produce bit-identical trajectories
    from the same creation rng state, mirroring the
    {!Process}/[Rbb_sim.Sharded] pairing.

    Restrictions: uniform re-assignment only — no [d_choices] and no
    [weights] (both would make destinations depend on individual draws
    or non-uniform laws that do not decompose dyadically).  Use
    {!Process} for those. *)

type t

val create : ?capacity:int -> rng:Rbb_prng.Rng.t -> init:Config.t -> unit -> t
(** [create ~rng ~init ()] starts the process at configuration [init];
    [capacity] (default 1) as in {!Process.create}.  Consumes one draw
    of [rng] for the stream master key, exactly as {!Process.create}.
    @raise Invalid_argument if [capacity < 1]. *)

val restore :
  ?capacity:int ->
  rng:Rbb_prng.Rng.t ->
  master:int64 ->
  round:int ->
  init:Config.t ->
  unit ->
  t
(** Rebuild mid-trajectory from checkpointed state without consuming
    randomness; see {!Process.restore}.
    @raise Invalid_argument if [capacity < 1] or [round < 0]. *)

val step : t -> unit
(** Advance one synchronous round. *)

val run : ?probe:Probe.t -> t -> rounds:int -> unit
(** [run t ~rounds] advances [rounds] rounds.  A live [probe] records
    timers [counts.release] / [counts.place] / [counts.run], a per-round
    latency sample, and counters [counts.rounds] and
    [counts.release.blocks]; when tracing it additionally emits spans
    [counts.release] / [counts.place] (worker 0) and one [on_round]
    observable per round.  The probe never affects the trajectory.
    @raise Invalid_argument if [rounds < 0]. *)

val run_until_legitimate : ?beta:float -> t -> max_rounds:int -> int option
(** As {!Process.run_until_legitimate}. *)

val round : t -> int
val n : t -> int
val balls : t -> int

val load : t -> int -> int
val max_load : t -> int
val empty_bins : t -> int

val last_arrivals : t -> int -> int
(** Arrivals into a bin in the most recent round (0 before the first
    step), as in {!Process.last_arrivals}. *)

val config : t -> Config.t
val set_config : t -> Config.t -> unit
(** The adversary's move; see {!Process.set_config}. *)

val engine : ?probe:Probe.t -> t -> Engine.t
(** This engine as the drivers see it ([kind = Counts]); its [step] is
    [run ~probe ~rounds:1], as in {!Process.engine}. *)

(** {2 Block kernels}

    The two randomized phases of {!step}, exposed over raw arrays so a
    parallel engine can run them per block with per-worker bit pools and
    exchange only per-block counts.  [Rbb_sim.Sharded_counts] is the
    canonical caller. *)

val block_bits : int
(** [log2 Process.shard_size]: bins per block as a power of two. *)

val release_block :
  pool:Rbb_prng.Multinomial.t ->
  engine:Rbb_prng.Rng.engine ->
  master:int64 ->
  round:int ->
  loads:int array ->
  capacity:int ->
  block:int ->
  into:int array ->
  int
(** Releases [min load capacity] balls from every bin of source block
    [block] and adds their per-destination-block counts into [into]
    (length ≥ block count); returns the number of balls released.
    Reads [loads] without mutating it. *)

val place_block :
  pool:Rbb_prng.Multinomial.t ->
  engine:Rbb_prng.Rng.engine ->
  master:int64 ->
  round:int ->
  bins:int ->
  arrivals:int array ->
  block:int ->
  count:int ->
  unit
(** Places [count] arrivals uniformly over the bins of destination block
    [block], overwriting that block's slice of [arrivals] (other slices
    untouched). *)

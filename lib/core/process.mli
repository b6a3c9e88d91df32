(** The repeated balls-into-bins process (paper §2), loads-only engine.

    Each round, synchronously: one ball is extracted from every
    non-empty bin and re-assigned to one of the [n] bins uniformly at
    random.  Ball identities are irrelevant to the load vector — the
    extraction strategy only permutes which ball moves — so this engine
    tracks loads only and is the fast path for every max-load experiment
    (E1–E3, E11, E13, E15).  Use {!Token_process} when ball identities
    matter (cover time, progress, FIFO delays).

    Generalizations exposed here: any number of balls [m]
    (§5 open question) and [d]-choices re-assignment (the ball goes to
    the least loaded of [d] sampled bins; reference [36] of the paper).

    {2 Randomness law}

    Each round's launch phase draws from one independent PRNG stream
    per contiguous block of {!shard_size} bins, keyed by
    [(master, round, shard)] where [master] is derived from one draw of
    the creation [rng] (see {!Rbb_prng.Stream.for_shard}).  The block
    size is a fixed constant of the process — it does not depend on any
    parallel engine's shard or domain count — so the sequential engine
    here and the domain-parallel [Rbb_sim.Sharded] engine produce
    bit-identical trajectories from the same creation rng state. *)

type t

val create :
  ?d_choices:int ->
  ?weights:float array ->
  ?capacity:int ->
  rng:Rbb_prng.Rng.t ->
  init:Config.t ->
  unit ->
  t
(** [create ~rng ~init ()] starts the process at configuration [init].
    [d_choices] defaults to 1 (the paper's process).

    [weights] selects a {e non-uniform} re-assignment law: a ball lands
    in bin [u] with probability proportional to [weights.(u)] (sampled
    through an alias table).  The paper's analysis leans on uniformity
    — each bin receives at most one expected ball per round — and the
    heterogeneity ablation E30 shows how skew breaks the logarithmic
    band.  Incompatible with [d_choices > 1].

    [capacity] (default 1) is the per-bin service capacity: each round
    every bin re-assigns [min(load, capacity)] balls.  The paper's
    one-ball-per-round constraint is the unit-capacity case — it is the
    whole source of correlation between the walks; with
    [capacity >= m] the process degenerates to independent one-shot
    throws every round.
    @raise Invalid_argument if [d_choices < 1], [capacity < 1], the
    weights length differs from the bin count, weights are invalid, or
    weights are combined with [d_choices > 1]. *)

val restore :
  ?d_choices:int ->
  ?capacity:int ->
  rng:Rbb_prng.Rng.t ->
  master:int64 ->
  round:int ->
  init:Config.t ->
  unit ->
  t
(** [restore ~rng ~master ~round ~init ()] rebuilds a process
    mid-trajectory from checkpointed state: [init] is the configuration
    after [round] rounds, [master] the launch-stream key the original
    process drew at creation, and [rng] the main stream (rebuild it with
    {!Rbb_prng.Rng.of_snapshot}).  Unlike {!create} this consumes {e no}
    randomness, so the restored process continues exactly where the
    original would have: the [Rbb_sim] checkpoint layer asserts
    interrupted-and-resumed runs are bit-identical to uninterrupted
    ones.  Weighted ([?weights]) processes cannot be restored (the
    checkpoint layer refuses to capture them).  [last_arrivals] of the
    restored process reads 0 until its first step ({!create}'s
    pre-first-step behavior).
    @raise Invalid_argument if [d_choices < 1], [capacity < 1] or
    [round < 0]. *)

val step : t -> unit
(** Advance one synchronous round. *)

val run : ?probe:Probe.t -> t -> rounds:int -> unit
(** [run t ~rounds] advances [rounds] rounds ([rounds = 0] is a no-op).

    When [probe] is live (default {!Probe.noop}), each round is timed
    and reported to the sink: timers [process.launch] / [process.settle]
    / [process.run], a per-round latency sample, and counters
    [process.rounds] (one per round) and [process.launch.blocks] (one
    per randomness block actually launched, i.e.
    [rounds * shard_count ~bins] in total).  When the probe is tracing,
    each round additionally emits spans [process.launch] /
    [process.settle] (worker 0) and one [on_round] observable.  The
    probe never affects the trajectory — randomness and results are
    identical with or without it.
    @raise Invalid_argument if [rounds < 0]. *)

val run_until : t -> max_rounds:int -> stop:(t -> bool) -> int option
(** {!Engine.run_until} over [engine t]: steps until [stop t] holds
    (checked before the first round and after each one); returns the
    round number at which it first held, or [None] after [max_rounds]
    additional rounds.
    @raise Invalid_argument if [max_rounds < 0]. *)

val run_until_legitimate : ?beta:float -> t -> max_rounds:int -> int option
(** {!Engine.run_until_legitimate} over [engine t]: the round at which
    the configuration first becomes legitimate (Theorem 1 convergence
    measurement). *)

val round : t -> int
(** Rounds executed so far. *)

val n : t -> int
val balls : t -> int

val load : t -> int -> int
(** Current load of a bin. *)

val max_load : t -> int
(** [M(t)] — maintained incrementally, O(1) amortized per round. *)

val empty_bins : t -> int
(** Number of empty bins, maintained incrementally. *)

val last_arrivals : t -> int -> int
(** [last_arrivals t u] is the number of balls that entered bin [u] in
    the most recent round (0 before the first step).  This is the
    random variable [Z_u^(t)] whose failure of negative association the
    paper's Appendix B exhibits; experiment E26 measures its
    correlation structure at scale. *)

val config : t -> Config.t
(** Snapshot of the current configuration. *)

val destination : t -> int
(** [destination t] samples one re-assignment destination from the
    process' law — uniform, weighted, or least-loaded-of-[d] — drawing
    from [rng t] (not from the launch streams).  Exposed so the law
    itself can be tested for goodness of fit. *)

(** {2 Sharded-step kernels}

    The two phases of {!step}, exposed as kernels over raw load /
    arrival arrays so that parallel engines can run them per shard and
    reduce the results.  [Rbb_sim.Sharded] is the canonical caller. *)

val shard_size : int
(** Bins per randomness shard (a constant of the process law). *)

val shard_count : bins:int -> int
(** [⌈bins / shard_size⌉].
    @raise Invalid_argument if [bins <= 0]. *)

val shard_bounds : bins:int -> shard:int -> int * int
(** [(lo, hi)] — the half-open bin range of a shard.
    @raise Invalid_argument if [shard] is out of range. *)

val shard_master : Rbb_prng.Rng.t -> int64
(** The master key a process created from [rng] in its current state
    would use for its launch streams.  Consumes one draw, exactly as
    {!create} does. *)

val step_launch :
  rng:Rbb_prng.Rng.t ->
  loads:int array ->
  arrivals:int array ->
  capacity:int ->
  d:int ->
  ?alias:Rbb_prng.Alias.t ->
  lo:int ->
  hi:int ->
  unit ->
  unit
(** Phase 1 for bins [lo, hi): every non-empty bin launches
    [min load capacity] balls, incrementing [arrivals] at each sampled
    destination (destinations range over {e all} bins).  Reads [loads]
    without mutating it; all randomness comes from [rng], which must be
    the {!Rbb_prng.Stream.for_shard} stream of this round and shard for
    engines that want reproducibility.  [arrivals] must be at least as
    long as [loads].  With [d = 1] and no [alias] the block's
    destinations come from one {!Rbb_prng.Rng.scatter_below} call,
    which draws exactly what one [int_below] per ball, in bin order,
    would draw. *)

val step_settle :
  loads:int array -> arrivals:int array -> capacity:int -> lo:int -> hi:int ->
  int * int
(** Phase 2 for bins [lo, hi): applies departures and arrivals to
    [loads] and returns [(max_load, empty_bins)] of the settled slice,
    ready for a per-shard reduce. *)

val step_settle_into :
  src:int array ->
  dst:int array ->
  arrivals:int array ->
  capacity:int ->
  lo:int ->
  hi:int ->
  int * int
(** {!step_settle} with separate source and destination arrays
    ([step_settle] is the aliased [src == dst] case).  Writing into a
    distinct [dst] leaves the pre-round configuration intact, which
    makes the phase a pure function of committed state — the property
    the supervised [Rbb_sim.Sharded] engine relies on to retry a failed
    settle slice with bit-identical results. *)

val set_config : t -> Config.t -> unit
(** [set_config t q] overwrites the load vector with [q] (round counter
    and generator state are kept): the §4.1 adversary's move.  The
    paper's adversary conserves the number of balls, and so does this
    function.
    @raise Invalid_argument if [q] has a different bin count or ball
    count. *)

val rng : t -> Rbb_prng.Rng.t

val engine : ?probe:Probe.t -> t -> Engine.t
(** This engine as the drivers see it ([kind = Balls]).  Its [step] is
    [run ~probe ~rounds:1], so a live [probe] sees every driven round,
    [process.run] timer included. *)

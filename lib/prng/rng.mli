(** Unified pseudo-random engine.

    Every stochastic component of the library draws randomness through a
    value of type {!t}, so that each experiment is exactly reproducible
    from a seed and can be re-run under a different generator family to
    check that results are not an artifact of one generator (see
    DESIGN.md §7). *)

type engine = Xoshiro | Pcg | Splitmix
(** Available generator families.  [Xoshiro] — xoshiro256** — is the
    default; [Pcg] (PCG32) is an unrelated family for cross-checks;
    [Splitmix] (SplitMix64) is a fast fallback used mainly in tests. *)

type t
(** A mutable stream of random bits. *)

val create : ?engine:engine -> seed:int64 -> unit -> t
(** [create ~seed ()] builds a fresh stream.  Equal [(engine, seed)]
    pairs give identical streams. *)

val engine : t -> engine
(** [engine t] is the family that backs [t]. *)

val seed : t -> int64
(** [seed t] is the seed [t] was created from (splits derive new ones). *)

val copy : t -> t
(** [copy t] snapshots the stream: the copy and the original then produce
    the same future draws. *)

type snapshot = { snap_engine : engine; snap_seed : int64; words : int64 array }
(** A serializable image of a stream: engine family, originating seed,
    and the engine's raw state words ({!Xoshiro256.state} /
    {!Pcg32.state} / {!Splitmix64.state}).  This is the representation
    crash-safe checkpoints persist. *)

val snapshot : t -> snapshot
(** [snapshot t] captures the exact stream state: a generator rebuilt
    with {!of_snapshot} produces bit-identical future draws. *)

val of_snapshot : snapshot -> t
(** Rebuild a stream from a {!snapshot}.
    @raise Invalid_argument if the state words are invalid for the
    engine (wrong count, all-zero xoshiro state, even pcg increment). *)

val engine_name : engine -> string
(** Stable identifier of the family (["xoshiro256**"], ["pcg32"],
    ["splitmix64"]) — the form persisted in checkpoint files. *)

val engine_of_name : string -> engine option
(** Inverse of {!engine_name}. *)

val split : t -> t
(** [split t] derives a statistically independent child stream and
    advances [t].  For the xoshiro engine the child is additionally
    separated by a [2^128] jump, guaranteeing non-overlap. *)

val next_u64 : t -> int64
(** [next_u64 t] is 64 uniformly random bits. *)

val fill_int62 : t -> int array -> pos:int -> len:int -> unit
(** [fill_int62 t a ~pos ~len] stores the low 62 bits of [len]
    successive {!next_u64} draws into [a.(pos) .. a.(pos+len-1)] as
    non-negative native ints.  The batched fill is bit-compatible with a
    [next_u64] loop on every engine but roughly an order of magnitude
    faster, which is what makes the count-based round kernel
    ({!Multinomial}) viable.
    @raise Invalid_argument if the range is out of bounds. *)

val bits30 : t -> int
(** [bits30 t] is a uniformly random non-negative int in [[0, 2^30)]. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform on [[0, n)].  Unbiased (mask-and-reject).
    @raise Invalid_argument if [n <= 0]. *)

val scatter_below : t -> bound:int -> count:int -> into:int array -> unit
(** [scatter_below t ~bound ~count ~into] adds 1 to [into] at each of
    [count] indexes drawn exactly as [count] successive
    [int_below t bound] calls would draw them, and leaves [t] in the
    state those calls would leave: [bound = 1] or [count = 0] draws
    nothing.  The xoshiro engine runs the whole batch in one loop with
    its state in registers, an order of magnitude faster than the calls;
    this is the per-ball round kernel's launch phase.
    @raise Invalid_argument if [bound <= 0], [count < 0] or
    [Array.length into < bound]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform on the inclusive range
    [[lo, hi]].  @raise Invalid_argument if [hi < lo]. *)

val float_unit : t -> float
(** [float_unit t] is uniform on [[0, 1)] with 53 random bits. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val pp : Format.formatter -> t -> unit
(** Prints the engine name and originating seed (not the state). *)

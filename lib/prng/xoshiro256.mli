(** xoshiro256** pseudo-random generator (Blackman & Vigna, 2018).

    256-bit state, period [2^256 - 1], excellent statistical quality and
    a cheap [jump] function that advances the stream by [2^128] steps,
    giving up to [2^128] provably non-overlapping parallel substreams.
    This is the default engine of {!Rng}. *)

type t
(** Mutable generator state. *)

val create : seed:int64 -> t
(** [create ~seed] expands [seed] into a full 256-bit state through
    SplitMix64, as recommended by the authors. *)

val copy : t -> t
(** [copy g] is an independent snapshot of [g]'s current state. *)

val state : t -> int64 array
(** [state g] is the current 256-bit state as 4 words — together with
    {!of_state} this is the crash-safe checkpoint representation of the
    stream. *)

val of_state : int64 array -> t
(** [of_state s] rebuilds a generator from 4 state words:
    [of_state (state g)] produces exactly [g]'s future draws.
    @raise Invalid_argument on a wrong length or the all-zero state. *)

val next_u64 : t -> int64
(** [next_u64 g] advances [g] and returns 64 uniformly random bits. *)

val fill_int62 : t -> int array -> pos:int -> len:int -> unit
(** [fill_int62 g a ~pos ~len] stores the low 62 bits of [len]
    successive {!next_u64} draws into [a.(pos) .. a.(pos+len-1)] as
    non-negative native ints.  Bit-compatible with calling [next_u64] in
    a loop, but batched so the state stays in registers.
    @raise Invalid_argument if the range is out of bounds. *)

val scatter_below :
  t -> mask:int -> bound:int -> count:int -> into:int array -> unit
(** [scatter_below g ~mask ~bound ~count ~into] draws until [count]
    values [v = (next_u64 g lsr 2) land mask] have fallen below [bound],
    adding 1 to [into.(v)] for each: {!Rbb_prng.Rng.scatter_below}'s
    loop for this engine, with the state kept in registers.  [mask]
    must cover [bound - 1] for the draws to be uniform.
    @raise Invalid_argument if [bound <= 0] or
    [Array.length into < bound]. *)

val jump : t -> unit
(** [jump g] advances [g] by [2^128] steps in place.  Calling [jump] on a
    copy yields a stream guaranteed not to overlap the original for
    [2^128] draws. *)

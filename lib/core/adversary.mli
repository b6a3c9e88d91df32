(** The transient-fault adversary of paper §4.1.

    In a faulty round the adversary may re-assign all balls to bins in
    an arbitrary way (ball count conserved).  The paper shows the
    [O(n log² n)] cover-time bound survives as long as faults occur at
    most once every [γ·n] rounds, γ ≥ 6. *)

type action =
  | Pile_into of int
      (** stack every ball in the given bin — the harshest fault *)
  | Reshuffle
      (** throw every ball in an independent uniformly random bin *)
  | Rotate of int
      (** shift every bin's content [k] bins to the right (a "benign"
          permutation fault that preserves the load multiset) *)

type schedule =
  | Never
  | Every of int  (** one faulty round every [k] rounds ([k >= 1]) *)
  | At_rounds of int list  (** explicit faulty round numbers *)

val is_faulty_round : schedule -> int -> bool
(** [is_faulty_round s r]: does round [r] (1-based, the round about to
    be executed) begin with a fault?
    @raise Invalid_argument on [Every k] with [k < 1]. *)

val perturb : action -> Rbb_prng.Rng.t -> Config.t -> Config.t
(** [perturb a rng q] is the configuration the adversary leaves behind.
    Ball and bin counts are preserved. *)

val run_with_faults :
  schedule:schedule -> action:action -> rounds:int -> Engine.t -> Metrics.t
(** Drives any engine for [rounds] rounds, applying the fault before
    each scheduled round, and records per-round metrics.  Faulty-round
    configurations are included in the recorded series, so recovery
    spikes are visible.  Perturbations draw from the engine's creation
    stream, so engines that share a randomness law and a creation rng
    state keep bit-identical faulty trajectories. *)

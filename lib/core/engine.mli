(** One engine realising the repeated balls-into-bins chain, as the
    drivers see it.

    Four engines realise the paper's process: {!Process} and
    {!Counts_process} sequentially, [Rbb_sim.Sharded] and
    [Rbb_sim.Sharded_counts] across domains.  Each exports
    [engine : ... -> t], and every driver — the CLI's [simulate],
    daemon jobs, the §4.1 adversary ({!Adversary.run_with_faults}),
    recovery measurement, checkpoint capture — is written once against
    this record.  A new engine arrives as one more producer of [t], not
    as a new branch in each driver. *)

(** The engine family, which fixes how a trajectory consumes
    randomness.  Families are equal in law but not in bits, so a
    checkpoint records its family and a resume must match it. *)
type kind =
  | Balls  (** per-ball sampling: {!Process}, [Rbb_sim.Sharded] *)
  | Counts
      (** per-block count sampling: {!Counts_process},
          [Rbb_sim.Sharded_counts] *)

val kind_name : kind -> string
(** ["balls"] or ["counts"]: the spelling of checkpoints, job specs and
    the CLI's [--engine]. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}. *)

type t = {
  kind : kind;
  n : int;  (** bins *)
  balls : int;  (** balls (conserved) *)
  rng : Rbb_prng.Rng.t;
      (** the creation stream after its master-key draw: the adversary
          draws its perturbations from it and checkpoints snapshot it *)
  step : unit -> unit;  (** advance one synchronous round *)
  round : unit -> int;  (** completed rounds *)
  max_load : unit -> int;
  empty_bins : unit -> int;
  config : unit -> Config.t;  (** snapshot of the current configuration *)
  set_config : Config.t -> unit;
      (** the adversary's move (round counter and generator kept).
          @raise Invalid_argument on a different bin or ball count. *)
  master : int64;  (** launch-stream master key *)
  d_choices : int;  (** always 1 for [Counts] *)
  capacity : int;
  weighted : bool;
      (** a non-uniform re-assignment law is installed (such an engine
          cannot be checkpointed) *)
}

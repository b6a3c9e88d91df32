(** Named fault-injection points for the parallel engines.

    Production fault tolerance cannot be tested against faults that
    never happen: a failpoint set, threaded through {!Sharded}, makes a
    named phase raise {!Injected} at chosen coordinates so the
    {!Supervisor}'s retry / degrade machinery is exercised
    deterministically (the robustness counterpart of the paper's §4.1
    adversary, which perturbs the {e state} rather than the
    {e execution}).

    Firing is a pure function of the spec and the
    [(round, shard, attempt)] coordinates — deterministic triggers name
    them outright, probabilistic ones hash them under a seed (a stable
    FNV-1a/SplitMix64 hash, identical across platforms) — so every run,
    and every retried attempt within a run, replays faults identically.
    The {!noop} set costs one pattern match per guard, preserving the
    pay-for-what-you-use discipline of {!Telemetry} and {!Tracer}. *)

type trigger =
  | At of { round : int option; shard : int option; fails : int }
      (** Fires when the round and shard match ([None] matches any) on
          attempts [0 .. fails - 1]: with the default [fails = 1] the
          first retry succeeds. *)
  | Prob of { p : float; seed : int64 }
      (** Fires with probability [p], decided by hashing
          [(seed, name, round, shard, attempt)] — each attempt is an
          independent, reproducible coin flip. *)

type spec = { name : string; trigger : trigger }

type t
(** A set of failpoint specs (possibly inert). *)

exception
  Injected of { name : string; round : int; shard : int; attempt : int }
(** The synthetic fault.  Registered with a printer, so an unhandled
    injection reports its coordinates. *)

val noop : t
(** The empty set: never fires, single pattern match per guard. *)

val of_specs : spec list -> t
(** [of_specs []] is {!noop}. *)

val enabled : t -> bool

val known_names : string list
(** The names actually guarded: the engine phases ([sharded.launch],
    [sharded.merge], [sharded.settle]) and the {!Fileio} syscall shim
    ([io.write], [io.fsync], [io.rename], [io.lock] — for these,
    [round] is the 0-based index of the faultable operation since
    {!Fileio.set_failpoints} armed the shim, and [shard] and [attempt]
    are always [0]).  The CLI rejects other names so a typo cannot
    silently inject nothing. *)

val hash_unit :
  seed:int64 -> name:string -> round:int -> shard:int -> attempt:int -> float
(** The stable uniform-[0,1)] hash behind [Prob] triggers, exported for
    other deterministic per-coordinate draws (e.g. {!Supervisor}'s
    decorrelated backoff jitter): FNV-1a over [name] folded with the
    coordinates through SplitMix64 finalizers, identical across builds
    and platforms. *)

val fires : t -> name:string -> round:int -> shard:int -> attempt:int -> bool
(** Pure firing decision for one guard evaluation.  [round] is the
    0-based round being executed, [shard] the worker/shard index,
    [attempt] the 0-based retry attempt. *)

val trip : t -> name:string -> round:int -> shard:int -> attempt:int -> unit
(** Raise {!Injected} iff {!fires}. *)

val parse : string -> (spec, string) result
(** Parse the CLI spec syntax: [NAME], [NAME@round=R[,shard=S][,fails=K]]
    or [NAME@p=P[,seed=S]].  Errors are prose suitable for printing
    verbatim.  Name membership in {!known_names} is {e not} checked
    here (the CLI does), so tests can define private points. *)

val to_string : spec -> string
(** Render a spec back to the {!parse} syntax (used in trace events). *)

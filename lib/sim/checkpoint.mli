(** Crash-safe checkpoint / resume (schema [rbb.checkpoint/1]).

    A checkpoint captures everything a trajectory's future depends on —
    round counter, full configuration, the creation-stream PRNG state
    ({!Rbb_prng.Rng.snapshot}) with the launch-stream master key, and
    the deterministic {!Telemetry} counters.  The per-round launch
    streams are pure functions of [(master, round, block)]
    ({!Rbb_prng.Stream.for_shard}) and need no state of their own, so
    resuming is exact: {b a run interrupted at round k and resumed is
    bit-identical to the run that never stopped}, on both the
    sequential {!Rbb_core.Process} and the domain-parallel {!Sharded}
    engine (and across them, since the engines are themselves
    bit-identical).

    The file format is NDJSON in the {!Jsonl} dialect (flat objects,
    sorted keys, fixed number formats) — deterministic byte-for-byte
    for a fixed state.  Int64 values travel as hex strings (OCaml's
    int is 63-bit).  Files are published atomically ({!Fileio}: unique
    temp, fsync, rename), and a record-count trailer rejects truncation
    arriving through other channels.

    Deliberately {e not} captured: wall-clock telemetry (timers,
    latency histograms — meaningless across a crash), tracer sink
    state (traces are append streams owned by each run), and weighted
    ([?weights]) engines, which {!capture} rejects. *)

type kind = Rbb_core.Engine.kind = Balls | Counts

type snapshot = {
  round : int;  (** completed rounds *)
  config : Rbb_core.Config.t;  (** configuration after [round] rounds *)
  rng : Rbb_prng.Rng.snapshot;  (** creation-stream state *)
  master : int64;  (** launch-stream master key *)
  kind : kind;  (** which engine family produced the trajectory *)
  d_choices : int;  (** always 1 when [kind = Counts] *)
  capacity : int;
  counters : (string * int) list;  (** telemetry counters, sorted *)
}

val capture : ?telemetry:Telemetry.t -> Rbb_core.Engine.t -> snapshot
(** Snapshot any engine, with the counters of [telemetry] (default
    none) — for a parallel engine, pass the sink attached to it.  A
    [Counts] snapshot's file gains an ["engine_kind"] header field;
    balls checkpoints carry no such field, so their bytes are unchanged
    by the counts extension.
    @raise Invalid_argument on a weighted engine. *)

val capture_process : ?telemetry:Telemetry.t -> Rbb_core.Process.t -> snapshot
(** [capture ?telemetry (Process.engine p)]. *)

val capture_counts :
  ?telemetry:Telemetry.t -> Rbb_core.Counts_process.t -> snapshot
(** [capture ?telemetry (Counts_process.engine c)]. *)

val capture_sharded_counts : Sharded_counts.t -> snapshot
(** {!capture} with the counters of the engine's attached sink. *)

val save : path:string -> snapshot -> unit
(** Write atomically: the file at [path] is either the complete old
    content or the complete new one, never a torn mixture, even across
    power loss (the temp file is fsynced before the rename).  The end
    record carries a CRC-32 trailer ({!Integrity}) over every
    preceding byte, so {!load} detects any in-place corruption. *)

val load :
  ?on_warning:(string -> unit) ->
  path:string ->
  unit ->
  (snapshot, string) result
(** Parse, checksum and validate.  Errors are prose (unreadable file,
    schema mismatch, truncation, CRC mismatch, inconsistent loads,
    invalid PRNG state...) suitable for printing verbatim; the CLI pins
    them in cram tests.  A trailer-less file from before the CRC-32
    era still loads, and [on_warning] (default: ignore) is told its
    content went unverified. *)

val to_process : snapshot -> Rbb_core.Process.t
(** Rebuild the sequential engine, consuming no randomness
    ({!Rbb_core.Process.restore}).
    @raise Invalid_argument if [kind = Counts]: the engine families
    consume randomness under different laws, so a cross-kind resume
    would silently change the trajectory while looking exact. *)

val to_counts : snapshot -> Rbb_core.Counts_process.t
(** Rebuild the sequential counts engine
    ({!Rbb_core.Counts_process.restore}).
    @raise Invalid_argument if [kind = Balls]. *)

val to_sharded_counts :
  ?telemetry:Telemetry.t ->
  ?tracer:Tracer.t ->
  ?domains:int ->
  snapshot ->
  Sharded_counts.t
(** Rebuild the parallel counts engine ({!Sharded_counts.restore});
    [domains] may differ from the checkpointing run's.
    @raise Invalid_argument if [kind = Balls]. *)

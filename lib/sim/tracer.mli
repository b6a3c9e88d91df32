(** Round-level event tracing: NDJSON observable streams, legitimacy /
    Lemma-2 threshold events, and Chrome trace-event spans.

    A tracer streams three families of records while a simulation runs:

    - {b observables} — one [{"type":"observable",...}] line per
      reported round carrying [max_load], [empty_bins] and [balls];
      reported every round by default or on an exact stride with
      [~every:k] (rounds [r] with [(r - base) mod k = 0], [base] being
      the first round the tracer sees);
    - {b threshold events} — legitimacy enter/exit transitions against
      the Theorem-1 threshold [ceil (beta *. log n)], a one-shot
      convergence record on the first legitimate round, and Lemma-2
      quarter-empty violations ([4 * empty_bins < n]).  These are
      {e never} sampled away: they fire on the exact transition round
      whatever the stride;
    - {b spans} — engine phase timings (launch/settle/merge/barrier
      steps of {!Rbb_core.Process}, {!Rbb_core.Tetris} and {!Sharded}),
      stride-gated like observables.

    Records stream to their sinks as they are emitted, so memory use is
    O(1) in the trace length.  The NDJSON sink speaks schema
    [rbb.trace/1]: one flat JSON object per line, sorted keys, fixed
    number formats ({!Jsonl}), first line a [header] record.  The
    optional Chrome sink writes a trace-event (catapult) JSON document
    loadable in Perfetto / [chrome://tracing].  File sinks publish
    atomically on {!close} ({!Fileio}).

    Same determinism discipline as {!Telemetry}: a tracer never touches
    an engine's RNG, so trajectories are bit-identical with tracing on
    or off; {!noop} costs a single pattern match per operation; an
    active tracer serialises emission with one mutex and is safe to
    share across domains. *)

type t

type sink_spec = [ `Buffer of Buffer.t | `File of string ]
(** Where a stream goes.  [`File path] streams into
    [path ^ ".tmp.<pid>.<k>"] and renames onto [path] at {!close}, so
    [path] appears only when the trace is complete. *)

val noop : t
(** The disabled tracer: every operation is a single pattern match. *)

val create :
  ?clock:(unit -> int64) ->
  ?every:int ->
  ?beta:float ->
  ?m:int ->
  ?ndjson:sink_spec ->
  ?chrome:sink_spec ->
  n:int ->
  unit ->
  t
(** An active tracer for a system of [n] bins.  [clock] (default: the
    process-wide monotonic clock, nanoseconds) exists so tests can
    inject a deterministic clock and pin complete trace documents.
    [every] (default 1) is the reporting stride for observables and
    spans; [beta] (default 4.0) and [m] (the ball count, default [n])
    set the legitimacy threshold
    [Rbb_core.Config.legitimacy_threshold ~beta ~m n].  The NDJSON
    header line (and the Chrome preamble) are written immediately; the
    header carries an ["m"] field only when [m <> n], so m = n traces
    keep their historical bytes.

    @raise Invalid_argument if [every < 1], [n <= 0], [m < 0], or
    [beta] is not finite and positive. *)

val enabled : t -> bool
val now : t -> int64
(** Current clock reading in nanoseconds (0 on {!noop}). *)

val events : t -> int
(** NDJSON records emitted so far (excluding the header; counted even
    when no NDJSON sink is attached). *)

val observe :
  t -> round:int -> max_load:int -> empty_bins:int -> balls:int -> unit
(** Report one completed round.  Emits the stride-gated observable
    record plus any unconditional threshold events the round triggers.
    Legitimacy transitions are detected against the {e previous}
    observed round; the first observation sets the baseline without
    emitting an enter/exit event. *)

val span :
  t -> name:string -> worker:int -> round:int -> t0:int64 -> t1:int64 -> unit
(** Report one engine phase spanning clock readings [t0..t1] (ns).
    Stride-gated by the round it belongs to. *)

val fault :
  t ->
  name:string ->
  round:int ->
  shard:int ->
  attempt:int ->
  detail:string ->
  unit
(** Record one injected-or-real fault / retry / degradation event (a
    [{"type":"fault",...}] line plus a Chrome instant).  Like threshold
    events, faults are {e never} stride-gated: every one is visible in
    the trace.  [detail] is free prose (the error, or
    ["retry backoff=..."] / ["degraded to sequential engine"]). *)

val convergence : ?trial:int -> t -> round:int -> unit
(** Explicitly record a convergence round (used by drivers that detect
    convergence themselves, e.g. per-trial in the [converge] command).
    Not stride-gated and not deduplicated. *)

val close : t -> unit
(** Terminate the Chrome document, flush and atomically publish file
    sinks.  Idempotent; further events after [close] are dropped. *)

val probe : t -> Rbb_core.Probe.t
(** A tracing-only probe driving this tracer ({!Rbb_core.Probe.noop}
    for {!noop}): engines report rounds and phase spans through it
    without [Rbb_core] depending on this library.  Its clock is the
    tracer's, so span endpoints and instant events share a time base.
    Compose with a telemetry probe via {!Rbb_core.Probe.compose}. *)

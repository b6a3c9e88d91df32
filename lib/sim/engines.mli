(** The engine chooser: the one place that picks which of the four
    engines realises the chain.

    The family comes from [kind] (or from the snapshot).  Within it,
    the parallel engine ({!Sharded}, {!Sharded_counts}) runs iff
    [shards > 1], [domains > 1] or [failpoints] are armed; otherwise
    the sequential one ({!Rbb_core.Process}, {!Rbb_core.Counts_process})
    does.  Both engines of a family produce bit-identical trajectories,
    so the choice changes wall-clock time only.

    [telemetry] and [tracer] (default: the noop sinks) reach every
    engine as one probe composed from both — a sequential engine's
    [?probe], a parallel engine's round loop ({!Parallel.rounds}) — so
    {!Checkpoint.capture} [~telemetry] with the same sink captures the
    same counters from either.  [failpoints] and
    [supervisor] guard the per-ball parallel engine's phases
    ({!Sharded.create}). *)

val create :
  ?telemetry:Telemetry.t ->
  ?tracer:Tracer.t ->
  ?failpoints:Failpoint.t ->
  ?supervisor:Supervisor.t ->
  ?d_choices:int ->
  ?shards:int ->
  ?domains:int ->
  kind:Rbb_core.Engine.kind ->
  rng:Rbb_prng.Rng.t ->
  init:Rbb_core.Config.t ->
  unit ->
  Rbb_core.Engine.t
(** A fresh engine at [init], drawing its master key from [rng] exactly
    as every engine's [create] does.  [d_choices], [shards] and
    [domains] default to 1.
    @raise Invalid_argument if [kind = Counts] with [d_choices > 1] or
    with armed [failpoints], or under the chosen engine's own
    conditions. *)

val restore :
  ?telemetry:Telemetry.t ->
  ?tracer:Tracer.t ->
  ?failpoints:Failpoint.t ->
  ?supervisor:Supervisor.t ->
  ?shards:int ->
  ?domains:int ->
  Checkpoint.snapshot ->
  Rbb_core.Engine.t
(** The snapshot's engine family, mid-trajectory, consuming no
    randomness: continuing it is bit-identical to the run that was
    captured.  The snapshot's counters are added to [telemetry], so a
    resumed run's final counter totals equal the uninterrupted run's.
    [shards] and [domains] may differ from the checkpointing run's.
    @raise Invalid_argument as {!create}. *)

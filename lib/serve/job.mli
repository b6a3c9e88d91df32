(** Deterministic, crash-safe execution of one [rbb.job/1] job.

    A job's on-disk footprint under the daemon's state directory is

    - [<id>.job] — the accepted spec (written atomically on admission,
      {e before} the submit is acknowledged: an acknowledged job
      survives any crash);
    - [<id>.ckpt] — a rolling {!Rbb_sim.Checkpoint} snapshot, republished
      atomically every [checkpoint_every] rounds while running;
    - [<id>.result] — the one-line [rbb.job-result/1] document, written
      atomically on completion.  Its presence marks the job done.
    - [<id>.failed] — a one-line [rbb.job-failed/1] marker (last
      checkpointed round + error detail), written when a run raises.
      Its presence marks the job permanently failed: {!scan} skips it,
      so a restarted daemon does not resubmit a job that would only
      re-fail forever.
    - [quarantine/] — corrupt artifacts (checkpoints whose CRC or
      schema fails to load, unparseable spec files) are {e moved} here
      rather than deleted: evidence for the operator, out of the way of
      the recovery path.

    {!run} picks up whatever is on disk: with a checkpoint it resumes
    mid-trajectory (bit-identically — {!Rbb_sim.Checkpoint}'s exactness
    guarantee); with a {e corrupt} checkpoint it quarantines the file
    and restarts from the durable spec; otherwise it starts fresh.
    Because every result field is a deterministic function of the final
    engine state and the spec, {b a job interrupted by [kill -9] and
    re-run — even one whose checkpoint was corrupted and quarantined —
    produces a result document byte-identical to an uninterrupted
    run's}. *)

val spec_path : state_dir:string -> id:string -> string
val checkpoint_path : state_dir:string -> id:string -> string
val result_path : state_dir:string -> id:string -> string
val failed_path : state_dir:string -> id:string -> string

val quarantine_dir : state_dir:string -> string
(** [state_dir ^ "/quarantine"], created on first use. *)

val quarantine_file : state_dir:string -> path:string -> string option
(** Move [path] into the quarantine directory (creating it if needed),
    suffixing the name if a previous offender already sits there.
    Returns the destination, or [None] when the move failed (the caller
    must then make sure the poison is not re-read). *)

exception Canceled of { id : string; round : int; reason : string }
(** Raised out of {!run} when [should_stop] asks for cancellation —
    the daemon's deadline watchdog turns this into a durable [.failed]
    marker.  [round] is the last completed round. *)

val write_spec : state_dir:string -> id:string -> Protocol.job_spec -> unit
(** Publish [<id>.job] atomically (one [rbb.job-spec/1] line). *)

val write_failed :
  state_dir:string -> id:string -> round:int -> detail:string -> unit
(** Publish [<id>.failed] atomically: the job's durable failure record
    ([round] is the last checkpointed round the run reached). *)

val first_line :
  string -> [ `Missing of string | `Empty | `Unreadable of string | `Line of string ]
(** The first line of a record file, without its newline.  [`Missing]
    when the path cannot be opened; [`Unreadable] when it opens but
    reading fails (a directory opens, then fails on read). *)

val read_failed : state_dir:string -> id:string -> (int * string) option
(** [(round, detail)] from the failure marker, if one exists.  An
    existing but unreadable marker still counts as a failure (with
    placeholder detail): presence is the fact. *)

val load_spec : path:string -> (string * Protocol.job_spec, string) result
(** Read back a spec file: [(id, spec)]. *)

val scan :
  ?on_quarantine:(id:string -> reason:string -> unit) ->
  state_dir:string ->
  unit ->
  (string * Protocol.job_spec) list * int
(** All jobs on disk with a spec but neither a result nor a failure
    marker — the work a restarted daemon must finish — sorted by id,
    plus the successor of the largest job sequence number seen (for
    fresh id allocation; failed jobs still advance the sequence).
    A spec file that no longer parses (or names a different id) is
    quarantined and a durable [.failed] marker is written in its place,
    so an acknowledged job can corrupt to {e failed} but never to
    {e silently absent}; [on_quarantine] observes each such event. *)

val fresh_id : int -> string
(** ["job-%06d"]. *)

val run :
  ?on_progress:(round:int -> unit) ->
  ?on_quarantine:(path:string -> reason:string -> unit) ->
  ?on_save_error:(round:int -> error:string -> unit) ->
  ?should_stop:(unit -> string option) ->
  state_dir:string ->
  checkpoint_every:int ->
  id:string ->
  Protocol.job_spec ->
  (string * Rbb_sim.Jsonl.value) list
(** Run (or resume) the job to completion and publish its result;
    returns the result fields.  [on_progress] fires at every checkpoint
    publication with the completed round.  An unreadable or
    wrong-engine checkpoint is quarantined ([on_quarantine] observes
    the destination and reason) and the job restarts from the spec —
    deterministically byte-identical, see above.  A checkpoint save
    that raises (disk full, injected I/O fault) is reported to
    [on_save_error] and the run continues on the previous snapshot; the
    final result write is retried a few times before the exception
    escapes.  [should_stop] is polled once per round; a [Some reason]
    cancels the run.
    @raise Invalid_argument if [checkpoint_every < 1] or the spec is
    invalid; {!Canceled} when [should_stop] fired. *)

val result_body : (string * Rbb_sim.Jsonl.value) list -> string
(** The result document line (no trailing newline) — the exact bytes
    stored in [<id>.result] and echoed through [Job_result]. *)

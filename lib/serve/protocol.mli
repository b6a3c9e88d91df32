(** The [rbb.job/1] wire protocol: length-prefixed NDJSON frames over a
    Unix-domain socket.

    One frame carries one flat JSON object in the {!Rbb_sim.Jsonl}
    dialect (sorted keys, fixed number formats — deterministic bytes
    for a fixed value).  The frame encoding is

    {v <decimal payload length>\n<payload>\n v}

    so a frame is self-delimiting without being fragile to embedded
    data: readers never scan JSON for boundaries, they read exactly the
    advertised byte count.  Every payload object carries
    ["schema":"rbb.job/1"] and a ["type"] discriminator.

    Decoding is {e total}: malformed frames and payloads map to
    structured {!frame_error}s / prose [Error]s instead of exceptions,
    so a server can answer garbage with an [error] response and keep
    the connection alive.  The one unrecoverable case is a corrupt
    frame {e header} (the stream can no longer be re-synchronised);
    {!frame_error.fatal} marks it. *)

val schema : string
(** ["rbb.job/1"]. *)

val default_max_frame : int
(** 65536 bytes of payload. *)

(** {2 Job specifications} *)

type engine = Rbb_core.Engine.kind = Balls | Counts

type job_spec = {
  n : int;  (** bins *)
  m : int;
      (** balls.  On the wire ["m"] is optional and defaults to [n]
          (the paper's m = n regime); encoders emit it only when
          [m <> n], so m = n specs keep their historical bytes and old
          clients keep working. *)
  rounds : int;  (** rounds to run *)
  seed : int;  (** PRNG seed; jobs are deterministic in it *)
  init : string;
      (** ["uniform"] (m = n only), ["balanced"], ["pile"] or
          ["random"] *)
  engine : engine;
  deadline_s : float;
      (** wall-clock budget, measured from dispatch to a worker.  On
          the wire ["deadline_s"] is optional and defaults to
          [infinity] (no deadline); encoders emit it only when finite,
          so deadline-less specs keep their historical bytes.  The
          daemon's watchdog fails an over-deadline job through the
          durable [.failed] machinery and frees the worker. *)
}

val validate_spec : job_spec -> (unit, string) result
(** Field validation ([n >= 1], [m >= 0], [rounds >= 0],
    [deadline_s > 0] and not NaN, known [init]; ["uniform"]
    additionally requires [m = n] — use ["balanced"] for the even
    spread of an arbitrary ball count). *)

val spec_fields : job_spec -> (string * Rbb_sim.Jsonl.value) list
(** The spec's fields as they travel in a [submit] request and in a
    job's spec file: ["m"] only when [m <> n], ["deadline_s"] only when
    finite, so default-valued specs keep their historical bytes. *)

val spec_of_fields :
  (string * Rbb_sim.Jsonl.value) list -> (job_spec, string) result
(** Inverse of {!spec_fields}, then {!validate_spec}; extra fields are
    ignored. *)

(** {2 Requests and responses} *)

type request =
  | Ping
  | Submit of job_spec
  | Status of string  (** job id *)
  | Result of string  (** job id *)
  | Subscribe of string option  (** [None] = all jobs *)
  | Stats
  | Metrics  (** scrape the daemon's Prometheus exposition *)
  | Reset_stats
  | Shutdown

type event = {
  ev : string;
      (** ["accepted"], ["started"], ["checkpoint"], ["quarantined"],
          ["done"], ["failed"] *)
  id : string;
  round : int;  (** progress round; 0 when not meaningful *)
  detail : string;  (** free prose; [""] when absent *)
}

type response =
  | Pong
  | Ok_reply
  | Accepted of { id : string; queue_depth : int }
  | Rejected of { retry_after_ms : int; queue_depth : int }
      (** admission control: the queue is full; try again after the
          hinted backoff *)
  | Job_status of { id : string; state : string; round : int }
      (** [state]: ["queued"], ["running"], ["done"], ["failed"],
          ["unknown"] *)
  | Job_result of { id : string; body : string }
      (** [body] is the job's result document verbatim — the exact
          bytes of the one-line [rbb.job-result/1] object the daemon
          published, so a client can compare results byte for byte *)
  | Stats_reply of (string * Rbb_sim.Jsonl.value) list
      (** measured service statistics, as flat fields (see {!Daemon}) *)
  | Metrics_reply of { body : string }
      (** the Prometheus text-format exposition, verbatim — the same
          bytes the daemon publishes to [metrics.prom].  Can exceed
          {!default_max_frame} on a busy daemon; scraping clients
          should connect with a roomier [max_frame] *)
  | Event of event  (** streamed to subscribers *)
  | Error_reply of { code : string; message : string }
      (** structured rejection: [code] is machine-readable
          (["bad_frame"], ["bad_json"], ["bad_request"], ["oversized"],
          ["unknown_job"], ["job_failed"], ["shutting_down"]) *)

(** {2 Payload codec} *)

val request_to_json : request -> string
val request_of_json : string -> (request, string) result
val response_to_json : response -> string
val response_of_json : string -> (response, string) result

(** {2 Frame codec} *)

val encode_frame : string -> string
(** Wrap a payload: [len ^ "\n" ^ payload ^ "\n"]. *)

type frame_error = {
  code : string;  (** ["oversized"] or ["bad_frame"] *)
  message : string;
  fatal : bool;
      (** [true] when the stream cannot be re-synchronised (corrupt
          header) and the connection should be closed after the error
          response; [false] when the frame was cleanly skipped *)
}

type extracted =
  | Need_more  (** no complete frame in the buffer yet *)
  | Frame of { payload : string; consumed : int }
  | Skip of { consumed : int; discard : int; error : frame_error }
      (** a well-formed header advertising an oversized payload:
          consume [consumed] bytes now, then discard the next
          [discard] bytes as they arrive, answer with [error], and
          keep the connection *)
  | Corrupt of frame_error  (** unsyncable: answer and close *)

val extract : max_frame:int -> string -> extracted
(** Try to take one frame off the front of a receive buffer. *)

(** Flat JSON objects, one per line (NDJSON helpers).

    {!Tracer} writes its `rbb.trace/1` stream through {!obj} and
    {!Trace_report} reads it back through {!parse}: one self-contained
    scalar-valued JSON object per line, keys sorted, fixed number
    formats — so a recorded document is bit-stable for a fixed input and
    can be pinned by golden tests.  Only the flat scalar subset is
    supported; this is a file-format codec, not a general JSON
    library. *)

type value = Int of int | Float of float | String of string | Bool of bool

val escape : string -> string
(** JSON string-escape (quotes, backslash, control characters). *)

val float_repr : float -> string
(** Deterministic float rendering: integral values as ["x.0"], finite
    values via [%.12g], non-finite as ["null"] (matching
    {!Telemetry}'s policy). *)

val obj : (string * value) list -> string
(** One flat object on one line, keys sorted by [String.compare].  No
    trailing newline. *)

val parse : string -> (string * value) list option
(** Parse one line holding a flat scalar object, in field order.
    Returns [None] on nested containers, syntax errors or trailing
    garbage (readers count and skip such lines).  JSON [null] parses as
    [Float nan]. *)

(** {2 Following a live file}

    An NDJSON file being appended to by a running process (the serve
    daemon's event log) can be read incrementally: a {!tail} remembers
    a byte offset and each {!tail_poll} delivers exactly the
    {e complete} lines appended since the previous poll.  Bytes after
    the last newline are a torn tail — the writer is mid-line, or died
    mid-line — and are deliberately not delivered: they stay on disk
    and the next poll retries from the same offset, the same tolerance
    {!Trace_report} applies to a truncated final line.  The file is
    reopened on every poll, so a tail may be created before the file
    exists. *)

type tail

val tail : ?offset:int -> string -> tail
(** [tail path] starts following [path] from byte [offset] (default 0).
    @raise Invalid_argument if [offset < 0]. *)

val tail_poll : tail -> string list
(** Newly completed lines (without their newlines), advancing the
    offset past them.  [[]] when the file is missing, has not grown, or
    has grown only by a torn (unterminated) tail. *)

val tail_offset : tail -> int
(** Current byte offset: total bytes consumed as complete lines. *)

val tail_pending : tail -> string option
(** The unterminated bytes past the offset right now, if any — the torn
    tail a reader may want to inspect once it knows the writer has
    stopped. *)

(** {2 Field accessors} *)

val find : (string * value) list -> string -> value option
val find_int : (string * value) list -> string -> int option

val find_float : (string * value) list -> string -> float option
(** Accepts [Int] fields too (promoted). *)

val find_string : (string * value) list -> string -> string option

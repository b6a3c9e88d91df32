(** CRC-32 integrity checksums (IEEE 802.3, polynomial 0xEDB88320).

    The storage layer's detection primitive: {!Checkpoint} appends a
    CRC-32 trailer over every record line it writes, and verifies it on
    load, so a bit flip or splice anywhere in a checkpoint surfaces as a
    load [Error] instead of a silently-wrong resumed state.  (Atomic
    publication in {!Fileio} already rules out {e truncation} under the
    published name; the CRC closes the {e corruption} gap — disk rot,
    a hostile editor, a chaos campaign.)

    The state is a plain immutable native int, so incremental
    line-by-line feeding needs no allocation discipline and checksums
    are trivially reproducible: the same byte stream always folds to
    the same digest, on every platform.  {!feed} is table-driven
    slicing-by-8: eight bytes per step on native ints, so checksumming
    a 2 MB checkpoint costs a few milliseconds. *)

type t
(** Running checksum state over the bytes fed so far. *)

val start : t
(** The state of the empty stream. *)

val feed : t -> string -> t
(** Fold a chunk of bytes into the state. *)

val feed_char : t -> char -> t

val digest : t -> int32
(** The CRC-32 of everything fed, as the standard (final-XOR applied)
    32-bit value. *)

val to_hex : t -> string
(** {!digest} rendered as exactly 8 lowercase hex digits — the wire
    form used in checkpoint trailers. *)

val string : string -> int32
(** One-shot [digest (feed start s)].  The classic test vector:
    [string "123456789" = 0xcbf43926l]. *)

val equal_hex : t -> string -> bool
(** Does the stream's digest match a wire-form hex trailer?
    Case-insensitive on the input, tolerant of nothing else. *)

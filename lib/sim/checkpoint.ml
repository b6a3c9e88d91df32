open Rbb_core

(* Crash-safe checkpoints, schema rbb.checkpoint/1.

   A checkpoint is everything a trajectory's future depends on: the
   round counter, the full configuration, the creation-stream PRNG
   state plus the launch-stream master key, and the deterministic
   telemetry counters.  Per-round launch streams need no state of their
   own — they are pure functions of (master, round, block) — which is
   what keeps the format small and the resume exact: a run interrupted
   at round k and resumed is bit-identical to one that never stopped,
   on either engine.

   The file is NDJSON in the same dialect as the trace stream (Jsonl:
   flat objects, sorted keys, fixed number formats), so checkpoints are
   deterministic byte-for-byte for a fixed state and diffable by eye.
   Int64 values (master key, seed, raw generator words) are hex strings
   — OCaml's native int, Jsonl's integer type, has only 63 bits.
   Publication is atomic (Fileio); the end record carries a record
   count (detects out-of-band truncation) and a CRC-32 over every
   preceding byte (detects corruption: a single flipped bit anywhere in
   the file surfaces as a load error instead of a silently different
   resumed trajectory).  Trailer-less files from before the CRC are
   still accepted — with a warning — so old checkpoints stay loadable.

   The loads records, one per 4096 bins, are nearly all of a file's
   bytes, so they skip Jsonl on both sides.  [save] writes each one's
   digits straight into one reused buffer, in the exact text Jsonl.obj
   would render (sorted keys; digits and spaces need no escaping), and
   checksums and outputs it once.  [load] scans a loads record that is
   exactly in that canonical form straight into the load vector; every
   other line — header, rng, counters, end, and any loads record
   spelled differently or malformed — goes through Jsonl.parse and the
   generic record checks, which alone produce error text.  So the
   bytes of every file and the verdict on every file, down to its error
   message, are those of the all-Jsonl codec. *)

let schema = "rbb.checkpoint/1"

type kind = Engine.kind = Balls | Counts

type snapshot = {
  round : int;
  config : Config.t;
  rng : Rbb_prng.Rng.snapshot;
  master : int64;
  kind : kind;
  d_choices : int;
  capacity : int;
  counters : (string * int) list;
}

let capture ?(telemetry = Telemetry.noop) (e : Engine.t) =
  if e.weighted then
    invalid_arg "Checkpoint.capture: weighted engines cannot be checkpointed";
  {
    round = e.round ();
    config = e.config ();
    rng = Rbb_prng.Rng.snapshot e.rng;
    master = e.master;
    kind = e.kind;
    d_choices = e.d_choices;
    capacity = e.capacity;
    counters = Telemetry.counters telemetry;
  }

let capture_process ?telemetry p = capture ?telemetry (Process.engine p)
let capture_counts ?telemetry c = capture ?telemetry (Counts_process.engine c)

let capture_sharded_counts s =
  capture ~telemetry:(Sharded_counts.telemetry s) (Sharded_counts.engine s)

(* Cross-kind restores are rejected rather than coerced: the two
   engine families consume randomness under different laws, so resuming
   a balls trajectory on the counts engine (or vice versa) would
   silently change the realized trajectory while looking like an exact
   resume. *)
let to_process snap =
  if snap.kind <> Balls then
    invalid_arg "Checkpoint.to_process: checkpoint is from the counts engine";
  Process.restore ~d_choices:snap.d_choices ~capacity:snap.capacity
    ~rng:(Rbb_prng.Rng.of_snapshot snap.rng)
    ~master:snap.master ~round:snap.round ~init:snap.config ()

let to_counts snap =
  if snap.kind <> Counts then
    invalid_arg "Checkpoint.to_counts: checkpoint is from the per-ball engine";
  Counts_process.restore ~capacity:snap.capacity
    ~rng:(Rbb_prng.Rng.of_snapshot snap.rng)
    ~master:snap.master ~round:snap.round ~init:snap.config ()

let to_sharded_counts ?telemetry ?tracer ?domains snap =
  if snap.kind <> Counts then
    invalid_arg "Checkpoint.to_sharded_counts: checkpoint is from the per-ball engine";
  Sharded_counts.restore ?telemetry ?tracer ?domains ~capacity:snap.capacity
    ~rng:(Rbb_prng.Rng.of_snapshot snap.rng)
    ~master:snap.master ~round:snap.round ~init:snap.config ()

(* Serialization ------------------------------------------------------ *)

let hex = Printf.sprintf "%Lx"

let of_hex s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some v -> Some v
  | None -> None

(* Load values per NDJSON line; Jsonl objects are flat, so a chunk's
   values are one space-separated string field. *)
let chunk = 4096

(* The fixed text of a loads record around its count, off and values,
   keys in Jsonl's sorted order. *)
let loads_head = {|{"count":|}
let loads_off = {|,"off":|}
let loads_values = {|,"type":"loads","values":"|}
let loads_tail = {|"}|}

(* The decimal digits of a load (nonnegative: Config's invariant). *)
let rec add_decimal b v =
  if v >= 10 then add_decimal b (v / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (v mod 10)))

let save ~path snap =
  let loads = Config.unsafe_loads snap.config in
  let n = Array.length loads in
  Fileio.write_atomic ~path (fun oc ->
      let records = ref 0 in
      let crc = ref Integrity.start in
      (* One newline-terminated record, checksummed and written. *)
      let record s =
        crc := Integrity.feed !crc s;
        output_string oc s;
        incr records
      in
      let line fields = record (Jsonl.obj fields ^ "\n") in
      (* "engine_kind" appears only for counts checkpoints, so every
         balls checkpoint stays byte-identical to the pre-counts
         format (readers default a missing field to Balls). *)
      line
        ([ ("balls", Jsonl.Int (Config.balls snap.config));
           ("capacity", Jsonl.Int snap.capacity);
           ("d_choices", Jsonl.Int snap.d_choices) ]
        @ (match snap.kind with
          | Balls -> []
          | Counts ->
              [ ("engine_kind", Jsonl.String (Engine.kind_name Counts)) ])
        @ [
            ("master", Jsonl.String (hex snap.master));
            ("n", Jsonl.Int n);
            ("round", Jsonl.Int snap.round);
            ("schema", Jsonl.String schema);
            ("type", Jsonl.String "header");
          ]);
      let words = snap.rng.Rbb_prng.Rng.words in
      line
        (("engine",
          Jsonl.String (Rbb_prng.Rng.engine_name snap.rng.Rbb_prng.Rng.snap_engine))
        :: ("len", Jsonl.Int (Array.length words))
        :: ("seed", Jsonl.String (hex snap.rng.Rbb_prng.Rng.snap_seed))
        :: ("type", Jsonl.String "rng")
        :: List.init (Array.length words) (fun i ->
               (Printf.sprintf "w%d" i, Jsonl.String (hex words.(i)))));
      let b = Buffer.create 16384 in
      let off = ref 0 in
      while !off < n do
        let count = Stdlib.min chunk (n - !off) in
        Buffer.clear b;
        Buffer.add_string b loads_head;
        add_decimal b count;
        Buffer.add_string b loads_off;
        add_decimal b !off;
        Buffer.add_string b loads_values;
        for i = !off to !off + count - 1 do
          if i > !off then Buffer.add_char b ' ';
          add_decimal b loads.(i)
        done;
        Buffer.add_string b loads_tail;
        Buffer.add_char b '\n';
        record (Buffer.contents b);
        off := !off + count
      done;
      List.iter
        (fun (name, v) ->
          line
            [
              ("name", Jsonl.String name);
              ("type", Jsonl.String "counter");
              ("value", Jsonl.Int v);
            ])
        snap.counters;
      (* The trailer checksums everything above it, so it cannot go
         through [record] (which would fold it into its own digest). *)
      output_string oc
        (Jsonl.obj
           [
             ("crc32", Jsonl.String (Integrity.to_hex !crc));
             ("records", Jsonl.Int !records);
             ("type", Jsonl.String "end");
           ]);
      output_char oc '\n')

(* Parsing ------------------------------------------------------------ *)

type partial = {
  mutable header : (int * int * int * int * int64 * int * kind) option;
      (* n, balls, d_choices, capacity, master, round, kind *)
  mutable prng : Rbb_prng.Rng.snapshot option;
  mutable loads : int array option;
  mutable filled : int;
  mutable ctrs : (string * int) list;  (* reverse order *)
  mutable finished : bool;
  mutable lines : int;  (* records before the end line *)
  mutable crc : Integrity.t;  (* over every line before the end record *)
  mutable legacy : bool;  (* end record carried no crc32 trailer *)
}

let ( let* ) = Result.bind

let field_int fields key =
  match Jsonl.find_int fields key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: missing integer field %S" key)

let field_string fields key =
  match Jsonl.find_string fields key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: missing string field %S" key)

let field_hex fields key =
  let* s = field_string fields key in
  match of_hex s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "checkpoint: field %S is not a hex int64" key)

exception Not_canonical

(* The loads scanner's steps, each on [line] at [pos]: the position
   after the literal [lit], and an unsigned decimal of 1 to 17 digits
   with the position after it. *)
let literal line pos lit =
  let k = String.length lit in
  if pos + k > String.length line then raise Not_canonical;
  for j = 0 to k - 1 do
    if String.unsafe_get line (pos + j) <> String.unsafe_get lit j then
      raise Not_canonical
  done;
  pos + k

let number line pos =
  let stop = ref pos in
  while
    !stop < String.length line
    && match String.unsafe_get line !stop with '0' .. '9' -> true | _ -> false
  do
    incr stop
  done;
  if !stop = pos || !stop - pos > 17 then raise Not_canonical;
  (int_of_string (String.sub line pos (!stop - pos)), !stop)

(* A loads record exactly as [save] writes it — the fixed text around
   its numbers, unsigned decimals of at most 17 digits (so no sum below
   overflows), values separated by single spaces, nothing after the
   closing brace — is read straight into [loads], and its count
   returned; anything else raises [Not_canonical].  Slots written
   before a line is given up do no harm: the generic path reads the
   same count and off from the same first keys, so it either rewrites
   those slots or fails the load. *)
let claim_loads loads line =
  let len = String.length line in
  let count, pos = number line (literal line 0 loads_head) in
  let off, pos = number line (literal line pos loads_off) in
  let pos = literal line pos loads_values in
  if off + count > Array.length loads then raise Not_canonical;
  (* One pass over the values: a space ends a value and the closing
     quote ends the last one, after 1 to 17 digits each. *)
  let p = ref pos and start = ref pos and i = ref off and v = ref 0 in
  while !i < off + count do
    match if !p < len then String.unsafe_get line !p else '\000' with
    | '0' .. '9' as c ->
        v := (!v * 10) + (Char.code c - 48);
        incr p
    | (' ' | '"') as c ->
        if
          !p = !start
          || !p - !start > 17
          || (c = '"') <> (!i + 1 = off + count)
        then raise Not_canonical;
        loads.(!i) <- !v;
        incr i;
        v := 0;
        if c = ' ' then begin
          incr p;
          start := !p
        end
    | _ -> raise Not_canonical
  done;
  if literal line !p loads_tail <> len then raise Not_canonical;
  count

let parse_line st lineno line =
  if st.finished then Error "checkpoint: content after end record"
  else
    match Jsonl.parse line with
    | None -> Error (Printf.sprintf "checkpoint: unparsable line %d" lineno)
    | Some fields -> (
        st.lines <- st.lines + 1;
        let* ty = field_string fields "type" in
        if ty <> "end" then
          st.crc <- Integrity.feed_char (Integrity.feed st.crc line) '\n';
        match ty with
        | "header" ->
            let* s = field_string fields "schema" in
            if s <> schema then
              Error (Printf.sprintf "checkpoint: unsupported schema %S" s)
            else if st.header <> None then
              Error "checkpoint: duplicate header"
            else
              let* n = field_int fields "n" in
              let* balls = field_int fields "balls" in
              let* d_choices = field_int fields "d_choices" in
              let* capacity = field_int fields "capacity" in
              let* master = field_hex fields "master" in
              let* round = field_int fields "round" in
              let* kind =
                match Jsonl.find_string fields "engine_kind" with
                | None -> Ok Balls
                | Some name -> (
                    match Engine.kind_of_name name with
                    | Some kind -> Ok kind
                    | None ->
                        Error
                          (Printf.sprintf "checkpoint: unknown engine_kind %S"
                             name))
              in
              if n <= 0 then Error "checkpoint: n <= 0"
              else if kind = Counts && d_choices <> 1 then
                Error "checkpoint: counts engine with d_choices <> 1"
              else begin
                st.header <-
                  Some (n, balls, d_choices, capacity, master, round, kind);
                st.loads <- Some (Array.make n (-1));
                Ok ()
              end
        | "rng" ->
            let* name = field_string fields "engine" in
            let* engine =
              match Rbb_prng.Rng.engine_of_name name with
              | Some e -> Ok e
              | None ->
                  Error (Printf.sprintf "checkpoint: unknown rng engine %S" name)
            in
            let* seed = field_hex fields "seed" in
            let* len = field_int fields "len" in
            if len < 1 || len > 16 then Error "checkpoint: bad rng word count"
            else
              let rec words i acc =
                if i = len then Ok (List.rev acc)
                else
                  let* w = field_hex fields (Printf.sprintf "w%d" i) in
                  words (i + 1) (w :: acc)
              in
              let* ws = words 0 [] in
              st.prng <-
                Some
                  {
                    Rbb_prng.Rng.snap_engine = engine;
                    snap_seed = seed;
                    words = Array.of_list ws;
                  };
              Ok ()
        | "loads" -> (
            match st.loads with
            | None -> Error "checkpoint: loads before header"
            | Some loads ->
                let* off = field_int fields "off" in
                let* count = field_int fields "count" in
                let* values = field_string fields "values" in
                if off < 0 || count < 0 || off + count > Array.length loads
                then Error "checkpoint: loads chunk out of range"
                else begin
                  let parts =
                    if values = "" then []
                    else String.split_on_char ' ' values
                  in
                  if List.length parts <> count then
                    Error "checkpoint: loads chunk count mismatch"
                  else begin
                    let i = ref off in
                    let bad = ref false in
                    List.iter
                      (fun p ->
                        match int_of_string_opt p with
                        | Some v when v >= 0 ->
                            loads.(!i) <- v;
                            incr i
                        | _ -> bad := true)
                      parts;
                    if !bad then Error "checkpoint: non-integer load value"
                    else begin
                      st.filled <- st.filled + count;
                      Ok ()
                    end
                  end
                end)
        | "counter" ->
            let* name = field_string fields "name" in
            let* value = field_int fields "value" in
            st.ctrs <- (name, value) :: st.ctrs;
            Ok ()
        | "end" ->
            let* records = field_int fields "records" in
            if records <> st.lines - 1 then
              Error "checkpoint: record count mismatch (truncated file?)"
            else
              let* () =
                match Jsonl.find_string fields "crc32" with
                | None ->
                    (* Pre-integrity trailer: loadable, but the caller
                       is warned that the content went unverified. *)
                    st.legacy <- true;
                    Ok ()
                | Some hex ->
                    if Integrity.equal_hex st.crc hex then Ok ()
                    else
                      Error
                        (Printf.sprintf
                           "checkpoint: crc32 mismatch (trailer %s, content %s \
                            — corrupt file?)"
                           hex (Integrity.to_hex st.crc))
              in
              st.finished <- true;
              Ok ()
        | other -> Error (Printf.sprintf "checkpoint: unknown record type %S" other))

(* A line of the file: once a header has sized the load vector, a
   canonical loads record is claimed with the same bookkeeping as
   [parse_line]'s; every other line goes to [parse_line]. *)
let load_line st lineno line =
  match st.loads with
  | Some loads when not st.finished -> (
      match claim_loads loads line with
      | count ->
          st.lines <- st.lines + 1;
          st.crc <- Integrity.feed_char (Integrity.feed st.crc line) '\n';
          st.filled <- st.filled + count;
          Ok ()
      | exception Not_canonical -> parse_line st lineno line)
  | _ -> parse_line st lineno line

let finish st =
  if not st.finished then Error "checkpoint: missing end record (truncated file?)"
  else
    match (st.header, st.prng, st.loads) with
    | None, _, _ | _, _, None -> Error "checkpoint: missing header"
    | _, None, _ -> Error "checkpoint: missing rng record"
    | ( Some (n, balls, d_choices, capacity, master, round, kind),
        Some rng,
        Some loads ) ->
        (* A slot no record filled still holds -1, the one load
           [Config.of_array] rejects. *)
        match Config.of_array loads with
        | exception Invalid_argument _ ->
            Error "checkpoint: incomplete load vector"
        | _ when st.filled <> n -> Error "checkpoint: incomplete load vector"
        | config ->
            if Config.balls config <> balls then
              Error "checkpoint: ball count disagrees with load vector"
            else if round < 0 || d_choices < 1 || capacity < 1 then
              Error "checkpoint: invalid header parameters"
            else begin
              match Rbb_prng.Rng.of_snapshot rng with
              | exception Invalid_argument msg ->
                  Error (Printf.sprintf "checkpoint: invalid rng state (%s)" msg)
              | _ ->
                  Ok
                    {
                      round;
                      config;
                      rng;
                      master;
                      kind;
                      d_choices;
                      capacity;
                      counters = List.rev st.ctrs;
                    }
            end

let load ?(on_warning = fun (_ : string) -> ()) ~path () =
  match open_in path with
  | exception Sys_error msg -> Error (Printf.sprintf "checkpoint: %s" msg)
  | ic ->
      let st =
        {
          header = None;
          prng = None;
          loads = None;
          filled = 0;
          ctrs = [];
          finished = false;
          lines = 0;
          crc = Integrity.start;
          legacy = false;
        }
      in
      let rec go lineno =
        match input_line ic with
        | exception End_of_file -> finish st
        | line -> (
            match load_line st lineno line with
            | Ok () -> go (lineno + 1)
            | Error _ as e -> e)
      in
      let result = go 1 in
      close_in_noerr ic;
      if Result.is_ok result && st.legacy then
        on_warning
          (Printf.sprintf
             "checkpoint %s: no integrity trailer (pre-crc32 format), content \
              loaded unverified"
             path);
      result

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
   still accepted — with a warning — so old checkpoints stay loadable. *)

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

let save ~path snap =
  let loads = Config.unsafe_loads snap.config in
  let n = Array.length loads in
  Fileio.write_atomic ~path (fun oc ->
      let records = ref 0 in
      let crc = ref Integrity.start in
      let line fields =
        let s = Jsonl.obj fields in
        crc := Integrity.feed_char (Integrity.feed !crc s) '\n';
        output_string oc s;
        output_char oc '\n';
        incr records
      in
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
      let off = ref 0 in
      while !off < n do
        let count = Stdlib.min chunk (n - !off) in
        let b = Buffer.create (count * 3) in
        for i = 0 to count - 1 do
          if i > 0 then Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int loads.(!off + i))
        done;
        line
          [
            ("count", Jsonl.Int count);
            ("off", Jsonl.Int !off);
            ("type", Jsonl.String "loads");
            ("values", Jsonl.String (Buffer.contents b));
          ];
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
         through [line] (which would fold it into its own digest). *)
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

let finish st =
  if not st.finished then Error "checkpoint: missing end record (truncated file?)"
  else
    match (st.header, st.prng, st.loads) with
    | None, _, _ | _, _, None -> Error "checkpoint: missing header"
    | _, None, _ -> Error "checkpoint: missing rng record"
    | ( Some (n, balls, d_choices, capacity, master, round, kind),
        Some rng,
        Some loads ) ->
        if st.filled <> n || Array.exists (fun v -> v < 0) loads then
          Error "checkpoint: incomplete load vector"
        else
          let config = Config.of_array loads in
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
            match parse_line st lineno line with
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

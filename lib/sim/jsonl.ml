(* Flat JSON objects, one per line: the common currency of the NDJSON
   trace stream.  The writer sorts keys and uses fixed number formats so
   documents are bit-stable for a fixed input; the reader accepts
   exactly the scalar subset the writer produces. *)

type value = Int of int | Float of float | String of string | Bool of bool

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Deterministic float rendering, shared with Telemetry's documents:
   integral values as "x.0", finite values via %.12g (stable for a
   given double), non-finite as null. *)
let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.12g" v
  else "null"

let render_value = function
  | Int k -> string_of_int k
  | Float v -> float_repr v
  | String s -> "\"" ^ escape s ^ "\""
  | Bool b -> if b then "true" else "false"

let obj fields =
  let fields =
    List.sort (fun (a, _) (b, _) -> String.compare a b) fields
  in
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Buffer.add_string b (escape k);
      Buffer.add_string b "\":";
      Buffer.add_string b (render_value v))
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* Parser for the flat-object subset.  Returns None on anything else
   (nested containers, trailing garbage, syntax errors) so a reader can
   count and skip foreign lines instead of failing. *)

exception Bad

let parse line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos >= n then '\x00' else line.[!pos] in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match line.[!pos] with ' ' | '\t' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c = if peek () <> c then raise Bad else advance () in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise Bad
      else
        match line.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then raise Bad
             else
               match line.[!pos] with
               | '"' -> Buffer.add_char b '"'
               | '\\' -> Buffer.add_char b '\\'
               | '/' -> Buffer.add_char b '/'
               | 'n' -> Buffer.add_char b '\n'
               | 't' -> Buffer.add_char b '\t'
               | 'r' -> Buffer.add_char b '\r'
               | 'u' ->
                   if !pos + 4 >= n then raise Bad;
                   let hex = String.sub line (!pos + 1) 4 in
                   let code =
                     try int_of_string ("0x" ^ hex) with Failure _ -> raise Bad
                   in
                   (* ASCII only; the writer never escapes beyond it. *)
                   if code > 0x7f then raise Bad;
                   Buffer.add_char b (Char.chr code);
                   pos := !pos + 4
               | _ -> raise Bad);
            advance ();
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = '-' then advance ();
    while
      match peek () with
      | '0' .. '9' -> true
      | '.' | 'e' | 'E' | '+' | '-' ->
          is_float := true;
          true
      | _ -> false
    do
      advance ()
    done;
    let s = String.sub line start (!pos - start) in
    if !is_float then
      match float_of_string_opt s with Some v -> Float v | None -> raise Bad
    else
      match int_of_string_opt s with
      | Some k -> Int k
      | None -> (
          match float_of_string_opt s with
          | Some v -> Float v
          | None -> raise Bad)
  in
  let parse_value () =
    match peek () with
    | '"' -> String (parse_string ())
    | 't' ->
        if !pos + 4 <= n && String.sub line !pos 4 = "true" then begin
          pos := !pos + 4;
          Bool true
        end
        else raise Bad
    | 'f' ->
        if !pos + 5 <= n && String.sub line !pos 5 = "false" then begin
          pos := !pos + 5;
          Bool false
        end
        else raise Bad
    | 'n' ->
        if !pos + 4 <= n && String.sub line !pos 4 = "null" then begin
          pos := !pos + 4;
          Float Float.nan
        end
        else raise Bad
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> raise Bad
  in
  try
    skip_ws ();
    expect '{';
    skip_ws ();
    let fields = ref [] in
    if peek () = '}' then advance ()
    else begin
      let rec members () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        skip_ws ();
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            members ()
        | '}' -> advance ()
        | _ -> raise Bad
      in
      members ()
    end;
    skip_ws ();
    if !pos <> n then raise Bad;
    Some (List.rev !fields)
  with Bad -> None

(* Incremental / following reader.  A tail remembers a byte offset into
   a file that some other process (the serve daemon's event log) may
   still be appending to.  Each poll delivers only the *complete* lines
   that have appeared since the previous poll: bytes after the last
   newline are a torn tail — the writer is mid-line (or died mid-line)
   — and are left on disk to be retried from the same offset next
   time.  The file is reopened on every poll, so the tail survives the
   file not existing yet and never holds a descriptor open between
   polls. *)

type tail = { t_path : string; mutable t_offset : int }

let tail ?(offset = 0) path =
  if offset < 0 then invalid_arg "Jsonl.tail: offset must be nonnegative";
  { t_path = path; t_offset = offset }

let tail_offset t = t.t_offset

(* Read everything past the offset; [] when the file is missing, not
   yet grown, or holds only a torn tail. *)
let read_from t =
  match open_in_bin t.t_path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          if len <= t.t_offset then None
          else begin
            seek_in ic t.t_offset;
            Some (really_input_string ic (len - t.t_offset))
          end)

let split_lines chunk =
  (* Complete lines (newline-terminated) and the consumed byte count. *)
  match String.rindex_opt chunk '\n' with
  | None -> ([], 0)
  | Some last ->
      (String.split_on_char '\n' (String.sub chunk 0 last), last + 1)

let tail_poll t =
  match read_from t with
  | None -> []
  | Some chunk ->
      let lines, consumed = split_lines chunk in
      t.t_offset <- t.t_offset + consumed;
      lines

let tail_pending t =
  match read_from t with
  | None -> None
  | Some chunk -> (
      match String.rindex_opt chunk '\n' with
      | None -> Some chunk
      | Some last when last + 1 < String.length chunk ->
          Some (String.sub chunk (last + 1) (String.length chunk - last - 1))
      | Some _ -> None)

(* Typed field accessors over a parsed object. *)

let find fields key = List.assoc_opt key fields

let find_int fields key =
  match find fields key with Some (Int k) -> Some k | _ -> None

let find_float fields key =
  match find fields key with
  | Some (Float v) -> Some v
  | Some (Int k) -> Some (float_of_int k)
  | _ -> None

let find_string fields key =
  match find fields key with Some (String s) -> Some s | _ -> None

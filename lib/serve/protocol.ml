(* rbb.job/1 codec.  Everything here is a pure function of its input:
   encoding goes through Jsonl.obj (sorted keys, fixed number formats)
   so a fixed value always serialises to the same bytes, and decoding
   returns structured errors instead of raising so a server can answer
   malformed traffic and keep the connection. *)

module Jsonl = Rbb_sim.Jsonl

let schema = "rbb.job/1"
let default_max_frame = 65536

type engine = Rbb_core.Engine.kind = Balls | Counts

type job_spec = {
  n : int;
  m : int;  (* ball count; m = n is the paper's (and the wire) default *)
  rounds : int;
  seed : int;
  init : string;
  engine : engine;
  deadline_s : float;
      (* wall-clock budget from dispatch; infinity (the wire default)
         means the job may run forever *)
}

let validate_spec spec =
  if spec.n < 1 then Error "job spec: n must be at least 1"
  else if spec.m < 0 then Error "job spec: m must be nonnegative"
  else if spec.rounds < 0 then Error "job spec: rounds must be nonnegative"
  else if Float.is_nan spec.deadline_s || spec.deadline_s <= 0. then
    Error "job spec: deadline_s must be a positive number of seconds"
  else
    match spec.init with
    | "uniform" when spec.m <> spec.n ->
        Error "job spec: init \"uniform\" requires m = n (use \"balanced\")"
    | "uniform" | "balanced" | "pile" | "random" -> Ok ()
    | s -> Error (Printf.sprintf "job spec: unknown init %S" s)

type request =
  | Ping
  | Submit of job_spec
  | Status of string
  | Result of string
  | Subscribe of string option
  | Stats
  | Metrics
  | Reset_stats
  | Shutdown

type event = { ev : string; id : string; round : int; detail : string }

type response =
  | Pong
  | Ok_reply
  | Accepted of { id : string; queue_depth : int }
  | Rejected of { retry_after_ms : int; queue_depth : int }
  | Job_status of { id : string; state : string; round : int }
  | Job_result of { id : string; body : string }
  | Stats_reply of (string * Jsonl.value) list
  | Metrics_reply of { body : string }
  | Event of event
  | Error_reply of { code : string; message : string }

(* Encoding ----------------------------------------------------------- *)

let obj ty fields =
  Jsonl.obj
    (("schema", Jsonl.String schema) :: ("type", Jsonl.String ty) :: fields)

(* "m" travels only when it differs from n, and "deadline_s" only when
   finite: old decoders keep working and every default-valued spec
   encodes to its historical bytes. *)
let spec_fields spec =
  ("n", Jsonl.Int spec.n)
  :: (if spec.m <> spec.n then [ ("m", Jsonl.Int spec.m) ] else [])
  @ (if Float.is_finite spec.deadline_s then
       [ ("deadline_s", Jsonl.Float spec.deadline_s) ]
     else [])
  @ [
      ("rounds", Jsonl.Int spec.rounds);
      ("seed", Jsonl.Int spec.seed);
      ("init", Jsonl.String spec.init);
      ("engine", Jsonl.String (Rbb_core.Engine.kind_name spec.engine));
    ]

let request_to_json = function
  | Ping -> obj "ping" []
  | Submit spec -> obj "submit" (spec_fields spec)
  | Status id -> obj "status" [ ("id", Jsonl.String id) ]
  | Result id -> obj "result" [ ("id", Jsonl.String id) ]
  | Subscribe None -> obj "subscribe" []
  | Subscribe (Some id) -> obj "subscribe" [ ("id", Jsonl.String id) ]
  | Stats -> obj "stats" []
  | Metrics -> obj "metrics" []
  | Reset_stats -> obj "reset-stats" []
  | Shutdown -> obj "shutdown" []

let response_to_json = function
  | Pong -> obj "pong" []
  | Ok_reply -> obj "ok" []
  | Accepted { id; queue_depth } ->
      obj "accepted"
        [ ("id", Jsonl.String id); ("queue_depth", Jsonl.Int queue_depth) ]
  | Rejected { retry_after_ms; queue_depth } ->
      obj "rejected"
        [
          ("retry_after_ms", Jsonl.Int retry_after_ms);
          ("queue_depth", Jsonl.Int queue_depth);
        ]
  | Job_status { id; state; round } ->
      obj "job-status"
        [
          ("id", Jsonl.String id);
          ("state", Jsonl.String state);
          ("round", Jsonl.Int round);
        ]
  | Job_result { id; body } ->
      obj "job-result" [ ("id", Jsonl.String id); ("body", Jsonl.String body) ]
  | Stats_reply fields -> obj "stats" fields
  | Metrics_reply { body } -> obj "metrics" [ ("body", Jsonl.String body) ]
  | Event { ev; id; round; detail } ->
      obj "event"
        (("event", Jsonl.String ev)
         :: ("id", Jsonl.String id)
         :: ("round", Jsonl.Int round)
         ::
         (if detail = "" then [] else [ ("detail", Jsonl.String detail) ]))
  | Error_reply { code; message } ->
      obj "error"
        [ ("code", Jsonl.String code); ("message", Jsonl.String message) ]

(* Decoding ----------------------------------------------------------- *)

let parse_envelope line =
  match Jsonl.parse line with
  | None -> Error "payload is not a flat JSON object"
  | Some fields -> (
      match Jsonl.find_string fields "schema" with
      | Some s when s = schema -> (
          match Jsonl.find_string fields "type" with
          | Some ty -> Ok (ty, fields)
          | None -> Error "payload has no \"type\" field")
      | Some s -> Error (Printf.sprintf "unknown schema %S" s)
      | None -> Error "payload has no \"schema\" field")

let need_string fields key =
  match Jsonl.find_string fields key with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing string field %S" key)

let need_int fields key =
  match Jsonl.find_int fields key with
  | Some k -> Ok k
  | None -> Error (Printf.sprintf "missing integer field %S" key)

let ( let* ) = Result.bind

let spec_of_fields fields =
  let* n = need_int fields "n" in
  let m = Option.value ~default:n (Jsonl.find_int fields "m") in
  let* rounds = need_int fields "rounds" in
  let* seed = need_int fields "seed" in
  let* init = need_string fields "init" in
  let* engine_s = need_string fields "engine" in
  let* engine =
    match Rbb_core.Engine.kind_of_name engine_s with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "job spec: unknown engine %S" engine_s)
  in
  let deadline_s =
    Option.value ~default:infinity (Jsonl.find_float fields "deadline_s")
  in
  let spec = { n; m; rounds; seed; init; engine; deadline_s } in
  let* () = validate_spec spec in
  Ok spec

let request_of_json line =
  let* ty, fields = parse_envelope line in
  match ty with
  | "ping" -> Ok Ping
  | "submit" ->
      let* spec = spec_of_fields fields in
      Ok (Submit spec)
  | "status" ->
      let* id = need_string fields "id" in
      Ok (Status id)
  | "result" ->
      let* id = need_string fields "id" in
      Ok (Result id)
  | "subscribe" -> Ok (Subscribe (Jsonl.find_string fields "id"))
  | "stats" -> Ok Stats
  | "metrics" -> Ok Metrics
  | "reset-stats" -> Ok Reset_stats
  | "shutdown" -> Ok Shutdown
  | ty -> Error (Printf.sprintf "unknown request type %S" ty)

let strip_envelope fields =
  List.filter (fun (k, _) -> k <> "schema" && k <> "type") fields

let response_of_json line =
  let* ty, fields = parse_envelope line in
  match ty with
  | "pong" -> Ok Pong
  | "ok" -> Ok Ok_reply
  | "accepted" ->
      let* id = need_string fields "id" in
      let* queue_depth = need_int fields "queue_depth" in
      Ok (Accepted { id; queue_depth })
  | "rejected" ->
      let* retry_after_ms = need_int fields "retry_after_ms" in
      let* queue_depth = need_int fields "queue_depth" in
      Ok (Rejected { retry_after_ms; queue_depth })
  | "job-status" ->
      let* id = need_string fields "id" in
      let* state = need_string fields "state" in
      let* round = need_int fields "round" in
      Ok (Job_status { id; state; round })
  | "job-result" ->
      let* id = need_string fields "id" in
      let* body = need_string fields "body" in
      Ok (Job_result { id; body })
  | "stats" -> Ok (Stats_reply (strip_envelope fields))
  | "metrics" ->
      let* body = need_string fields "body" in
      Ok (Metrics_reply { body })
  | "event" ->
      let* ev = need_string fields "event" in
      let* id = need_string fields "id" in
      let* round = need_int fields "round" in
      let detail =
        Option.value ~default:"" (Jsonl.find_string fields "detail")
      in
      Ok (Event { ev; id; round; detail })
  | "error" ->
      let* code = need_string fields "code" in
      let* message = need_string fields "message" in
      Ok (Error_reply { code; message })
  | ty -> Error (Printf.sprintf "unknown response type %S" ty)

(* Frames ------------------------------------------------------------- *)

let encode_frame payload =
  Printf.sprintf "%d\n%s\n" (String.length payload) payload

type frame_error = { code : string; message : string; fatal : bool }

type extracted =
  | Need_more
  | Frame of { payload : string; consumed : int }
  | Skip of { consumed : int; discard : int; error : frame_error }
  | Corrupt of frame_error

(* The length header is at most 10 digits: a larger (or non-numeric)
   header means the peer is not speaking the protocol at all, and the
   stream has no recoverable frame boundary. *)
let max_header_digits = 10

let corrupt message = Corrupt { code = "bad_frame"; message; fatal = true }

let extract ~max_frame buf =
  if max_frame < 1 then invalid_arg "Protocol.extract: max_frame must be >= 1";
  let len = String.length buf in
  match String.index_opt buf '\n' with
  | None ->
      if len > max_header_digits then
        corrupt "frame header is not a length line"
      else Need_more
  | Some nl ->
      if nl = 0 || nl > max_header_digits then
        corrupt "frame header is not a length line"
      else
        let header = String.sub buf 0 nl in
        if not (String.for_all (fun c -> c >= '0' && c <= '9') header) then
          corrupt "frame header is not a length line"
        else
          let payload_len = int_of_string header in
          if payload_len > max_frame then
            Skip
              {
                consumed = nl + 1;
                discard = payload_len + 1;
                error =
                  {
                    code = "oversized";
                    message =
                      Printf.sprintf
                        "frame of %d bytes exceeds the %d byte limit"
                        payload_len max_frame;
                    fatal = false;
                  };
              }
          else if len < nl + 1 + payload_len + 1 then Need_more
          else if buf.[nl + 1 + payload_len] <> '\n' then
            corrupt "frame payload is not newline-terminated"
          else
            Frame
              {
                payload = String.sub buf (nl + 1) payload_len;
                consumed = nl + 1 + payload_len + 1;
              }

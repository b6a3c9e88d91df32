(* Tests for the serve subsystem and its satellites: the rbb.job/1
   codec (round-trips under QCheck, frame extraction including
   oversized / malformed traffic), the admission queue's bounds and
   measurement plane, the crash-safe job runner's resume byte-identity,
   the incremental Jsonl tail reader and the trace follower built on
   it, the exclusive lock helper with stale-pid takeover, and an
   in-process end-to-end daemon session. *)

module Protocol = Rbb_serve.Protocol
module Admission = Rbb_serve.Admission
module Job = Rbb_serve.Job
module Daemon = Rbb_serve.Daemon
module Client = Rbb_serve.Client
module Jsonl = Rbb_sim.Jsonl
module Fileio = Rbb_sim.Fileio
module Trace_report = Rbb_sim.Trace_report

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_temp_dir prefix f =
  let dir = temp_dir prefix in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Protocol: payload codec                                             *)
(* ------------------------------------------------------------------ *)

let spec ?(n = 64) ?m ?(rounds = 100) ?(seed = 7) ?(init = "uniform")
    ?(engine = Protocol.Balls) ?(deadline_s = infinity) () =
  {
    Protocol.n;
    m = Option.value ~default:n m;
    rounds;
    seed;
    init;
    engine;
    deadline_s;
  }

let check_req_roundtrip req =
  match Protocol.request_of_json (Protocol.request_to_json req) with
  | Ok req' -> Alcotest.(check bool) "request round-trip" true (req = req')
  | Error e -> Alcotest.failf "request did not round-trip: %s" e

let check_resp_roundtrip resp =
  match Protocol.response_of_json (Protocol.response_to_json resp) with
  | Ok resp' -> Alcotest.(check bool) "response round-trip" true (resp = resp')
  | Error e -> Alcotest.failf "response did not round-trip: %s" e

let test_request_roundtrips () =
  List.iter check_req_roundtrip
    [
      Protocol.Ping;
      Protocol.Submit (spec ());
      Protocol.Submit (spec ~engine:Protocol.Counts ~init:"pile" ());
      Protocol.Status "job-000001";
      Protocol.Result "job-000042";
      Protocol.Subscribe None;
      Protocol.Subscribe (Some "job-000007");
      Protocol.Stats;
      Protocol.Metrics;
      Protocol.Reset_stats;
      Protocol.Shutdown;
    ]

let test_response_roundtrips () =
  List.iter check_resp_roundtrip
    [
      Protocol.Pong;
      Protocol.Ok_reply;
      Protocol.Accepted { id = "job-000001"; queue_depth = 3 };
      Protocol.Rejected { retry_after_ms = 250; queue_depth = 16 };
      Protocol.Job_status { id = "job-000001"; state = "running"; round = 512 };
      Protocol.Job_result
        { id = "job-000001"; body = "{\"schema\":\"rbb.job-result/1\"}" };
      Protocol.Event
        { ev = "checkpoint"; id = "job-000001"; round = 256; detail = "" };
      Protocol.Event
        { ev = "failed"; id = "job-000002"; round = 0; detail = "dis\"as\\ter" };
      Protocol.Error_reply { code = "bad_json"; message = "nope" };
      Protocol.Stats_reply
        [ ("arrivals", Jsonl.Int 3); ("wait_mean_s", Jsonl.Float 0.25) ];
      Protocol.Metrics_reply
        { body = "# TYPE rbb_jobs_total counter\nrbb_jobs_total 1\n" };
    ]

let test_decode_rejections () =
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "not json" true
    (is_error (Protocol.request_of_json "hello"));
  Alcotest.(check bool) "wrong schema" true
    (is_error
       (Protocol.request_of_json "{\"schema\":\"rbb.trace/1\",\"type\":\"ping\"}"));
  Alcotest.(check bool) "no type" true
    (is_error (Protocol.request_of_json "{\"schema\":\"rbb.job/1\"}"));
  Alcotest.(check bool) "unknown type" true
    (is_error
       (Protocol.request_of_json "{\"schema\":\"rbb.job/1\",\"type\":\"dance\"}"));
  Alcotest.(check bool) "submit missing fields" true
    (is_error
       (Protocol.request_of_json "{\"schema\":\"rbb.job/1\",\"type\":\"submit\"}"));
  Alcotest.(check bool) "submit invalid n" true
    (is_error
       (Protocol.request_of_json
          (Protocol.request_to_json
             (Protocol.Submit (spec ~n:0 ())))))

let gen_spec =
  QCheck2.Gen.(
    let* n = int_range 1 100_000 in
    let* rounds = int_range 0 1_000_000 in
    let* seed = int_range 0 1_000_000_000 in
    let* init = oneofl [ "uniform"; "balanced"; "pile"; "random" ] in
    (* "uniform" requires m = n; every other init draws an arbitrary
       ball count (sometimes far above n, sometimes 0). *)
    let* m =
      if init = "uniform" then return n
      else oneof [ return n; int_range 0 10_000_000 ]
    in
    let* engine = oneofl [ Protocol.Balls; Protocol.Counts ] in
    (* Finite deadlines drawn from values Jsonl.float_repr round-trips
       exactly (the wire carries decimal text, not bits). *)
    let* deadline_s = oneofl [ infinity; 0.5; 1.5; 30.; 86400. ] in
    return { Protocol.n; m; rounds; seed; init; engine; deadline_s })

let prop_submit_roundtrip =
  Tutil.prop "submit round-trips any valid spec" ~count:300 gen_spec (fun s ->
      Protocol.request_of_json
        (Protocol.request_to_json (Protocol.Submit s))
      = Ok (Protocol.Submit s))

let prop_error_roundtrip =
  Tutil.prop "error replies survive hostile strings" ~count:300
    QCheck2.Gen.(pair string_printable string)
    (fun (code, message) ->
      Protocol.response_of_json
        (Protocol.response_to_json (Protocol.Error_reply { code; message }))
      = Ok (Protocol.Error_reply { code; message }))

(* "m" on the wire: optional, default n, emitted only when it differs
   — so every m = n submit keeps the exact bytes it had before the
   field existed, and old clients never see it. *)
let test_spec_m_wire () =
  Alcotest.(check string) "m = n submit keeps its historical bytes"
    "{\"engine\":\"balls\",\"init\":\"uniform\",\"n\":64,\"rounds\":100,\"schema\":\"rbb.job/1\",\"seed\":7,\"type\":\"submit\"}"
    (Protocol.request_to_json (Protocol.Submit (spec ())));
  let fat = spec ~m:4096 ~init:"balanced" () in
  let encoded = Protocol.request_to_json (Protocol.Submit fat) in
  Alcotest.(check bool) "m <> n is on the wire" true
    (Tutil.contains_substring encoded "\"m\":4096");
  Alcotest.(check bool) "m <> n round-trips" true
    (Protocol.request_of_json encoded = Ok (Protocol.Submit fat));
  (* Absent "m" decodes as m = n. *)
  (match
     Protocol.request_of_json
       "{\"engine\":\"counts\",\"init\":\"pile\",\"n\":32,\"rounds\":5,\"schema\":\"rbb.job/1\",\"seed\":1,\"type\":\"submit\"}"
   with
  | Ok (Protocol.Submit s) -> Alcotest.(check int) "default m = n" 32 s.Protocol.m
  | _ -> Alcotest.fail "submit without m must decode");
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "negative m rejected" true
    (is_error
       (Protocol.request_of_json
          "{\"engine\":\"balls\",\"init\":\"pile\",\"m\":-1,\"n\":32,\"rounds\":5,\"schema\":\"rbb.job/1\",\"seed\":1,\"type\":\"submit\"}"));
  Alcotest.(check bool) "uniform with m <> n rejected" true
    (is_error (Protocol.validate_spec (spec ~m:128 ~init:"uniform" ())));
  Alcotest.(check bool) "balanced with m <> n accepted" true
    (Protocol.validate_spec (spec ~m:128 ~init:"balanced" ()) = Ok ())

(* ------------------------------------------------------------------ *)
(* Protocol: frame codec                                               *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let payload = Protocol.request_to_json (Protocol.Submit (spec ())) in
  let framed = Protocol.encode_frame payload in
  (match Protocol.extract ~max_frame:4096 framed with
  | Protocol.Frame { payload = p; consumed } ->
      Alcotest.(check string) "payload" payload p;
      Alcotest.(check int) "consumed all" (String.length framed) consumed
  | _ -> Alcotest.fail "expected a frame");
  (* Byte-at-a-time delivery: Need_more until the last byte. *)
  let n = String.length framed in
  for k = 0 to n - 1 do
    match Protocol.extract ~max_frame:4096 (String.sub framed 0 k) with
    | Protocol.Need_more -> ()
    | _ -> Alcotest.failf "prefix of %d bytes should need more" k
  done;
  (* Two frames back to back: the extractor consumes exactly one. *)
  match Protocol.extract ~max_frame:4096 (framed ^ framed) with
  | Protocol.Frame { consumed; _ } ->
      Alcotest.(check int) "one frame consumed" n consumed
  | _ -> Alcotest.fail "expected the first frame"

let test_frame_oversized () =
  let payload = String.make 100 'x' in
  let framed = Protocol.encode_frame payload in
  match Protocol.extract ~max_frame:10 framed with
  | Protocol.Skip { consumed; discard; error } ->
      Alcotest.(check int) "header consumed" 4 consumed;
      Alcotest.(check int) "payload + newline discarded" 101 discard;
      Alcotest.(check string) "code" "oversized" error.Protocol.code;
      Alcotest.(check bool) "not fatal" false error.Protocol.fatal
  | _ -> Alcotest.fail "expected an oversized skip"

let test_frame_corrupt () =
  let fatal s =
    match Protocol.extract ~max_frame:4096 s with
    | Protocol.Corrupt e ->
        Alcotest.(check bool) ("fatal: " ^ String.escaped s) true
          e.Protocol.fatal
    | _ -> Alcotest.failf "%S should be corrupt" s
  in
  fatal "\nhello";
  fatal "12x\n{}";
  fatal "99999999999\n";
  fatal "123456789012345";
  fatal "2\n{}X";
  match Protocol.extract ~max_frame:4096 "123" with
  | Protocol.Need_more -> ()
  | _ -> Alcotest.fail "short numeric prefix is just incomplete"

let prop_extract_total =
  Tutil.prop "extract never raises on garbage" ~count:500
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 64))
    (fun s ->
      match Protocol.extract ~max_frame:16 s with
      | Protocol.Need_more | Protocol.Frame _ | Protocol.Skip _
      | Protocol.Corrupt _ ->
          true)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let fake_clock step =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t step;
    !t

let test_admission_bounds () =
  let q = Admission.create ~clock:(fake_clock 1000L) ~depth:2 ~servers:1 () in
  let s = spec () in
  Alcotest.(check (option int)) "room" None (Admission.try_reject q);
  (match Admission.submit q ~id:"a" ~spec:s with
  | `Accepted 1 -> ()
  | _ -> Alcotest.fail "first submit should be accepted at depth 1");
  (match Admission.submit q ~id:"b" ~spec:s with
  | `Accepted 2 -> ()
  | _ -> Alcotest.fail "second submit should be accepted at depth 2");
  Alcotest.(check bool) "full" true (Admission.try_reject q <> None);
  (match Admission.submit q ~id:"c" ~spec:s with
  | `Rejected ms -> Alcotest.(check bool) "positive hint" true (ms > 0)
  | `Accepted _ -> Alcotest.fail "queue is full");
  Alcotest.(check int) "queue length" 2 (Admission.stats q).Admission.queue_len;
  (* FIFO drain. *)
  let a = Option.get (Admission.pop q) in
  let b = Option.get (Admission.pop q) in
  Alcotest.(check string) "fifo a" "a" a.Admission.id;
  Alcotest.(check string) "fifo b" "b" b.Admission.id;
  (* Close: pops yield None, submits are rejected. *)
  Admission.close q;
  Alcotest.(check bool) "pop after close" true (Admission.pop q = None);
  match Admission.submit q ~id:"d" ~spec:s with
  | `Rejected _ -> ()
  | `Accepted _ -> Alcotest.fail "closed queue must reject"

let test_admission_try_reject () =
  let q = Admission.create ~clock:(fake_clock 1000L) ~depth:1 ~servers:1 () in
  let s = spec () in
  Alcotest.(check (option int)) "room: no rejection" None
    (Admission.try_reject q);
  ignore (Admission.submit q ~id:"a" ~spec:s);
  (match Admission.try_reject q with
  | Some ms -> Alcotest.(check bool) "positive hint" true (ms > 0)
  | None -> Alcotest.fail "full queue must reject");
  (* A pop freeing a slot flips the decision back to acceptance — and
     the rejection path never enqueued anything (the TOCTOU the
     accepting-then-submit pattern allowed). *)
  ignore (Admission.pop q);
  Alcotest.(check (option int)) "slot freed: accept again" None
    (Admission.try_reject q);
  let st = Admission.stats q in
  Alcotest.(check int) "one rejection counted" 1 st.Admission.rejected;
  Alcotest.(check int) "no phantom entry" 0 st.Admission.queue_len;
  Admission.close q;
  match Admission.try_reject q with
  | Some _ -> ()
  | None -> Alcotest.fail "closed queue must reject"

let test_admission_measurements () =
  (* Clock ticks 1000 ns per reading; every duration is exact. *)
  let q = Admission.create ~clock:(fake_clock 1000L) ~depth:8 ~servers:2 () in
  let s = spec () in
  ignore (Admission.submit q ~id:"a" ~spec:s);   (* t = 1000 *)
  ignore (Admission.submit q ~id:"b" ~spec:s);   (* t = 2000 *)
  let a = Option.get (Admission.pop q) in
  let b = Option.get (Admission.pop q) in
  Admission.note_started q a;                    (* t = 3000: wait 2000 *)
  Admission.note_started q b;                    (* t = 4000: wait 2000 *)
  let done_a = Admission.note_done q a ~ok:true in   (* t = 5000 *)
  let done_b = Admission.note_done q b ~ok:false in  (* t = 6000 *)
  let st = Admission.stats q in
  Alcotest.(check int) "arrivals" 2 st.Admission.arrivals;
  Alcotest.(check int) "started" 2 st.Admission.started;
  Alcotest.(check int) "completed" 1 st.Admission.completed;
  Alcotest.(check int) "failed" 1 st.Admission.failed;
  Alcotest.(check (list int64)) "starts" [ 3000L; 4000L ]
    [ a.Admission.t_start; b.Admission.t_start ];
  Alcotest.(check (list int64)) "completions" [ 5000L; 6000L ]
    [ done_a; done_b ];
  Alcotest.(check int64) "window start" 1000L st.Admission.first_arrival;
  Alcotest.(check int64) "window end" 2000L st.Admission.last_arrival;
  Admission.reset_stats q;
  let st = Admission.stats q in
  Alcotest.(check int) "reset arrivals" 0 st.Admission.arrivals

let test_admission_retry_hint () =
  (* Manual clock, ns.  Services of 3 ms (ok) and 1 ms (failed) give a
     2 ms mean; one queued job plus the rejected one is a backlog of 2
     on 2 servers. *)
  let now = ref 0L in
  let q = Admission.create ~clock:(fun () -> !now) ~depth:1 ~servers:2 () in
  let serve ~id ~ms =
    ignore (Admission.submit q ~id ~spec:(spec ()));
    let e = Option.get (Admission.pop q) in
    Admission.note_started q e;
    now := Int64.add !now (Int64.of_int (ms * 1_000_000));
    ignore (Admission.note_done q e ~ok:(id = "a") : int64)
  in
  serve ~id:"a" ~ms:3;
  serve ~id:"b" ~ms:1;
  ignore (Admission.submit q ~id:"c" ~spec:(spec ()));
  Alcotest.(check (option int)) "mean service x backlog / servers" (Some 2)
    (Admission.try_reject q);
  (* reset_stats forgets the services: back to the 100 ms default. *)
  Admission.reset_stats q;
  Alcotest.(check (option int)) "default after reset" (Some 100)
    (Admission.try_reject q)

let test_admission_resubmit_unbounded () =
  let q = Admission.create ~clock:(fake_clock 1000L) ~depth:1 ~servers:1 () in
  let s = spec () in
  ignore (Admission.submit q ~id:"a" ~spec:s);
  (* Depth exhausted, but recovery resubmits must never be refused. *)
  Admission.resubmit q ~id:"b" ~spec:s;
  Admission.resubmit q ~id:"c" ~spec:s;
  Alcotest.(check int) "all queued" 3 (Admission.stats q).Admission.queue_len;
  Tutil.check_raises_invalid "depth 0" (fun () ->
      Admission.create ~depth:0 ~servers:1 ());
  Tutil.check_raises_invalid "servers 0" (fun () ->
      Admission.create ~depth:1 ~servers:0 ())

let test_admission_state_bounded () =
  (* The queue keeps counters, not per-job samples: its reachable heap
     is the same after 10 jobs as after 10,000. *)
  let q = Admission.create ~clock:(fake_clock 1000L) ~depth:1 ~servers:1 () in
  let s = spec () in
  let serve jobs =
    for k = 1 to jobs do
      ignore (Admission.submit q ~id:(string_of_int k) ~spec:s);
      let e = Option.get (Admission.pop q) in
      Admission.note_started q e;
      ignore (Admission.note_done q e ~ok:(k mod 2 = 0) : int64)
    done;
    Obj.reachable_words (Obj.repr q)
  in
  let after_10 = serve 10 in
  let after_10_000 = serve 9_990 in
  Alcotest.(check int) "words after 10 and 10,000 jobs" after_10 after_10_000;
  Alcotest.(check int) "all counted" 10_000
    (Admission.stats q).Admission.started

(* ------------------------------------------------------------------ *)
(* Job: spec persistence and crash-safe execution                      *)
(* ------------------------------------------------------------------ *)

let test_job_spec_roundtrip () =
  with_temp_dir "rbb_serve_spec" (fun dir ->
      let s = spec ~n:128 ~rounds:777 ~seed:99 ~init:"pile"
                ~engine:Protocol.Counts () in
      Job.write_spec ~state_dir:dir ~id:"job-000003" s;
      (match Job.load_spec ~path:(Job.spec_path ~state_dir:dir ~id:"job-000003") with
      | Ok (id, s') ->
          Alcotest.(check string) "id" "job-000003" id;
          Alcotest.(check bool) "spec" true (s = s')
      | Error e -> Alcotest.fail e);
      (* scan: pending job visible, finished job invisible. *)
      Job.write_spec ~state_dir:dir ~id:"job-000010" (spec ());
      Fileio.write_atomic ~path:(Job.result_path ~state_dir:dir ~id:"job-000010")
        (fun oc -> output_string oc "{}\n");
      let pending, next = Job.scan ~state_dir:dir () in
      Alcotest.(check (list string)) "pending ids" [ "job-000003" ]
        (List.map fst pending);
      Alcotest.(check int) "next id follows the max seen" 11 next;
      match Job.load_spec ~path:(Filename.concat dir "nope.job") with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "missing spec file must be an error")

(* The spec file mirrors the wire: "m" only when m <> n, absent means
   m = n, and an m <> n spec survives the disk round trip.  The golden
   line pins the file bytes, so spec files already on disk in a state
   directory keep loading and re-writing identically. *)
let test_job_spec_m_file () =
  with_temp_dir "rbb_serve_spec_m" (fun dir ->
      let read id =
        In_channel.with_open_text
          (Job.spec_path ~state_dir:dir ~id)
          In_channel.input_all
      in
      Job.write_spec ~state_dir:dir ~id:"job-000001" (spec ());
      Alcotest.(check bool) "m = n spec file has no m field" false
        (Tutil.contains_substring (read "job-000001") "\"m\":");
      let fat =
        spec ~m:4096 ~rounds:300 ~seed:11 ~init:"balanced"
          ~engine:Protocol.Counts ~deadline_s:2.5 ()
      in
      Job.write_spec ~state_dir:dir ~id:"job-000002" fat;
      Alcotest.(check string) "spec file bytes"
        "{\"deadline_s\":2.5,\"engine\":\"counts\",\"id\":\"job-000002\",\"init\":\"balanced\",\"m\":4096,\"n\":64,\"rounds\":300,\"schema\":\"rbb.job-spec/1\",\"seed\":11}\n"
        (read "job-000002");
      match
        Job.load_spec ~path:(Job.spec_path ~state_dir:dir ~id:"job-000002")
      with
      | Ok (_, s') -> Alcotest.(check bool) "m survives the round trip" true (fat = s')
      | Error e -> Alcotest.fail e)

let test_job_failed_marker () =
  with_temp_dir "rbb_serve_failed" (fun dir ->
      Job.write_spec ~state_dir:dir ~id:"job-000004" (spec ());
      Job.write_failed ~state_dir:dir ~id:"job-000004" ~round:128
        ~detail:"checkpoint engine kind does not match the spec";
      Alcotest.(check (option (pair int string)))
        "marker round-trips"
        (Some (128, "checkpoint engine kind does not match the spec"))
        (Job.read_failed ~state_dir:dir ~id:"job-000004");
      Alcotest.(check (option (pair int string)))
        "absent marker" None
        (Job.read_failed ~state_dir:dir ~id:"job-000099");
      (* A failed job is not pending work: scan must not resubmit it
         (it would only re-fail forever), but its sequence number still
         drives fresh-id allocation. *)
      let pending, next = Job.scan ~state_dir:dir () in
      Alcotest.(check (list string)) "not pending" []
        (List.map fst pending);
      Alcotest.(check int) "sequence advances past it" 5 next)

(* The heart of the PR: a job interrupted mid-run (after a checkpoint
   was published) and then re-run produces a result document
   byte-identical to an uninterrupted run's. *)
let check_resume_identity engine =
  let s = spec ~n:64 ~rounds:400 ~seed:11 ~init:"pile" ~engine () in
  let uninterrupted =
    with_temp_dir "rbb_serve_solid" (fun dir ->
        ignore (Job.run ~state_dir:dir ~checkpoint_every:1000 ~id:"job-000001" s);
        In_channel.with_open_text
          (Job.result_path ~state_dir:dir ~id:"job-000001")
          In_channel.input_all)
  in
  let resumed =
    with_temp_dir "rbb_serve_crash" (fun dir ->
        Job.write_spec ~state_dir:dir ~id:"job-000001" s;
        (* "Crash" at the first checkpoint: the snapshot for round 100
           is on disk, the rest of the run never happens. *)
        (try
           ignore
             (Job.run
                ~on_progress:(fun ~round:_ -> failwith "kill -9")
                ~state_dir:dir ~checkpoint_every:100 ~id:"job-000001" s)
         with Failure _ -> ());
        Alcotest.(check bool)
          "checkpoint survives the crash" true
          (Sys.file_exists (Job.checkpoint_path ~state_dir:dir ~id:"job-000001"));
        Alcotest.(check bool)
          "no result yet" false
          (Sys.file_exists (Job.result_path ~state_dir:dir ~id:"job-000001"));
        (* Restart: resume from the checkpoint and finish. *)
        ignore (Job.run ~state_dir:dir ~checkpoint_every:100 ~id:"job-000001" s);
        Alcotest.(check bool)
          "checkpoint removed after completion" false
          (Sys.file_exists (Job.checkpoint_path ~state_dir:dir ~id:"job-000001"));
        In_channel.with_open_text
          (Job.result_path ~state_dir:dir ~id:"job-000001")
          In_channel.input_all)
  in
  Alcotest.(check string) "byte-identical result" uninterrupted resumed

let test_job_resume_identity_balls () = check_resume_identity Protocol.Balls
let test_job_resume_identity_counts () = check_resume_identity Protocol.Counts

let test_job_matches_direct_engine () =
  (* The daemon's result must describe the same trajectory a direct
     library run produces. *)
  with_temp_dir "rbb_serve_direct" (fun dir ->
      let s = spec ~n:128 ~rounds:300 ~seed:5 ~init:"uniform" () in
      let fields =
        Job.run ~state_dir:dir ~checkpoint_every:1000 ~id:"job-000001" s
      in
      let rng = Rbb_prng.Rng.create ~seed:5L () in
      let p =
        Rbb_core.Process.create ~rng ~init:(Rbb_core.Config.uniform ~n:128) ()
      in
      Rbb_core.Process.run p ~rounds:300;
      let config = Rbb_core.Process.config p in
      Alcotest.(check (option int))
        "max load" (Some (Rbb_core.Config.max_load config))
        (Jsonl.find_int fields "max_load");
      Alcotest.(check (option int))
        "empty bins" (Some (Rbb_core.Config.empty_bins config))
        (Jsonl.find_int fields "empty_bins"))

let test_job_validation () =
  with_temp_dir "rbb_serve_bad" (fun dir ->
      Tutil.check_raises_invalid "checkpoint_every 0" (fun () ->
          Job.run ~state_dir:dir ~checkpoint_every:0 ~id:"x" (spec ()));
      Tutil.check_raises_invalid "bad spec" (fun () ->
          Job.run ~state_dir:dir ~checkpoint_every:10 ~id:"x"
            (spec ~init:"sideways" ())))

(* ------------------------------------------------------------------ *)
(* Jsonl tail: incremental reads, torn tails                           *)
(* ------------------------------------------------------------------ *)

let append path s =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc s;
  close_out oc

let test_jsonl_tail () =
  let path = Filename.temp_file "rbb_tail" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let t = Jsonl.tail path in
      Alcotest.(check (list string)) "empty file" [] (Jsonl.tail_poll t);
      append path "{\"a\":1}\n{\"a\":2}\n";
      Alcotest.(check (list string))
        "two complete lines" [ "{\"a\":1}"; "{\"a\":2}" ] (Jsonl.tail_poll t);
      Alcotest.(check (list string)) "nothing new" [] (Jsonl.tail_poll t);
      (* A torn tail is withheld until its newline arrives. *)
      append path "{\"a\":3";
      Alcotest.(check (list string)) "torn tail withheld" [] (Jsonl.tail_poll t);
      Alcotest.(check (option string))
        "torn bytes visible" (Some "{\"a\":3") (Jsonl.tail_pending t);
      append path "}\n";
      Alcotest.(check (list string))
        "completed line delivered" [ "{\"a\":3}" ] (Jsonl.tail_poll t);
      Alcotest.(check (option string)) "no pending" None (Jsonl.tail_pending t);
      Alcotest.(check int)
        "offset tracks consumed bytes"
        (String.length "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n")
        (Jsonl.tail_offset t))

let test_jsonl_tail_missing_file () =
  let path = Filename.temp_file "rbb_tail" ".ndjson" in
  Sys.remove path;
  let t = Jsonl.tail path in
  Alcotest.(check (list string)) "absent file reads empty" [] (Jsonl.tail_poll t);
  append path "{\"x\":1}\n";
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Alcotest.(check (list string))
        "appears later" [ "{\"x\":1}" ] (Jsonl.tail_poll t))

let observable round =
  Printf.sprintf
    "{\"type\":\"observable\",\"round\":%d,\"max_load\":2,\"empty_bins\":20}\n"
    round

let test_follow_file_static () =
  let path = Filename.temp_file "rbb_follow" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      append path (observable 1 ^ observable 2 ^ observable 3);
      append path "{\"type\":\"observ";
      let r = Trace_report.follow_file ~poll_interval_s:0.001 path in
      Alcotest.(check int) "observables" 3 r.Trace_report.observables;
      Alcotest.(check bool) "torn tail flagged" true r.Trace_report.truncated_tail;
      Tutil.check_raises_invalid "idle_polls 0" (fun () ->
          ignore (Trace_report.follow_file ~idle_polls:0 path)))

let test_follow_file_live_writer () =
  (* A writer appending from another domain: the follower must deliver
     every record exactly once, in order. *)
  let path = Filename.temp_file "rbb_follow_live" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let writer =
        Domain.spawn (fun () ->
            for i = 1 to 50 do
              append path (observable i);
              if i mod 10 = 0 then Unix.sleepf 0.002
            done)
      in
      let r = Trace_report.follow_file ~poll_interval_s:0.005 ~idle_polls:10 path in
      Domain.join writer;
      Alcotest.(check int) "all 50 records" 50 r.Trace_report.observables;
      Alcotest.(check (option int)) "first round" (Some 1) r.Trace_report.first_round;
      Alcotest.(check (option int)) "last round" (Some 50) r.Trace_report.last_round;
      Alcotest.(check int) "nothing skipped" 0 r.Trace_report.skipped;
      Alcotest.(check (list int)) "in order" (List.init 50 (fun i -> i + 1))
        (Array.to_list
           (Array.map
              (fun s -> s.Rbb_core.Trace.round)
              (Rbb_core.Trace.samples r.Trace_report.series))))

let test_follow_file_matches_read_file () =
  (* On a finished trace the follower is the one-shot reader after an
     idle wait: same report, rendered byte for byte, before and after a
     torn line is appended. *)
  let path = Filename.temp_file "rbb_follow_same" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let n = 64 in
      let tracer = Rbb_sim.Tracer.create ~n ~ndjson:(`File path) () in
      let p =
        Rbb_core.Process.create ~rng:(Tutil.rng ())
          ~init:(Rbb_core.Config.all_in_one ~n ~m:n ()) ()
      in
      Rbb_core.Process.run ~probe:(Rbb_sim.Tracer.probe tracer) p ~rounds:300;
      Rbb_sim.Tracer.close tracer;
      let same what =
        let followed = Trace_report.follow_file ~poll_interval_s:0.001 path in
        Alcotest.(check string) what
          (Trace_report.render (Trace_report.read_file path))
          (Trace_report.render followed);
        followed
      in
      let r = same "finished trace" in
      Alcotest.(check int) "every round" 300 r.Trace_report.observables;
      Alcotest.(check bool) "entered the legitimate band" true
        (r.Trace_report.enters >= 1);
      append path "{\"type\":\"observ";
      let r' = same "torn tail" in
      Alcotest.(check bool) "torn tail flagged" true r'.Trace_report.truncated_tail)

let test_follow_file_empty () =
  let path = Filename.temp_file "rbb_follow_empty" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let lives = ref 0 in
      let r =
        Trace_report.follow_file ~poll_interval_s:0.001
          ~live:(fun _ -> incr lives)
          path
      in
      Alcotest.(check int) "no observables" 0 r.Trace_report.observables;
      Alcotest.(check (option int)) "no first round" None r.Trace_report.first_round;
      Alcotest.(check int) "nothing skipped" 0 r.Trace_report.skipped;
      Alcotest.(check bool) "no torn tail" false r.Trace_report.truncated_tail;
      Alcotest.(check int) "no live snapshot without lines" 0 !lives)

(* ------------------------------------------------------------------ *)
(* Fileio locks                                                        *)
(* ------------------------------------------------------------------ *)

let test_lock_exclusion () =
  with_temp_dir "rbb_lock" (fun dir ->
      let path = Filename.concat dir "d.lock" in
      let lock =
        match Fileio.acquire_lock ~path () with
        | Ok l -> l
        | Error e -> Alcotest.fail e
      in
      (match Fileio.acquire_lock ~path () with
      | Error e ->
          Alcotest.(check bool)
            "names the holder" true
            (Tutil.contains_substring e (string_of_int (Unix.getpid ())))
      | Ok _ -> Alcotest.fail "second acquire must fail while held");
      Fileio.release_lock lock;
      Alcotest.(check bool) "lock file removed" false (Sys.file_exists path);
      match Fileio.acquire_lock ~path () with
      | Ok l -> Fileio.release_lock l
      | Error e -> Alcotest.fail ("reacquire after release: " ^ e))

let test_lock_stale_takeover () =
  with_temp_dir "rbb_lock_stale" (fun dir ->
      let path = Filename.concat dir "d.lock" in
      (* A pid that certainly ran and certainly exited: our own child. *)
      let dead_pid = Unix.create_process "/bin/true" [| "true" |]
                       Unix.stdin Unix.stdout Unix.stderr in
      ignore (Unix.waitpid [] dead_pid);
      let oc = open_out path in
      Printf.fprintf oc "%d\n" dead_pid;
      close_out oc;
      (match Fileio.acquire_lock ~path () with
      | Ok l ->
          (* The stale lock was broken and replaced with our pid:token. *)
          let ic = open_in path in
          let holder = input_line ic in
          close_in ic;
          let holder_pid =
            match String.index_opt holder ':' with
            | Some i -> String.sub holder 0 i
            | None -> holder
          in
          Alcotest.(check string)
            "lock now ours" (string_of_int (Unix.getpid ())) holder_pid;
          Fileio.release_lock l
      | Error e -> Alcotest.fail ("stale lock should be taken over: " ^ e));
      (* Garbage contents are treated as stale, too. *)
      let oc = open_out path in
      output_string oc "not a pid";
      close_out oc;
      match Fileio.acquire_lock ~path () with
      | Ok l -> Fileio.release_lock l
      | Error e -> Alcotest.fail ("garbage lock should be taken over: " ^ e))

(* ------------------------------------------------------------------ *)
(* Daemon end to end (in process)                                      *)
(* ------------------------------------------------------------------ *)

let raw_connect socket =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX socket);
  fd

let raw_send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let raw_recv_frame fd =
  let buf = ref "" in
  let chunk = Bytes.create 1024 in
  let rec go () =
    match Protocol.extract ~max_frame:Protocol.default_max_frame !buf with
    | Protocol.Frame { payload; _ } -> payload
    | Protocol.Need_more ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then Alcotest.fail "daemon closed the connection";
        buf := !buf ^ Bytes.sub_string chunk 0 n;
        go ()
    | _ -> Alcotest.fail "corrupt frame from daemon"
  in
  go ()

let expect_error_code fd code =
  match Protocol.response_of_json (raw_recv_frame fd) with
  | Ok (Protocol.Error_reply e) ->
      Alcotest.(check string) "error code" code e.code
  | _ -> Alcotest.failf "expected an %s error reply" code

let test_daemon_end_to_end () =
  with_temp_dir "rbb_e2e" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      let state_dir = Filename.concat dir "state" in
      let cfg =
        {
          (Daemon.default_config ~socket ~state_dir) with
          Daemon.checkpoint_every = 64;
          max_frame = 512;
        }
      in
      let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
      let c = Client.connect ~socket () in
      Client.ping c;
      (* A subscriber on its own connection sees the whole lifecycle. *)
      let sub = Client.connect ~socket () in
      Client.subscribe sub ();
      let s = spec ~n:64 ~rounds:200 ~seed:3 () in
      let id =
        match Client.submit c s with
        | `Accepted id -> id
        | `Rejected _ -> Alcotest.fail "idle daemon must accept"
      in
      Alcotest.(check string) "first id" "job-000001" id;
      let body = Client.await_result c ~id in
      (* The returned body is the exact bytes of the published file. *)
      let on_disk =
        In_channel.with_open_text
          (Job.result_path ~state_dir ~id)
          In_channel.input_line
      in
      Alcotest.(check (option string)) "body is the file" (Some body) on_disk;
      (match Jsonl.parse body with
      | Some fields ->
          Alcotest.(check (option int)) "rounds" (Some 200)
            (Jsonl.find_int fields "rounds");
          (* The result embeds the job's final telemetry counters as a
             schema-versioned snapshot. *)
          (match Jsonl.find_string fields "telemetry" with
          | None -> Alcotest.fail "result must embed a telemetry snapshot"
          | Some tel_json ->
              Alcotest.(check bool) "telemetry schema" true
                (Tutil.contains_substring tel_json "rbb.telemetry-counters/1");
              Alcotest.(check bool) "telemetry counters" true
                (Tutil.contains_substring tel_json "\"counters\":{"))
      | None -> Alcotest.fail "result body must parse");
      (* Status of a finished job, and of nonsense. *)
      (match Client.request c (Protocol.Status id) with
      | Protocol.Job_status { state; round; _ } ->
          Alcotest.(check string) "done" "done" state;
          Alcotest.(check int) "round" 200 round
      | _ -> Alcotest.fail "expected job status");
      (match Client.request c (Protocol.Status "job-999999") with
      | Protocol.Error_reply { code; _ } ->
          Alcotest.(check string) "unknown job" "unknown_job" code
      | _ -> Alcotest.fail "expected unknown_job");
      (* Stats carry the measurement plane. *)
      let st = Client.stats c in
      Alcotest.(check (option int)) "one completion" (Some 1)
        (Jsonl.find_int st "completed");
      Alcotest.(check bool) "service sample present" true
        (Jsonl.find_float st "service_mean_s" <> None);
      (* The metrics request returns a Prometheus exposition whose job
         histograms cover the completed job. *)
      let exposition = Client.metrics c in
      Alcotest.(check (option (float 1e-9)))
        "completed counter scraped" (Some 1.)
        (Rbb_obs.Prometheus.sample_value exposition "rbb_jobs_completed_total");
      let sojourn =
        Rbb_obs.Prometheus.parse_histogram
          ~labels:[ ("outcome", "ok") ]
          exposition "rbb_job_sojourn_seconds"
      in
      (match List.rev sojourn with
      | (le, count) :: _ ->
          Alcotest.(check bool) "+Inf bucket last" true (le = Float.infinity);
          Alcotest.(check int) "one ok job observed" 1 count
      | [] -> Alcotest.fail "sojourn histogram missing from the scrape");
      (* One `rbb top` frame against the live daemon (the scriptable
         --once mode). *)
      let top_out = Filename.temp_file "rbb_top" ".txt" in
      Out_channel.with_open_text top_out (fun oc ->
          Rbb_serve.Top.run ~state_dir ~once:true ~out:oc ~socket ());
      let frame = In_channel.with_open_text top_out In_channel.input_all in
      Sys.remove top_out;
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "top frame mentions %S" needle)
            true
            (Tutil.contains_substring frame needle))
        [ "rbb top"; "sojourn"; "job-000001"; "done" ];
      (* The subscriber saw accepted -> started -> checkpoints -> done,
         in order (200 rounds, checkpoints at 64 and 128 and 192). *)
      let rec stream acc =
        let ev = (Client.next_event sub).Protocol.ev in
        if ev = "done" then List.rev (ev :: acc) else stream (ev :: acc)
      in
      Alcotest.(check (list string))
        "lifecycle stream"
        [ "accepted"; "started"; "checkpoint"; "checkpoint"; "checkpoint";
          "done" ]
        (stream []);
      (* Malformed payload: structured error, connection survives. *)
      let raw = raw_connect socket in
      raw_send raw (Protocol.encode_frame "this is not json");
      expect_error_code raw "bad_json";
      (* Oversized frame: skipped, connection survives. *)
      raw_send raw (Protocol.encode_frame (String.make 600 'x'));
      expect_error_code raw "oversized";
      (* Valid traffic still works on the same connection. *)
      raw_send raw (Protocol.encode_frame (Protocol.request_to_json Protocol.Ping));
      (match Protocol.response_of_json (raw_recv_frame raw) with
      | Ok Protocol.Pong -> ()
      | _ -> Alcotest.fail "connection should have survived the garbage");
      (* Corrupt header: error reply, then the daemon hangs up. *)
      raw_send raw "xyzzy\n";
      expect_error_code raw "bad_frame";
      Alcotest.(check int) "connection closed after corrupt header" 0
        (Unix.read raw (Bytes.create 1) 0 1);
      Unix.close raw;
      (* Drain. *)
      Client.shutdown c;
      Client.close c;
      Client.close sub;
      Domain.join daemon;
      Alcotest.(check bool) "socket removed" false (Sys.file_exists socket);
      Alcotest.(check bool)
        "lock released" false
        (Sys.file_exists (Filename.concat state_dir "daemon.lock"));
      (* The exposition was republished to metrics.prom at shutdown. *)
      let prom =
        In_channel.with_open_text
          (Filename.concat state_dir "metrics.prom")
          In_channel.input_all
      in
      Alcotest.(check (option (float 1e-9)))
        "metrics.prom republished at shutdown" (Some 1.)
        (Rbb_obs.Prometheus.sample_value prom "rbb_jobs_completed_total");
      (* The event log is complete and well formed. *)
      let events =
        In_channel.with_open_text
          (Filename.concat state_dir "events.ndjson")
          In_channel.input_all
      in
      let kinds =
        List.filter_map
          (fun l ->
            match Jsonl.parse l with
            | Some fields -> Jsonl.find_string fields "event"
            | None -> None)
          (List.filter (fun l -> l <> "") (String.split_on_char '\n' events))
      in
      Alcotest.(check (list string))
        "event log"
        [ "accepted"; "started"; "checkpoint"; "checkpoint"; "checkpoint";
          "done" ]
        kinds)

let test_daemon_failed_job_is_durable () =
  with_temp_dir "rbb_e2e_fail" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      let state_dir = Filename.concat dir "state" in
      Unix.mkdir state_dir 0o755;
      (* A job acknowledged by a previous life whose durable spec is now
         garbage: the startup scan must quarantine it and fail the job
         durably — an acked job may corrupt to *failed* but never to
         silently absent.  (A garbage *checkpoint*, by contrast, is
         recoverable: the job restarts from its spec — covered in
         test_chaos.) *)
      let oc = open_out (Job.spec_path ~state_dir ~id:"job-000001") in
      output_string oc "not a job spec\n";
      close_out oc;
      let cfg = Daemon.default_config ~socket ~state_dir in
      let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
      let c = Client.connect ~socket () in
      let rec wait_failed k =
        if k = 0 then Alcotest.fail "job never reported failed"
        else
          match Client.request c (Protocol.Status "job-000001") with
          | Protocol.Job_status { state = "failed"; _ } -> ()
          | _ ->
              Unix.sleepf 0.02;
              wait_failed (k - 1)
      in
      wait_failed 250;
      (match Client.request c (Protocol.Result "job-000001") with
      | Protocol.Error_reply { code; _ } ->
          Alcotest.(check string) "result is job_failed" "job_failed" code
      | _ -> Alcotest.fail "expected a job_failed error");
      Client.shutdown c;
      Client.close c;
      Domain.join daemon;
      Alcotest.(check bool) "durable failure marker" true
        (Sys.file_exists (Job.failed_path ~state_dir ~id:"job-000001"));
      (* Second life: the failed job must not be resubmitted (it would
         re-fail forever), yet its failure stays reportable. *)
      let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
      let c = Client.connect ~socket () in
      (match Client.request c (Protocol.Status "job-000001") with
      | Protocol.Job_status { state; _ } ->
          Alcotest.(check string) "failed across restart" "failed" state
      | _ -> Alcotest.fail "expected a failed status");
      (match Client.request c (Protocol.Result "job-000001") with
      | Protocol.Error_reply { code; _ } ->
          Alcotest.(check string) "job_failed across restart" "job_failed" code
      | _ -> Alcotest.fail "expected a job_failed error");
      (* A fresh submit is unaffected and gets the next sequence id. *)
      (match Client.submit c (spec ~rounds:50 ()) with
      | `Accepted id -> Alcotest.(check string) "next id" "job-000002" id
      | `Rejected _ -> Alcotest.fail "idle daemon must accept");
      ignore (Client.await_result c ~id:"job-000002" : string);
      Client.shutdown c;
      Client.close c;
      Domain.join daemon)

(* A daemon on a fresh state directory, with a client and a subscriber
   to every job's events.  [f] submits through [submit] (which expects
   an accept) and waits for one job's event of a kind through [await];
   [after] runs once the daemon has exited, on its configuration. *)
let with_daemon ?(after = fun (_ : Daemon.config) -> ()) prefix f =
  with_temp_dir prefix (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      let state_dir = Filename.concat dir "state" in
      let cfg = Daemon.default_config ~socket ~state_dir in
      let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
      let c = Client.connect ~socket () in
      let sub = Client.connect ~socket () in
      Client.subscribe sub ();
      let submit s =
        match Client.submit c s with
        | `Accepted id -> id
        | `Rejected _ -> Alcotest.fail "idle daemon must accept"
      in
      let rec await kind id =
        let ev = Client.next_event sub in
        if ev.Protocol.ev = kind && ev.Protocol.id = id then ev
        else await kind id
      in
      f ~state_dir c ~submit ~await;
      Client.shutdown c;
      Client.close c;
      Client.close sub;
      Domain.join daemon;
      after cfg)

(* Far more rounds than 0.05 s allows: only the watchdog ends it. *)
let deadlined = spec ~n:4096 ~rounds:10_000_000 ~deadline_s:0.05 ()

let test_daemon_deadline () =
  with_daemon "rbb_e2e_deadline" (fun ~state_dir:_ c ~submit ~await ->
      (* One job that finishes, so the latency histograms hold an ok
         and a deadline series. *)
      ignore (await "done" (submit (spec ~rounds:50 ())) : Protocol.event);
      let id = submit deadlined in
      let ev = await "failed" id in
      Alcotest.(check bool) "detail names the deadline" true
        (Tutil.contains_substring ev.Protocol.detail
           "deadline of 0.05s exceeded");
      (match Client.request c (Protocol.Status id) with
      | Protocol.Job_status { state; _ } ->
          Alcotest.(check string) "status" "failed" state
      | _ -> Alcotest.fail "expected job status");
      let stats = Client.stats c in
      Alcotest.(check (option int)) "stats count the deadline" (Some 1)
        (Jsonl.find_int stats "deadlined");
      let exposition = Client.metrics c in
      Alcotest.(check (option (float 0.))) "deadlined counter" (Some 1.)
        (Rbb_obs.Prometheus.sample_value exposition "rbb_jobs_deadlined_total");
      Alcotest.(check (option (float 0.))) "sojourn observed as deadline"
        (Some 1.)
        (Rbb_obs.Prometheus.sample_value
           ~labels:[ ("outcome", "deadline") ]
           exposition "rbb_job_sojourn_seconds_count");
      (* The stats reply's sojourn fields are what a scraper computes
         from the exposition, merged over both outcomes. *)
      let stat key =
        match Jsonl.find_float stats key with
        | Some v -> v
        | None -> Alcotest.failf "stats reply lacks %s" key
      in
      let summed metric =
        List.fold_left
          (fun acc outcome ->
            match
              Rbb_obs.Prometheus.sample_value
                ~labels:[ ("outcome", outcome) ]
                exposition metric
            with
            | Some v -> acc +. v
            | None -> Alcotest.failf "scrape lacks %s for %s" metric outcome)
          0. [ "ok"; "deadline" ]
      in
      Tutil.check_rel ~tol:1e-6 "sojourn mean = scraped sum / count"
        (summed "rbb_job_sojourn_seconds_sum"
        /. summed "rbb_job_sojourn_seconds_count")
        (stat "sojourn_mean_s");
      List.iter
        (fun (key, q) ->
          match
            Rbb_obs.Prometheus.scraped_quantile exposition
              "rbb_job_sojourn_seconds" q
          with
          | Some scraped -> Tutil.check_rel ~tol:1e-6 key scraped (stat key)
          | None -> Alcotest.fail "scrape lacks the sojourn histogram")
        [ ("sojourn_p50_s", 0.5); ("sojourn_p99_s", 0.99) ])

(* The daemon keeps only live jobs: a finished job is answered from its
   .result or .failed record, so once the record is gone the job is
   unknown. *)
let test_daemon_answers_from_records () =
  with_daemon "rbb_e2e_records" (fun ~state_dir c ~submit ~await ->
      let ok = submit (spec ~rounds:50 ()) in
      ignore (await "done" ok : Protocol.event);
      let late = submit deadlined in
      let failed = await "failed" late in
      (match Client.request c (Protocol.Status ok) with
      | Protocol.Job_status { state; round; _ } ->
          Alcotest.(check (pair string int)) "done status" ("done", 50)
            (state, round)
      | _ -> Alcotest.fail "expected job status");
      (match Client.request c (Protocol.Result ok) with
      | Protocol.Job_result { body; _ } ->
          Alcotest.(check (option string)) "result is the file" (Some body)
            (In_channel.with_open_text (Job.result_path ~state_dir ~id:ok)
               In_channel.input_line)
      | _ -> Alcotest.fail "expected the result");
      (match Client.request c (Protocol.Status late) with
      | Protocol.Job_status { state; round; _ } ->
          Alcotest.(check (pair string int)) "failed status"
            ("failed", failed.Protocol.round) (state, round)
      | _ -> Alcotest.fail "expected job status");
      (match Client.request c (Protocol.Result late) with
      | Protocol.Error_reply { code; message } ->
          Alcotest.(check (pair string string)) "job_failed"
            ("job_failed", failed.Protocol.detail) (code, message)
      | _ -> Alcotest.fail "expected a job_failed error");
      Sys.remove (Job.result_path ~state_dir ~id:ok);
      Sys.remove (Job.failed_path ~state_dir ~id:late);
      List.iter
        (fun req ->
          match Client.request c req with
          | Protocol.Error_reply { code; _ } ->
              Alcotest.(check string) "record removed" "unknown_job" code
          | _ -> Alcotest.fail "expected unknown_job")
        Protocol.[ Status ok; Result ok; Status late; Result late ])

(* A failure whose .failed marker cannot be written (a directory holds
   its path, so the rename fails) is kept in the table and reported
   until the daemon exits.  A daemon restarted on the same state
   directory reads that directory as an unreadable marker, and a
   directory at a spec's path as an unreadable spec: both jobs read as
   failed, and the daemon keeps serving. *)
let test_daemon_failure_without_marker () =
  let id = Job.fresh_id 1 and spec_dir = Job.fresh_id 2 in
  let restart (cfg : Daemon.config) =
    Unix.mkdir (Job.spec_path ~state_dir:cfg.state_dir ~id:spec_dir) 0o755;
    let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
    let c = Client.connect ~socket:cfg.socket () in
    List.iter
      (fun id ->
        match Client.request c (Protocol.Status id) with
        | Protocol.Job_status { state; _ } ->
            Alcotest.(check string) (id ^ " after restart") "failed" state
        | _ -> Alcotest.fail "expected job status")
      [ id; spec_dir ];
    Client.ping c;
    Client.shutdown c;
    Client.close c;
    Domain.join daemon
  in
  with_daemon ~after:restart "rbb_e2e_nomarker"
    (fun ~state_dir c ~submit ~await ->
      Unix.mkdir (Job.failed_path ~state_dir ~id) 0o755;
      Alcotest.(check string) "blocked id is next" id (submit deadlined);
      ignore (await "failed" id : Protocol.event);
      (match Client.request c (Protocol.Status id) with
      | Protocol.Job_status { state; _ } ->
          Alcotest.(check string) "status" "failed" state
      | _ -> Alcotest.fail "expected job status");
      match Client.request c (Protocol.Result id) with
      | Protocol.Error_reply { code; message } ->
          Alcotest.(check string) "code" "job_failed" code;
          Alcotest.(check bool) "detail names the deadline" true
            (Tutil.contains_substring message "deadline of 0.05s exceeded")
      | _ -> Alcotest.fail "expected a job_failed error")

let test_daemon_rejects_second_instance () =
  with_temp_dir "rbb_e2e_lock" (fun dir ->
      let socket = Filename.concat dir "d.sock" in
      let state_dir = Filename.concat dir "state" in
      let cfg = Daemon.default_config ~socket ~state_dir in
      let daemon = Domain.spawn (fun () -> Daemon.run cfg) in
      let c = Client.connect ~socket () in
      Client.ping c;
      (* Same state dir, different socket: must refuse to start. *)
      (match
         Daemon.run
           {
             cfg with
             Daemon.socket = Filename.concat dir "d2.sock";
           }
       with
      | () -> Alcotest.fail "second daemon must not start"
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            "says who holds it" true
            (Tutil.contains_substring msg "held by running process"));
      Client.shutdown c;
      Client.close c;
      Domain.join daemon)

let suite =
  [
    ( "serve.protocol",
      [
        Tutil.quick "request round-trips" test_request_roundtrips;
        Tutil.quick "response round-trips" test_response_roundtrips;
        Tutil.quick "decode rejections" test_decode_rejections;
        Tutil.quick "optional m on the wire" test_spec_m_wire;
        prop_submit_roundtrip;
        prop_error_roundtrip;
      ] );
    ( "serve.frames",
      [
        Tutil.quick "round-trip and reassembly" test_frame_roundtrip;
        Tutil.quick "oversized is skipped" test_frame_oversized;
        Tutil.quick "corrupt headers are fatal" test_frame_corrupt;
        prop_extract_total;
      ] );
    ( "serve.admission",
      [
        Tutil.quick "bounded fifo with rejection" test_admission_bounds;
        Tutil.quick "atomic reject decision" test_admission_try_reject;
        Tutil.quick "measurement plane" test_admission_measurements;
        Tutil.quick "retry hint arithmetic" test_admission_retry_hint;
        Tutil.quick "resubmit bypasses the bound" test_admission_resubmit_unbounded;
        Tutil.quick "state does not grow with jobs" test_admission_state_bounded;
      ] );
    ( "serve.job",
      [
        Tutil.quick "spec round-trip and scan" test_job_spec_roundtrip;
        Tutil.quick "optional m in the spec file" test_job_spec_m_file;
        Tutil.quick "durable failure marker" test_job_failed_marker;
        Tutil.quick "resume byte-identity (balls)" test_job_resume_identity_balls;
        Tutil.quick "resume byte-identity (counts)" test_job_resume_identity_counts;
        Tutil.quick "matches a direct engine run" test_job_matches_direct_engine;
        Tutil.quick "validation" test_job_validation;
      ] );
    ( "sim.jsonl.tail",
      [
        Tutil.quick "incremental polls, torn tails" test_jsonl_tail;
        Tutil.quick "file may not exist yet" test_jsonl_tail_missing_file;
        Tutil.quick "follow_file on a finished file" test_follow_file_static;
        Tutil.quick "follow_file races a live writer" test_follow_file_live_writer;
        Tutil.quick "follow_file matches read_file" test_follow_file_matches_read_file;
        Tutil.quick "follow_file on an empty file" test_follow_file_empty;
      ] );
    ( "sim.fileio.lock",
      [
        Tutil.quick "mutual exclusion" test_lock_exclusion;
        Tutil.quick "stale locks are broken" test_lock_stale_takeover;
      ] );
    ( "serve.daemon",
      [
        Tutil.quick "end to end" test_daemon_end_to_end;
        Tutil.quick "failed jobs stay failed" test_daemon_failed_job_is_durable;
        Tutil.quick "deadlines fail and are counted" test_daemon_deadline;
        Tutil.quick "finished jobs answer from their records"
          test_daemon_answers_from_records;
        Tutil.quick "a failure without its marker is still reported"
          test_daemon_failure_without_marker;
        Tutil.quick "state dir is exclusive" test_daemon_rejects_second_instance;
      ] );
  ]

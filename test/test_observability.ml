(* Tests for the event-tracing subsystem and its satellites: the Jsonl
   codec, atomic file publication, a golden NDJSON/Chrome document under
   an injected clock, stride and threshold-event semantics, trajectory
   invariance under tracing on both engines, the trace-report analyzer,
   NaN-hardened plotting, and Metrics properties. *)

open Rbb_core
module Jsonl = Rbb_sim.Jsonl
module Fileio = Rbb_sim.Fileio
module Tracer = Rbb_sim.Tracer
module Trace_report = Rbb_sim.Trace_report
module Plot = Rbb_sim.Plot

(* Same fake monotonic clock as the telemetry golden test: 1000 ns per
   reading, so every timestamp in a pinned document is exact. *)
let fake_clock () =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t 1000L;
    !t

(* ------------------------------------------------------------------ *)
(* Jsonl codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_jsonl_obj () =
  Alcotest.(check string)
    "sorted keys"
    "{\"a\":1,\"b\":2.5,\"c\":\"x\",\"d\":true}"
    (Jsonl.obj
       [
         ("d", Jsonl.Bool true);
         ("b", Jsonl.Float 2.5);
         ("a", Jsonl.Int 1);
         ("c", Jsonl.String "x");
       ]);
  Alcotest.(check string)
    "escaping" "{\"k\":\"a\\\"b\\\\c\\nd\"}"
    (Jsonl.obj [ ("k", Jsonl.String "a\"b\\c\nd") ]);
  Alcotest.(check string) "integral float" "3.0" (Jsonl.float_repr 3.0);
  Alcotest.(check string) "finite float" "0.1875" (Jsonl.float_repr 0.1875);
  Alcotest.(check string) "nan is null" "null" (Jsonl.float_repr Float.nan);
  Alcotest.(check string) "empty obj" "{}" (Jsonl.obj [])

let test_jsonl_parse () =
  (match Jsonl.parse "{\"a\":1,\"b\":-2.5,\"c\":\"x\\ty\",\"d\":false}" with
  | None -> Alcotest.fail "flat object should parse"
  | Some fields ->
      Alcotest.(check (option int)) "int" (Some 1) (Jsonl.find_int fields "a");
      Tutil.check_close "float" (-2.5)
        (Option.get (Jsonl.find_float fields "b"));
      Alcotest.(check (option string))
        "string" (Some "x\ty") (Jsonl.find_string fields "c");
      Alcotest.(check (option int)) "missing" None (Jsonl.find_int fields "zz");
      Tutil.check_close "int promoted to float" 1.
        (Option.get (Jsonl.find_float fields "a")));
  (match Jsonl.parse "{\"v\":null}" with
  | Some [ ("v", Jsonl.Float v) ] ->
      Alcotest.(check bool) "null is nan" true (Float.is_nan v)
  | _ -> Alcotest.fail "null should parse as Float nan");
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" bad)
        true
        (Jsonl.parse bad = None))
    [
      "";
      "not json";
      "{\"a\":1} trailing";
      "{\"a\":[1]}";
      "{\"a\":{\"b\":1}}";
      "{\"a\":}";
      "{\"a\"}";
      "[1,2]";
    ]

let test_jsonl_typed_accessors () =
  (* The typed finders answer only for their own type; the single
     widening is an Int read as a float. *)
  let fields =
    [
      ("i", Jsonl.Int 3);
      ("f", Jsonl.Float 0.5);
      ("s", Jsonl.String "7");
      ("b", Jsonl.Bool true);
    ]
  in
  Alcotest.(check (option int)) "int of float" None (Jsonl.find_int fields "f");
  Alcotest.(check (option int)) "int of string" None (Jsonl.find_int fields "s");
  Alcotest.(check (option int)) "int of bool" None (Jsonl.find_int fields "b");
  Alcotest.(check (option (float 0.))) "float of int" (Some 3.)
    (Jsonl.find_float fields "i");
  Alcotest.(check (option (float 0.))) "float of string" None
    (Jsonl.find_float fields "s");
  Alcotest.(check (option string)) "string of int" None
    (Jsonl.find_string fields "i");
  Alcotest.(check bool) "raw bool" true (Jsonl.find fields "b" = Some (Jsonl.Bool true));
  Alcotest.(check bool) "absent" true (Jsonl.find fields "zz" = None)

let test_jsonl_roundtrip =
  let open QCheck2.Gen in
  let value =
    oneof
      [
        map (fun k -> Jsonl.Int k) (int_range (-1000000) 1000000);
        map (fun v -> Jsonl.Float v) (float_range (-1e6) 1e6);
        map (fun s -> Jsonl.String s) (string_size ~gen:printable (return 8));
        map (fun b -> Jsonl.Bool b) bool;
      ]
  in
  let gen =
    list_size (int_range 0 6)
      (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)) value)
  in
  Tutil.prop "jsonl obj/parse round trip" gen (fun fields ->
      (* Dedup keys (objects can't repeat them) and sort, mirroring the
         writer, so the parse is comparable field-by-field. *)
      let fields =
        List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) fields
      in
      match Jsonl.parse (Jsonl.obj fields) with
      | None -> false
      | Some back ->
          List.length back = List.length fields
          && List.for_all2
               (fun (k, v) (k', v') ->
                 k = k'
                 &&
                 match (v, v') with
                 | Jsonl.Float a, Jsonl.Float b ->
                     (* The writer renders through %.12g; accept its
                        rounding. *)
                     Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a)
                 | a, b -> a = b)
               fields back)

(* ------------------------------------------------------------------ *)
(* Atomic file writes                                                  *)
(* ------------------------------------------------------------------ *)

let temp_path suffix =
  let path = Filename.temp_file "rbb_obs" suffix in
  path

let read_all path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_fileio_atomic () =
  let path = temp_path ".txt" in
  Fileio.write_atomic ~path (fun oc -> output_string oc "hello\n");
  Alcotest.(check string) "content" "hello\n" (read_all path);
  Alcotest.(check bool) "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
  (* A writer that raises must not clobber the published file. *)
  (match
     Fileio.write_atomic ~path (fun oc ->
         output_string oc "partial";
         failwith "boom")
   with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure _ -> ());
  Alcotest.(check string) "old content preserved" "hello\n" (read_all path);
  Alcotest.(check bool)
    "tmp cleaned after abort" false
    (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

let test_csv_atomic () =
  let path = temp_path ".csv" in
  Rbb_sim.Csv.write_file ~path ~header:[ "a"; "b" ]
    [ [ "1"; "2" ]; [ "3"; "4" ] ];
  Alcotest.(check string) "content" "a,b\n1,2\n3,4\n" (read_all path);
  Alcotest.(check bool) "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path

let test_telemetry_json_atomic () =
  let path = temp_path ".json" in
  let tel = Rbb_sim.Telemetry.create ~clock:(fake_clock ()) () in
  Rbb_sim.Telemetry.incr tel "c";
  Rbb_sim.Telemetry.write_json tel ~path;
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
  Alcotest.(check bool)
    "content is the document" true
    (Tutil.contains_substring (read_all path) "\"rbb.telemetry/1\"");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Tracer: golden NDJSON document                                      *)
(* ------------------------------------------------------------------ *)

(* n = 16: threshold = ceil(4 ln 16) = 12. *)
let golden_script tr =
  Tracer.observe tr ~round:1 ~max_load:14 ~empty_bins:12 ~balls:16;
  Tracer.observe tr ~round:2 ~max_load:12 ~empty_bins:3 ~balls:16;
  Tracer.observe tr ~round:3 ~max_load:13 ~empty_bins:5 ~balls:16;
  Tracer.span tr ~name:"p.launch" ~worker:0 ~round:3 ~t0:2000L ~t1:2500L;
  Tracer.convergence ~trial:7 tr ~round:42;
  Tracer.close tr

let golden_ndjson =
  String.concat "\n"
    [
      "{\"beta\":4.0,\"every\":1,\"n\":16,\"schema\":\"rbb.trace/1\",\"threshold\":12,\"type\":\"header\"}";
      "{\"balls\":16,\"empty_bins\":12,\"max_load\":14,\"round\":1,\"type\":\"observable\"}";
      "{\"balls\":16,\"empty_bins\":3,\"max_load\":12,\"round\":2,\"type\":\"observable\"}";
      "{\"max_load\":12,\"round\":2,\"threshold\":12,\"type\":\"legitimacy_enter\"}";
      "{\"round\":2,\"threshold\":12,\"type\":\"convergence\"}";
      "{\"empty_bins\":3,\"n\":16,\"round\":2,\"type\":\"quarter_violation\"}";
      "{\"balls\":16,\"empty_bins\":5,\"max_load\":13,\"round\":3,\"type\":\"observable\"}";
      "{\"max_load\":13,\"round\":3,\"threshold\":12,\"type\":\"legitimacy_exit\"}";
      "{\"dur_ns\":500,\"name\":\"p.launch\",\"round\":3,\"t0_ns\":2000,\"type\":\"span\",\"worker\":0}";
      "{\"round\":42,\"threshold\":12,\"trial\":7,\"type\":\"convergence\"}";
      "";
    ]

let test_tracer_golden_ndjson () =
  let buf = Buffer.create 512 in
  let tr =
    Tracer.create ~clock:(fake_clock ()) ~ndjson:(`Buffer buf) ~n:16 ()
  in
  golden_script tr;
  Alcotest.(check string) "document" golden_ndjson (Buffer.contents buf);
  Alcotest.(check int) "events exclude header" 9 (Tracer.events tr);
  (* Every line of the golden document is machine-readable. *)
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun l ->
         Alcotest.(check bool) "line parses" true (Jsonl.parse l <> None))

let test_tracer_golden_chrome () =
  let buf = Buffer.create 512 in
  let tr =
    Tracer.create ~clock:(fake_clock ()) ~chrome:(`Buffer buf) ~n:16 ()
  in
  Tracer.observe tr ~round:1 ~max_load:14 ~empty_bins:12 ~balls:16;
  Tracer.span tr ~name:"x" ~worker:1 ~round:1 ~t0:1000L ~t1:3500L;
  Tracer.close tr;
  let expected =
    "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
    ^ "{\"args\":{\"empty_bins\":12,\"max_load\":14},\"cat\":\"rbb\",\"name\":\"observables\",\"ph\":\"C\",\"pid\":0,\"ts\":1.0},\n"
    ^ "{\"cat\":\"rbb\",\"dur\":2.5,\"name\":\"x\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":1.0}\n"
    ^ "]}\n"
  in
  Alcotest.(check string) "chrome document" expected (Buffer.contents buf);
  (* An empty trace is still a well-formed document. *)
  let buf2 = Buffer.create 64 in
  let tr2 =
    Tracer.create ~clock:(fake_clock ()) ~chrome:(`Buffer buf2) ~n:16 ()
  in
  Tracer.close tr2;
  Alcotest.(check string)
    "empty chrome document" "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}\n"
    (Buffer.contents buf2)

(* The m-aware header: with m <> n the header carries "m" and the
   legitimacy threshold scales by m/n; with m = n (or omitted) the
   header keeps its historical bytes — the golden test above pins
   that.  n = 16, m = 128: threshold = ceil(4 * 8 * ln 16) = 89. *)
let test_tracer_m_aware_header () =
  let buf = Buffer.create 512 in
  let tr =
    Tracer.create ~clock:(fake_clock ()) ~m:128 ~ndjson:(`Buffer buf) ~n:16 ()
  in
  Tracer.observe tr ~round:1 ~max_load:90 ~empty_bins:4 ~balls:128;
  Tracer.observe tr ~round:2 ~max_load:89 ~empty_bins:4 ~balls:128;
  Tracer.close tr;
  let expected =
    String.concat "\n"
      [
        "{\"beta\":4.0,\"every\":1,\"m\":128,\"n\":16,\"schema\":\"rbb.trace/1\",\"threshold\":89,\"type\":\"header\"}";
        "{\"balls\":128,\"empty_bins\":4,\"max_load\":90,\"round\":1,\"type\":\"observable\"}";
        "{\"balls\":128,\"empty_bins\":4,\"max_load\":89,\"round\":2,\"type\":\"observable\"}";
        "{\"max_load\":89,\"round\":2,\"threshold\":89,\"type\":\"legitimacy_enter\"}";
        "{\"round\":2,\"threshold\":89,\"type\":\"convergence\"}";
        "";
      ]
  in
  Alcotest.(check string) "m-aware document" expected (Buffer.contents buf);
  (* An explicit ~m equal to n is the same as omitting it. *)
  let buf_explicit = Buffer.create 512 in
  let tr =
    Tracer.create ~clock:(fake_clock ()) ~m:16 ~ndjson:(`Buffer buf_explicit)
      ~n:16 ()
  in
  golden_script tr;
  Alcotest.(check string) "explicit m = n keeps historical bytes"
    golden_ndjson
    (Buffer.contents buf_explicit);
  Tutil.check_raises_invalid "m < 0" (fun () -> Tracer.create ~m:(-1) ~n:16 ())

(* ------------------------------------------------------------------ *)
(* Tracer semantics                                                    *)
(* ------------------------------------------------------------------ *)

let lines_of buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let records_of_type buf ty =
  List.filter_map
    (fun l ->
      match Jsonl.parse l with
      | Some fields when Jsonl.find_string fields "type" = Some ty -> Some fields
      | _ -> None)
    (lines_of buf)

let test_tracer_stride () =
  let buf = Buffer.create 512 in
  let tr =
    Tracer.create ~clock:(fake_clock ()) ~every:3 ~ndjson:(`Buffer buf) ~n:16 ()
  in
  (* First round seen is 5, so the stride lattice is 5, 8, 11, ... *)
  for round = 5 to 13 do
    (* Round 7 violates Lemma 2 (2 empty bins < 16/4): the event must
       survive even though round 7 is off-stride. *)
    let empty_bins = if round = 7 then 2 else 8 in
    Tracer.observe tr ~round ~max_load:20 ~empty_bins ~balls:16;
    Tracer.span tr ~name:"s" ~worker:0 ~round ~t0:0L ~t1:10L
  done;
  Tracer.close tr;
  let rounds ty =
    List.map
      (fun f -> Option.get (Jsonl.find_int f "round"))
      (records_of_type buf ty)
  in
  Alcotest.(check (list int)) "observables on stride" [ 5; 8; 11 ]
    (rounds "observable");
  Alcotest.(check (list int)) "spans on stride" [ 5; 8; 11 ] (rounds "span");
  Alcotest.(check (list int))
    "violation recorded off-stride" [ 7 ]
    (rounds "quarter_violation")

let test_tracer_transitions () =
  let buf = Buffer.create 512 in
  let tr = Tracer.create ~clock:(fake_clock ()) ~ndjson:(`Buffer buf) ~n:16 () in
  (* Baseline legitimate: no event for the first observation. *)
  Tracer.observe tr ~round:1 ~max_load:5 ~empty_bins:8 ~balls:16;
  Tracer.observe tr ~round:2 ~max_load:5 ~empty_bins:8 ~balls:16;
  Tracer.observe tr ~round:3 ~max_load:20 ~empty_bins:8 ~balls:16;
  Tracer.observe tr ~round:4 ~max_load:4 ~empty_bins:8 ~balls:16;
  Tracer.close tr;
  Alcotest.(check int) "one exit" 1
    (List.length (records_of_type buf "legitimacy_exit"));
  Alcotest.(check int) "one enter (round 4)" 1
    (List.length (records_of_type buf "legitimacy_enter"));
  (* Convergence fires once, on the first legitimate observation. *)
  (match records_of_type buf "convergence" with
  | [ f ] ->
      Alcotest.(check (option int)) "converged at round 1" (Some 1)
        (Jsonl.find_int f "round")
  | l -> Alcotest.failf "expected 1 convergence record, got %d" (List.length l))

let test_tracer_noop_and_close () =
  Alcotest.(check bool) "noop disabled" false (Tracer.enabled Tracer.noop);
  Alcotest.(check int) "noop events" 0 (Tracer.events Tracer.noop);
  Tracer.observe Tracer.noop ~round:1 ~max_load:1 ~empty_bins:1 ~balls:1;
  Tracer.span Tracer.noop ~name:"x" ~worker:0 ~round:1 ~t0:0L ~t1:1L;
  Tracer.convergence Tracer.noop ~round:1;
  Tracer.close Tracer.noop;
  (* Events count without any sink attached; close is idempotent and
     drops later events. *)
  let tr = Tracer.create ~clock:(fake_clock ()) ~n:16 () in
  Tracer.observe tr ~round:1 ~max_load:1 ~empty_bins:8 ~balls:16;
  Alcotest.(check int) "counted without sink" 2 (Tracer.events tr);
  Tracer.close tr;
  Tracer.close tr;
  Tracer.observe tr ~round:2 ~max_load:1 ~empty_bins:8 ~balls:16;
  Alcotest.(check int) "dropped after close" 2 (Tracer.events tr);
  Tutil.check_raises_invalid "every < 1" (fun () ->
      Tracer.create ~every:0 ~n:16 ());
  Tutil.check_raises_invalid "n <= 0" (fun () -> Tracer.create ~n:0 ())

let test_tracer_file_sink () =
  let path = temp_path ".ndjson" in
  let tr = Tracer.create ~clock:(fake_clock ()) ~ndjson:(`File path) ~n:16 () in
  Tracer.observe tr ~round:1 ~max_load:14 ~empty_bins:12 ~balls:16;
  (* Streaming writers stream into a per-process unique temp file next
     to the target and publish on close, atomically. *)
  let temp_files () =
    let dir = Filename.dirname path and base = Filename.basename path in
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> String.starts_with ~prefix:(base ^ ".tmp") f)
  in
  Alcotest.(check bool) "tmp during streaming" true (temp_files () <> []);
  Tracer.close tr;
  Alcotest.(check bool) "published" true (Sys.file_exists path);
  Alcotest.(check bool) "tmp gone" true (temp_files () = []);
  let r = Trace_report.read_file path in
  Alcotest.(check int) "one observable read back" 1 r.Trace_report.observables;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Trajectory invariance and probe wiring                              *)
(* ------------------------------------------------------------------ *)

let test_process_trace_invariance () =
  let make () =
    Process.create ~rng:(Tutil.rng ())
      ~init:(Config.all_in_one ~n:64 ~m:64 ())
      ()
  in
  let plain = make () and traced = make () in
  let buf = Buffer.create 4096 in
  let tr = Tracer.create ~clock:(fake_clock ()) ~ndjson:(`Buffer buf) ~n:64 () in
  let probe = Tracer.probe tr in
  for _ = 1 to 50 do
    Process.step plain
  done;
  Process.run ~probe traced ~rounds:50;
  Tracer.close tr;
  Alcotest.(check (array int))
    "trajectory identical under tracing"
    (Config.loads (Process.config plain))
    (Config.loads (Process.config traced));
  (* The observable stream mirrors the engine's own counters. *)
  let obs = records_of_type buf "observable" in
  Alcotest.(check int) "one observable per round" 50 (List.length obs);
  let last = List.nth obs 49 in
  Alcotest.(check (option int))
    "final max load" (Some (Process.max_load traced))
    (Jsonl.find_int last "max_load");
  Alcotest.(check (option int))
    "final empty bins" (Some (Process.empty_bins traced))
    (Jsonl.find_int last "empty_bins");
  Alcotest.(check (option int)) "final round" (Some 50)
    (Jsonl.find_int last "round");
  Alcotest.(check bool) "launch spans present" true
    (List.length (records_of_type buf "span") > 0)

let test_sharded_trace_invariance () =
  let make ?tracer () =
    Rbb_sim.Sharded.create ?tracer ~shards:4 ~domains:2 ~rng:(Tutil.rng ())
      ~init:(Config.all_in_one ~n:64 ~m:64 ())
      ()
  in
  let plain = make () in
  let buf = Buffer.create 4096 in
  let tr = Tracer.create ~clock:(fake_clock ()) ~ndjson:(`Buffer buf) ~n:64 () in
  let traced = make ~tracer:tr () in
  Rbb_sim.Sharded.run plain ~rounds:30;
  Rbb_sim.Sharded.run traced ~rounds:30;
  Tracer.close tr;
  Alcotest.(check (array int))
    "sharded trajectory identical under tracing"
    (Config.loads (Rbb_sim.Sharded.config plain))
    (Config.loads (Rbb_sim.Sharded.config traced));
  let obs = records_of_type buf "observable" in
  Alcotest.(check int) "one observable per round" 30 (List.length obs);
  let last = List.nth obs 29 in
  Alcotest.(check (option int))
    "pooled reduce matches engine"
    (Some (Rbb_sim.Sharded.max_load traced))
    (Jsonl.find_int last "max_load");
  Alcotest.(check (option int))
    "pooled empty matches engine"
    (Some (Rbb_sim.Sharded.empty_bins traced))
    (Jsonl.find_int last "empty_bins")

let test_process_sharded_same_trace () =
  (* The NDJSON observable stream itself is engine-independent. *)
  let trace_with run =
    let buf = Buffer.create 4096 in
    let tr =
      Tracer.create ~clock:(fake_clock ()) ~ndjson:(`Buffer buf) ~n:32 ()
    in
    run tr;
    Tracer.close tr;
    String.concat "\n"
      (List.filter
         (fun l ->
           match Jsonl.parse l with
           | Some f -> Jsonl.find_string f "type" <> Some "span"
           | None -> false)
         (lines_of buf))
  in
  let seq =
    trace_with (fun tr ->
        let p =
          Process.create ~rng:(Tutil.rng ())
            ~init:(Config.all_in_one ~n:32 ~m:32 ())
            ()
        in
        Process.run ~probe:(Tracer.probe tr) p ~rounds:40)
  in
  let shr =
    trace_with (fun tr ->
        let p =
          Rbb_sim.Sharded.create ~tracer:tr ~shards:3 ~domains:2
            ~rng:(Tutil.rng ())
            ~init:(Config.all_in_one ~n:32 ~m:32 ())
            ()
        in
        Rbb_sim.Sharded.run p ~rounds:40)
  in
  Alcotest.(check string) "identical non-span stream" seq shr

let test_tetris_probe () =
  let buf = Buffer.create 4096 in
  let tr = Tracer.create ~clock:(fake_clock ()) ~ndjson:(`Buffer buf) ~n:32 () in
  let t =
    Tetris.create ~rng:(Tutil.rng ()) ~init:(Config.uniform ~n:32) ()
  in
  Tetris.run ~probe:(Tracer.probe tr) t ~rounds:10;
  Tracer.close tr;
  let obs = records_of_type buf "observable" in
  Alcotest.(check int) "one observable per round" 10 (List.length obs);
  let last = List.nth obs 9 in
  Alcotest.(check (option int))
    "balls tracks total_balls" (Some (Tetris.total_balls t))
    (Jsonl.find_int last "balls");
  Alcotest.(check int) "step spans" 10
    (List.length (records_of_type buf "span"))

let test_probe_compose () =
  let p = Probe.noop in
  Alcotest.(check bool) "noop+noop stays noop" true
    (not (Probe.live (Probe.compose p p)));
  let hits = ref 0 in
  let a = { Probe.noop with enabled = true; add = (fun _ _ -> incr hits) } in
  let b =
    {
      Probe.noop with
      tracing = true;
      on_round = (fun ~round:_ ~max_load:_ ~empty_bins:_ ~balls:_ -> incr hits);
    }
  in
  let c = Probe.compose a b in
  Alcotest.(check bool) "composed live" true (Probe.live c);
  Alcotest.(check bool) "composed enabled" true c.Probe.enabled;
  Alcotest.(check bool) "composed tracing" true c.Probe.tracing;
  c.Probe.add "x" 1;
  c.Probe.on_round ~round:1 ~max_load:1 ~empty_bins:1 ~balls:1;
  Alcotest.(check int) "both sides hit" 2 !hits

(* ------------------------------------------------------------------ *)
(* Trace_report                                                        *)
(* ------------------------------------------------------------------ *)

let golden_report_lines =
  List.filter
    (fun l -> l <> "")
    (String.split_on_char '\n' golden_ndjson)

let test_trace_report_summary () =
  let r = Trace_report.of_lines golden_report_lines in
  Alcotest.(check (option int)) "n" (Some 16) r.Trace_report.n;
  Alcotest.(check (option int)) "threshold" (Some 12) r.Trace_report.threshold;
  Alcotest.(check int) "observables" 3 r.Trace_report.observables;
  Alcotest.(check (option int)) "peak" (Some 14) r.Trace_report.peak_max_load;
  Tutil.check_close "min empty fraction" 0.1875
    (Option.get r.Trace_report.min_empty_fraction);
  Alcotest.(check int) "legit observed" 1 r.Trace_report.legit_observed;
  Alcotest.(check int) "enters" 1 r.Trace_report.enters;
  Alcotest.(check int) "exits" 1 r.Trace_report.exits;
  Alcotest.(check int) "quarter violations" 1 r.Trace_report.quarter_violations;
  Alcotest.(check (list (pair (option int) int)))
    "convergence in file order"
    [ (None, 2); (Some 7, 42) ]
    r.Trace_report.convergence;
  Alcotest.(check (list (pair string int)))
    "span counts" [ ("p.launch", 1) ] r.Trace_report.spans;
  Alcotest.(check int) "nothing skipped" 0 r.Trace_report.skipped

(* The three entry points fold the same lines: from a list, from a
   channel and from a file, a complete document gives one report. *)
let test_trace_report_readers_agree () =
  let path = temp_path ".ndjson" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc golden_ndjson);
  let expected = Trace_report.render (Trace_report.of_lines golden_report_lines) in
  Alcotest.(check string) "read_file" expected
    (Trace_report.render (Trace_report.read_file path));
  Alcotest.(check string) "read_channel" expected
    (Trace_report.render (In_channel.with_open_bin path Trace_report.read_channel))

let test_trace_report_render () =
  let r = Trace_report.of_lines golden_report_lines in
  let expected =
    String.concat "\n"
      [
        "trace report (rbb.trace/1)";
        "  n=16  threshold=12  every=1";
        "  observable rounds : 3 (rounds 1..3)";
        "  peak max load     : 14";
        "  min empty fraction: 0.1875";
        "  balls             : 16 (constant)";
        "  legitimacy        : 1/3 observed rounds legitimate";
        "  enters/exits      : 1/1";
        "  convergence       : round 2, trial 7: round 42";
        "  quarter violations: 1";
        "  spans             : p.launch=1";
        "";
      ]
  in
  Alcotest.(check string) "render" expected (Trace_report.render ~plot:false r);
  (* A header carrying "m" surfaces it in the summary line. *)
  let r =
    Trace_report.of_lines
      [
        "{\"beta\":4.0,\"every\":1,\"m\":128,\"n\":16,\"schema\":\"rbb.trace/1\",\"threshold\":89,\"type\":\"header\"}";
        "{\"balls\":128,\"empty_bins\":0,\"max_load\":90,\"round\":1,\"type\":\"observable\"}";
      ]
  in
  Alcotest.(check bool) "m on the summary line" true
    (Tutil.contains_substring
       (Trace_report.render ~plot:false r)
       "n=16  m=128  threshold=89")

let test_trace_report_excursion_and_skips () =
  let r =
    Trace_report.of_lines
      [
        "{\"round\":10,\"threshold\":12,\"type\":\"legitimacy_exit\",\"max_load\":13}";
        "garbage line";
        "{\"round\":25,\"threshold\":12,\"type\":\"legitimacy_enter\",\"max_load\":12}";
        "{\"unknown\":true}";
      ]
  in
  Alcotest.(check (option int))
    "excursion closed over the gap" (Some 15) r.Trace_report.longest_excursion;
  Alcotest.(check int) "skipped lines counted" 2 r.Trace_report.skipped;
  (* Headerless renders still work. *)
  Alcotest.(check bool) "headerless render" true
    (Tutil.contains_substring
       (Trace_report.render ~plot:false r)
       "trace report (no header)")

(* ------------------------------------------------------------------ *)
(* Plot NaN handling                                                   *)
(* ------------------------------------------------------------------ *)

let test_plot_nan () =
  Alcotest.(check string) "empty sparkline" "" (Plot.sparkline [||]);
  Alcotest.(check string)
    "all-NaN sparkline" ""
    (Plot.sparkline [| Float.nan; Float.nan |]);
  Alcotest.(check string)
    "NaN renders as a gap" "\xe2\x96\x81 \xe2\x96\x88"
    (Plot.sparkline [| 1.; Float.nan; 2. |]);
  Alcotest.(check string)
    "infinities are gaps too" "\xe2\x96\x81 \xe2\x96\x88"
    (Plot.sparkline [| 1.; Float.infinity; 2. |]);
  Alcotest.(check string) "empty line plot" "" (Plot.line_plot [||]);
  Alcotest.(check string)
    "all-NaN line plot" ""
    (Plot.line_plot (Array.make 10 Float.nan));
  let plot =
    Plot.line_plot ~rows:4 ~cols:10 [| 1.; Float.nan; 3.; 2.; Float.nan; 5. |]
  in
  Alcotest.(check bool) "mixed series still plots" true
    (Tutil.contains_substring plot "*");
  Alcotest.(check bool) "scale ignores NaN" true
    (Tutil.contains_substring plot "5");
  (* Long series: resampling must not smear NaN into neighbours. *)
  let long = Array.init 300 (fun i -> if i < 150 then Float.nan else 2.) in
  Alcotest.(check bool)
    "half-NaN long series plots" true
    (Tutil.contains_substring (Plot.line_plot ~rows:4 ~cols:20 long) "*");
  let chart = Plot.bar_chart [ ("a", Float.nan); ("b", 2.) ] in
  Alcotest.(check bool) "bar chart prints nan label" true
    (Tutil.contains_substring chart "nan");
  Alcotest.(check bool) "finite bar still scaled" true
    (Tutil.contains_substring chart "\xe2\x96\x88")

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_gen =
  QCheck2.Gen.(
    list_size (int_range 1 60) (pair (int_range 0 64) (int_range 0 64)))

let test_metrics_properties =
  Tutil.prop "metrics fold the stream exactly" metrics_gen (fun pairs ->
      let n = 64 in
      let m = Metrics.create ~n in
      List.iter
        (fun (max_load, empty_bins) -> Metrics.observe m ~max_load ~empty_bins)
        pairs;
      let expected_max = List.fold_left (fun a (x, _) -> Stdlib.max a x) 0 pairs in
      let expected_min_frac =
        List.fold_left
          (fun a (_, e) -> Float.min a (float_of_int e /. float_of_int n))
          1. pairs
      in
      let expected_below =
        List.length (List.filter (fun (_, e) -> 4 * e < n) pairs)
      in
      Metrics.rounds m = List.length pairs
      && Metrics.running_max_load m = expected_max
      && Metrics.min_empty_fraction m = expected_min_frac
      && Metrics.rounds_below_quarter m = expected_below)

let test_metrics_observe_process () =
  let p =
    Process.create ~rng:(Tutil.rng ()) ~init:(Config.all_in_one ~n:32 ~m:32 ()) ()
  in
  let auto = Metrics.create ~n:32 and manual = Metrics.create ~n:32 in
  for _ = 1 to 25 do
    Process.step p;
    Metrics.observe_process auto p;
    Metrics.observe manual ~max_load:(Process.max_load p)
      ~empty_bins:(Process.empty_bins p)
  done;
  Alcotest.(check int) "rounds" (Metrics.rounds manual) (Metrics.rounds auto);
  Alcotest.(check int) "running max"
    (Metrics.running_max_load manual)
    (Metrics.running_max_load auto);
  Tutil.check_close "mean max load"
    (Metrics.mean_max_load manual)
    (Metrics.mean_max_load auto);
  Tutil.check_close "min empty fraction"
    (Metrics.min_empty_fraction manual)
    (Metrics.min_empty_fraction auto);
  Alcotest.(check int) "below quarter"
    (Metrics.rounds_below_quarter manual)
    (Metrics.rounds_below_quarter auto)

let suite =
  [
    ( "sim.jsonl",
      [
        Tutil.quick "writer" test_jsonl_obj;
        Tutil.quick "parser" test_jsonl_parse;
        Tutil.quick "typed accessors" test_jsonl_typed_accessors;
        test_jsonl_roundtrip;
      ] );
    ( "sim.fileio",
      [
        Tutil.quick "atomic write and abort" test_fileio_atomic;
        Tutil.quick "csv is atomic" test_csv_atomic;
        Tutil.quick "telemetry json is atomic" test_telemetry_json_atomic;
      ] );
    ( "sim.tracer",
      [
        Tutil.quick "golden NDJSON (fake clock)" test_tracer_golden_ndjson;
        Tutil.quick "golden chrome trace" test_tracer_golden_chrome;
        Tutil.quick "m-aware header and threshold" test_tracer_m_aware_header;
        Tutil.quick "stride vs threshold events" test_tracer_stride;
        Tutil.quick "legitimacy transitions" test_tracer_transitions;
        Tutil.quick "noop and close" test_tracer_noop_and_close;
        Tutil.quick "file sink publishes atomically" test_tracer_file_sink;
      ] );
    ( "sim.tracing",
      [
        Tutil.quick "process trajectory invariant" test_process_trace_invariance;
        Tutil.quick "sharded trajectory invariant" test_sharded_trace_invariance;
        Tutil.quick "engines emit identical streams"
          test_process_sharded_same_trace;
        Tutil.quick "tetris probe" test_tetris_probe;
        Tutil.quick "probe compose" test_probe_compose;
      ] );
    ( "sim.trace_report",
      [
        Tutil.quick "summary stats" test_trace_report_summary;
        Tutil.quick "golden render" test_trace_report_render;
        Tutil.quick "excursions and skips" test_trace_report_excursion_and_skips;
        Tutil.quick "readers agree" test_trace_report_readers_agree;
      ] );
    ("sim.plot.nan", [ Tutil.quick "NaN handling" test_plot_nan ]);
    ( "core.metrics.fold",
      [
        test_metrics_properties;
        Tutil.quick "observe_process golden" test_metrics_observe_process;
      ] );
  ]

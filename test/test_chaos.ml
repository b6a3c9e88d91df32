(* Chaos-hardening tests: the CRC-32 primitive against its published
   vectors, write_atomic's never-a-torn-file contract under every
   injected io.* fault, the pid-reuse-safe lock protocol (the heartbeat
   regression: a live pid with a stale heartbeat is breakable, a fresh
   one is not), the supervisor's deterministic decorrelated jitter
   against pinned goldens, checkpoint corruption fuzz (bit flips and
   truncations never escape as exceptions, and a flip only loads if it
   destroyed the integrity trailer itself), the job runner's
   quarantine-and-restart byte-identity, and a miniature end-to-end
   chaos campaign (real fork / SIGKILL).  All seeds fixed. *)

module Integrity = Rbb_sim.Integrity
module Failpoint = Rbb_sim.Failpoint
module Fileio = Rbb_sim.Fileio
module Supervisor = Rbb_sim.Supervisor
module Checkpoint = Rbb_sim.Checkpoint
module Protocol = Rbb_serve.Protocol
module Job = Rbb_serve.Job
module Chaos = Rbb_serve.Chaos
module Rng = Rbb_prng.Rng

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
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Every fault-arming test must disarm on the way out: the shim is
   process-global and the rest of the suite runs in this process. *)
let with_failpoints specs f =
  Fileio.set_failpoints (Failpoint.of_specs specs);
  Fun.protect ~finally:(fun () -> Fileio.set_failpoints Failpoint.noop) f

let at name =
  { Failpoint.name; trigger = At { round = Some 0; shard = None; fails = 1 } }

(* ------------------------------------------------------------------ *)
(* Integrity: CRC-32 vectors                                           *)
(* ------------------------------------------------------------------ *)

let test_crc32_vectors () =
  Alcotest.(check int32) "check vector" 0xcbf43926l (Integrity.string "123456789");
  Alcotest.(check int32) "empty stream" 0l (Integrity.string "");
  Alcotest.(check int32) "fox"
    0x414fa339l
    (Integrity.string "The quick brown fox jumps over the lazy dog");
  (* Incremental feeding in any chunking folds to the one-shot digest. *)
  let s = "123456789" in
  let chunked =
    Integrity.feed (Integrity.feed (Integrity.feed Integrity.start "123") "4567") "89"
  in
  Alcotest.(check int32) "chunked feed" (Integrity.string s) (Integrity.digest chunked);
  let by_char =
    String.fold_left (fun st c -> Integrity.feed_char st c) Integrity.start s
  in
  Alcotest.(check int32) "feed_char" (Integrity.string s) (Integrity.digest by_char);
  Alcotest.(check string) "to_hex wire form" "cbf43926" (Integrity.to_hex by_char);
  Alcotest.(check bool) "equal_hex" true (Integrity.equal_hex by_char "cbf43926");
  Alcotest.(check bool) "equal_hex case" true (Integrity.equal_hex by_char "CBF43926");
  Alcotest.(check bool) "equal_hex mismatch" false
    (Integrity.equal_hex by_char "cbf43927")

(* ------------------------------------------------------------------ *)
(* Fileio: write_atomic under every injected fault                     *)
(* ------------------------------------------------------------------ *)

let entries dir = Sys.readdir dir |> Array.to_list |> List.sort compare

(* The contract: whatever fault fires inside write_atomic — short
   write, failed fsync, failed rename — the published path holds either
   the complete old bytes or the complete new bytes, and no temp file
   survives. *)
let test_write_atomic_never_torn () =
  List.iter
    (fun point ->
      with_temp_dir "rbb_torn" (fun dir ->
          let path = Filename.concat dir "data.json" in
          let old = "the old complete content\n" in
          write_file path old;
          with_failpoints [ at point ] (fun () ->
              let faults0 = Fileio.injected_faults () in
              (match
                 Fileio.write_atomic ~path (fun oc ->
                     output_string oc "the new content that must not tear\n")
               with
              | () -> Alcotest.failf "%s: fault did not fire" point
              | exception Failpoint.Injected { name; _ } ->
                  Alcotest.(check string) "fault name" point name);
              Alcotest.(check bool)
                (point ^ ": fault counted") true
                (Fileio.injected_faults () > faults0));
          Alcotest.(check string) (point ^ ": old bytes intact") old (read_file path);
          Alcotest.(check (list string))
            (point ^ ": no temp residue") [ "data.json" ] (entries dir);
          (* Disarmed, the same write goes through. *)
          Fileio.write_atomic ~path (fun oc -> output_string oc "fresh\n");
          Alcotest.(check string) (point ^ ": disarmed write") "fresh\n"
            (read_file path)))
    [ "io.write"; "io.fsync"; "io.rename" ];
  (* A fresh target faulted mid-publication simply never appears. *)
  with_temp_dir "rbb_torn" (fun dir ->
      let path = Filename.concat dir "new.json" in
      with_failpoints [ at "io.rename" ] (fun () ->
          match Fileio.write_atomic ~path (fun oc -> output_string oc "x") with
          | () -> Alcotest.fail "rename fault did not fire"
          | exception Failpoint.Injected _ -> ());
      Alcotest.(check (list string)) "nothing published, nothing leaked" []
        (entries dir))

let test_io_lock_injection () =
  with_temp_dir "rbb_lockfp" (fun dir ->
      let path = Filename.concat dir "lock" in
      with_failpoints [ at "io.lock" ] (fun () ->
          match Fileio.acquire_lock ~path () with
          | Ok _ -> Alcotest.fail "io.lock fault did not fire"
          | Error _ -> ());
      match Fileio.acquire_lock ~path () with
      | Error e -> Alcotest.failf "disarmed acquire failed: %s" e
      | Ok lock -> Fileio.release_lock lock)

(* ------------------------------------------------------------------ *)
(* Fileio: pid-reuse-safe locking (the heartbeat regression)           *)
(* ------------------------------------------------------------------ *)

(* A recycled pid makes a dead owner's lock file name a live process.
   Under the bare-pid protocol that lock was unbreakable forever; under
   pid:token + heartbeat it is breakable as soon as the heartbeat goes
   stale, because the recycled process never rewrites the token. *)
let test_lock_pid_reuse_regression () =
  with_temp_dir "rbb_lock" (fun dir ->
      let path = Filename.concat dir "lock" in
      (* Live pid, token protocol, but no heartbeat at all: exactly what
         pid reuse produces.  Must be broken. *)
      write_file path (Printf.sprintf "%d:0123456789abcdef" (Unix.getpid ()));
      (match Fileio.acquire_lock ~heartbeat_stale_s:0.2 ~path () with
      | Error e -> Alcotest.failf "live pid without heartbeat held: %s" e
      | Ok lock -> Fileio.release_lock lock);
      (* A real owner that stops heartbeating (wedged or recycled) loses
         the lock once the beat is older than the staleness window... *)
      (match Fileio.acquire_lock ~heartbeat_stale_s:10. ~path () with
      | Error e -> Alcotest.failf "initial acquire: %s" e
      | Ok _stale_owner ->
          Unix.sleepf 0.25;
          (match Fileio.acquire_lock ~heartbeat_stale_s:0.1 ~path () with
          | Error e -> Alcotest.failf "stale heartbeat not broken: %s" e
          | Ok fresh_owner ->
              (* ...while a heartbeating owner keeps it: refresh, then a
                 contender with a generous window must be refused. *)
              Unix.sleepf 0.15;
              Fileio.refresh_lock fresh_owner;
              (match Fileio.acquire_lock ~heartbeat_stale_s:5. ~path () with
              | Ok _ -> Alcotest.fail "fresh heartbeat was broken"
              | Error e ->
                  Alcotest.(check bool) "error names the holder" true
                    (String.length e > 0));
              Fileio.release_lock fresh_owner));
      (* Legacy bare-pid files keep the conservative protocol: a live
         pid holds, a dead one is stale. *)
      write_file path (string_of_int (Unix.getpid ()));
      (match Fileio.acquire_lock ~heartbeat_stale_s:0.01 ~path () with
      | Ok _ -> Alcotest.fail "legacy live-pid lock was broken"
      | Error _ -> ());
      Sys.remove path;
      (* A pid with no live process (scanned, not forked: the test
         suite has already spawned domains, and OCaml 5 forbids fork
         after that). *)
      let dead_pid =
        let rec find p =
          if p <= 300 then Alcotest.fail "no dead pid found"
          else
            match Unix.kill p 0 with
            | () -> find (p - 1)
            | exception Unix.Unix_error (Unix.ESRCH, _, _) -> p
            | exception Unix.Unix_error (_, _, _) -> find (p - 1)
        in
        find 99999
      in
      write_file path (Printf.sprintf "%d:0123456789abcdef" dead_pid);
      match Fileio.acquire_lock ~path () with
      | Error e -> Alcotest.failf "dead owner's lock held: %s" e
      | Ok lock -> Fileio.release_lock lock)

(* ------------------------------------------------------------------ *)
(* Supervisor: deterministic decorrelated jitter                       *)
(* ------------------------------------------------------------------ *)

let jitter_schedule ~seed ~name ~round ~shard ~retries =
  let sleeps = ref [] in
  let sup =
    Supervisor.create ~retries ~backoff_ns:1_000_000L ~jitter:seed
      ~sleep:(fun ns -> sleeps := ns :: !sleeps)
      ()
  in
  (match
     Supervisor.supervise sup ~name ~round ~shard (fun ~attempt:_ ->
         failwith "always")
   with
  | _ -> Alcotest.fail "supervised failure succeeded"
  | exception Supervisor.Budget_exhausted { attempts; _ } ->
      Alcotest.(check int) "attempts" (retries + 1) attempts);
  List.rev !sleeps

(* Golden values pinned against the stable Failpoint.hash_unit: the
   jittered exponential schedule for (seed 0xBEEF, "test.phase",
   round 3, shard 1) is the same on every platform and every run. *)
let test_supervisor_jitter_golden () =
  let golden = [ 1_242_690L; 2_961_720L; 5_083_518L ] in
  let sched =
    jitter_schedule ~seed:0xBEEFL ~name:"test.phase" ~round:3 ~shard:1 ~retries:3
  in
  Alcotest.(check (list int64)) "pinned schedule" golden sched;
  (* Replay is exact. *)
  Alcotest.(check (list int64)) "deterministic replay" golden
    (jitter_schedule ~seed:0xBEEFL ~name:"test.phase" ~round:3 ~shard:1
       ~retries:3);
  (* Each sleep is the exponential step scaled into [0.5, 1.5): jitter
     spreads the pool without ever collapsing a backoff to zero. *)
  List.iteri
    (fun attempt ns ->
      let b = Int64.to_float (Int64.shift_left 1_000_000L attempt) in
      let r = Int64.to_float ns /. b in
      if r < 0.5 || r >= 1.5 then
        Alcotest.failf "attempt %d: jitter factor %.3f outside [0.5, 1.5)"
          attempt r)
    sched;
  (* Decorrelation: another shard of the same fault storm retries on a
     different schedule. *)
  let other =
    jitter_schedule ~seed:0xBEEFL ~name:"test.phase" ~round:3 ~shard:2 ~retries:3
  in
  Alcotest.(check bool) "shards decorrelate" true (sched <> other);
  (* No jitter seed: the pure exponential sequence, unchanged. *)
  let sleeps = ref [] in
  let sup =
    Supervisor.create ~retries:3 ~backoff_ns:1_000_000L
      ~sleep:(fun ns -> sleeps := ns :: !sleeps)
      ()
  in
  (try
     ignore
       (Supervisor.supervise sup ~name:"test.phase" ~round:3 ~shard:1
          (fun ~attempt:_ -> failwith "always"))
   with Supervisor.Budget_exhausted _ -> ());
  Alcotest.(check (list int64)) "unjittered exponential"
    [ 1_000_000L; 2_000_000L; 4_000_000L ]
    (List.rev !sleeps)

(* ------------------------------------------------------------------ *)
(* Checkpoint: corruption fuzz                                         *)
(* ------------------------------------------------------------------ *)

let sample_checkpoint dir =
  let rng = Rng.create ~seed:5L () in
  let p =
    Rbb_core.Process.create ~d_choices:2 ~rng
      ~init:(Rbb_core.Config.uniform ~n:300) ()
  in
  Rbb_core.Process.run p ~rounds:23;
  let path = Filename.concat dir "base.ckpt" in
  Checkpoint.save ~path (Checkpoint.capture_process p);
  read_file path

(* Bit flips and truncations never escape Checkpoint.load as
   exceptions; and a flipped file only loads successfully if the flip
   destroyed the integrity trailer itself (demoting the file to the
   warned legacy path) — a flip in checksummed content is always
   caught. *)
let test_checkpoint_corruption_fuzz () =
  with_temp_dir "rbb_fuzz" (fun dir ->
      let base = sample_checkpoint dir in
      let len = String.length base in
      let path = Filename.concat dir "fuzzed.ckpt" in
      let rng = Rng.create ~seed:77L () in
      let errors = ref 0 and legacy_oks = ref 0 in
      for _ = 1 to 300 do
        let b = Bytes.of_string base in
        let i = Rng.int_below rng len in
        let bit = Rng.int_below rng 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        write_file path (Bytes.to_string b);
        let warned = ref false in
        match Checkpoint.load ~on_warning:(fun _ -> warned := true) ~path () with
        | Error _ -> incr errors
        | Ok _ when !warned -> incr legacy_oks
        | Ok _ ->
            Alcotest.failf
              "bit %d of byte %d flipped yet the file loaded verified" bit i
        | exception e ->
            Alcotest.failf "flip at byte %d raised: %s" i (Printexc.to_string e)
      done;
      Alcotest.(check bool) "flips are overwhelmingly detected" true
        (!errors >= 270 && !errors + !legacy_oks = 300);
      (* Truncations at every kind of boundary: never an exception. *)
      for _ = 1 to 120 do
        let k = Rng.int_below rng len in
        write_file path (String.sub base 0 k);
        match Checkpoint.load ~path () with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "truncation to %d bytes raised: %s" k
              (Printexc.to_string e)
      done)

(* A pre-CRC-era file (no crc32 field in the end record) still loads,
   but the caller is warned that the content went unverified. *)
let test_checkpoint_legacy_trailer_warns () =
  with_temp_dir "rbb_legacy" (fun dir ->
      let base = sample_checkpoint dir in
      (* Splice the crc32 field out of the end record by hand (the
         trailer renders as "crc32":"xxxxxxxx", in sorted-key order). *)
      let marker = "\"crc32\":\"" in
      let i =
        let rec find k =
          if k + String.length marker > String.length base then
            Alcotest.fail "no crc32 trailer in a fresh checkpoint"
          else if String.sub base k (String.length marker) = marker then k
          else find (k + 1)
        in
        find 0
      in
      let cut = String.length marker + 8 + 2 (* hex digits, quote, comma *) in
      let legacy =
        String.sub base 0 i
        ^ String.sub base (i + cut) (String.length base - i - cut)
      in
      Alcotest.(check bool) "trailer was stripped" true (legacy <> base);
      let path = Filename.concat dir "legacy.ckpt" in
      write_file path legacy;
      let warnings = ref [] in
      match Checkpoint.load ~on_warning:(fun w -> warnings := w :: !warnings) ~path () with
      | Error e -> Alcotest.failf "legacy file rejected: %s" e
      | Ok snap ->
          Alcotest.(check int) "round survives" 23 snap.Checkpoint.round;
          (match !warnings with
          | [ w ] ->
              Alcotest.(check bool) "warning names the gap" true
                (String.length w > 0)
          | ws -> Alcotest.failf "expected 1 warning, got %d" (List.length ws)))

(* ------------------------------------------------------------------ *)
(* Job: quarantine-and-restart byte-identity; cancellation             *)
(* ------------------------------------------------------------------ *)

let job_spec ~rounds =
  {
    Protocol.n = 48;
    m = 48;
    rounds;
    seed = 90210;
    init = "uniform";
    engine = Protocol.Balls;
    deadline_s = infinity;
  }

(* Interrupt a job mid-run, corrupt its checkpoint, and let the runner
   recover: the poison is quarantined (not deleted), the job restarts
   from the spec, and the published result is byte-identical to an
   uninterrupted solo run.  This is the storage layer's headline
   contract, in miniature. *)
let test_job_quarantine_byte_identity () =
  let spec = job_spec ~rounds:200 in
  let solo =
    with_temp_dir "rbb_solo" (fun dir ->
        Job.write_spec ~state_dir:dir ~id:"job-000001" spec;
        ignore
          (Job.run ~state_dir:dir ~checkpoint_every:1000 ~id:"job-000001" spec);
        read_file (Job.result_path ~state_dir:dir ~id:"job-000001"))
  in
  with_temp_dir "rbb_quar" (fun dir ->
      Job.write_spec ~state_dir:dir ~id:"job-000001" spec;
      let polls = ref 0 in
      (match
         Job.run
           ~should_stop:(fun () ->
             incr polls;
             if !polls > 60 then Some "test interruption" else None)
           ~state_dir:dir ~checkpoint_every:25 ~id:"job-000001" spec
       with
      | _ -> Alcotest.fail "interrupted run completed"
      | exception Job.Canceled { id; round; reason } ->
          Alcotest.(check string) "canceled id" "job-000001" id;
          Alcotest.(check string) "canceled reason" "test interruption" reason;
          Alcotest.(check bool) "made progress before cancel" true (round >= 25));
      let ckpt = Job.checkpoint_path ~state_dir:dir ~id:"job-000001" in
      Alcotest.(check bool) "checkpoint survives cancel" true (Sys.file_exists ckpt);
      (* Flip one bit mid-checkpoint: the CRC must catch it and the
         runner must fall back to the spec, not crash and not trust it. *)
      let b = Bytes.of_string (read_file ckpt) in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      write_file ckpt (Bytes.to_string b);
      let quarantined = ref [] in
      let fields =
        Job.run
          ~on_quarantine:(fun ~path ~reason -> quarantined := (path, reason) :: !quarantined)
          ~state_dir:dir ~checkpoint_every:25 ~id:"job-000001" spec
      in
      (match !quarantined with
      | [ (qpath, reason) ] ->
          Alcotest.(check bool) "poison moved into quarantine/" true
            (Sys.file_exists qpath
            && Filename.dirname qpath = Job.quarantine_dir ~state_dir:dir);
          Alcotest.(check bool) "reason is prose" true (String.length reason > 0)
      | q -> Alcotest.failf "expected 1 quarantine event, got %d" (List.length q));
      Alcotest.(check string) "result bytes identical to solo run" solo
        (read_file (Job.result_path ~state_dir:dir ~id:"job-000001"));
      Alcotest.(check string) "returned fields match the published line" solo
        (Job.result_body fields ^ "\n"))

(* Durable failure markers advance the id sequence: a quarantined spec
   leaves only its .failed marker behind, and a restarted daemon must
   not re-issue that id. *)
let test_scan_sequence_survives_failures () =
  with_temp_dir "rbb_seq" (fun dir ->
      Job.write_failed ~state_dir:dir ~id:"job-000004" ~round:0 ~detail:"poisoned";
      let pending, next = Job.scan ~state_dir:dir () in
      Alcotest.(check int) "no pending work" 0 (List.length pending);
      Alcotest.(check int) "sequence past the failure" 5 next;
      write_file (Job.result_path ~state_dir:dir ~id:"job-000007") "{}\n";
      let _, next = Job.scan ~state_dir:dir () in
      Alcotest.(check int) "sequence past the result" 8 next)

(* A corrupt spec whose failure-marker write fails must not vanish:
   the marker goes first and the spec moves to quarantine/ only once the
   marker is durable, so the restart's scan still sees the job and
   finishes the quarantine instead of re-issuing its id. *)
let test_scan_quarantine_marker_first () =
  with_temp_dir "rbb_scan_q" (fun dir ->
      let id = "job-000001" in
      let spec = Job.spec_path ~state_dir:dir ~id in
      write_file spec "garbage\n";
      let faults0 = Fileio.injected_faults () in
      let _, next =
        with_failpoints [ at "io.write" ] (fun () -> Job.scan ~state_dir:dir ())
      in
      Alcotest.(check bool) "marker write was faulted" true
        (Fileio.injected_faults () > faults0);
      Alcotest.(check bool) "spec kept while no marker is durable" true
        (Sys.file_exists spec);
      Alcotest.(check int) "id not re-issued" 2 next;
      let pending, next = Job.scan ~state_dir:dir () in
      Alcotest.(check int) "nothing pending" 0 (List.length pending);
      Alcotest.(check int) "id not re-issued after restart" 2 next;
      Alcotest.(check bool) "marker durable" true
        (Job.read_failed ~state_dir:dir ~id <> None);
      Alcotest.(check bool) "spec quarantined" true
        (Sys.file_exists
           (Filename.concat (Job.quarantine_dir ~state_dir:dir) (id ^ ".job"))))

(* ------------------------------------------------------------------ *)
(* Chaos: a miniature end-to-end campaign                              *)
(* ------------------------------------------------------------------ *)

let test_chaos_config_validation () =
  let dir = Filename.get_temp_dir_name () in
  let cfg = Chaos.default_config ~dir in
  Tutil.check_raises_invalid "cycles" (fun () ->
      Chaos.run { cfg with Chaos.cycles = 0 });
  Tutil.check_raises_invalid "jobs" (fun () ->
      Chaos.run { cfg with Chaos.jobs_per_cycle = 0 });
  Tutil.check_raises_invalid "max_cycles" (fun () ->
      Chaos.run { cfg with Chaos.cycles = 3; max_cycles = 2 })

(* The end-to-end mini campaign (real fork / SIGKILL) lives in its own
   executable, test/chaos_e2e.ml: OCaml 5 forbids fork once domains
   exist, and earlier suites in this runner have already spawned
   some. *)

let suite =
  [
    ( "chaos",
      [
        Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
        Alcotest.test_case "write_atomic never torn" `Quick
          test_write_atomic_never_torn;
        Alcotest.test_case "io.lock injection" `Quick test_io_lock_injection;
        Alcotest.test_case "lock pid-reuse regression" `Quick
          test_lock_pid_reuse_regression;
        Alcotest.test_case "supervisor jitter golden" `Quick
          test_supervisor_jitter_golden;
        Alcotest.test_case "checkpoint corruption fuzz" `Quick
          test_checkpoint_corruption_fuzz;
        Alcotest.test_case "legacy trailer warns" `Quick
          test_checkpoint_legacy_trailer_warns;
        Alcotest.test_case "quarantine byte-identity" `Quick
          test_job_quarantine_byte_identity;
        Alcotest.test_case "scan sequence survives failures" `Quick
          test_scan_sequence_survives_failures;
        Alcotest.test_case "quarantine writes marker first" `Quick
          test_scan_quarantine_marker_first;
        Alcotest.test_case "chaos config validation" `Quick
          test_chaos_config_validation;
      ] );
  ]

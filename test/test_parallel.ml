(* Tests for the domain-parallel replication runner and the bench
   harness smoke run. *)

(* ------------------------------------------------------------------ *)
(* Parallel                                                            *)
(* ------------------------------------------------------------------ *)

let parallel_matches_sequential () =
  let f rng = Rbb_prng.Rng.int_below rng 1_000_000 in
  let seq = Rbb_sim.Replicate.run ~base_seed:5L ~trials:40 f in
  let par = Rbb_sim.Parallel.run ~domains:4 ~base_seed:5L ~trials:40 f in
  Alcotest.(check (array int)) "identical results" seq par

let parallel_single_domain () =
  let f rng = Rbb_prng.Rng.float_unit rng in
  let a = Rbb_sim.Parallel.run ~domains:1 ~base_seed:6L ~trials:10 f in
  let b = Rbb_sim.Replicate.run ~base_seed:6L ~trials:10 f in
  Alcotest.(check (array (float 0.))) "one domain = sequential" b a

let parallel_domain_count_does_not_matter () =
  let f rng = Rbb_prng.Rng.int_below rng 997 in
  let one = Rbb_sim.Parallel.run ~domains:1 ~base_seed:7L ~trials:23 f in
  let many = Rbb_sim.Parallel.run ~domains:8 ~base_seed:7L ~trials:23 f in
  Alcotest.(check (array int)) "domain count irrelevant" one many

let parallel_edge_cases () =
  let f _ = 1 in
  Alcotest.(check (array int)) "zero trials" [||]
    (Rbb_sim.Parallel.run ~domains:4 ~base_seed:1L ~trials:0 f);
  Alcotest.(check (array int)) "more domains than trials" [| 1; 1 |]
    (Rbb_sim.Parallel.run ~domains:16 ~base_seed:1L ~trials:2 f);
  Tutil.check_raises_invalid "zero domains" (fun () ->
      ignore (Rbb_sim.Parallel.run ~domains:0 ~base_seed:1L ~trials:1 f));
  Alcotest.(check bool) "default domains >= 1" true
    (Rbb_sim.Parallel.default_domains () >= 1)

let parallel_propagates_exceptions () =
  match
    Rbb_sim.Parallel.run ~domains:2 ~base_seed:1L ~trials:8 (fun _ ->
        failwith "boom")
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg

(* Regression: a failing trial used to abandon the rest of its domain's
   chunk (stale None slots reported as "missing result") and the
   surviving exception was whichever domain lost the race.  Now every
   trial lands in its own slot and the smallest failing index wins,
   independently of the domain count. *)
let parallel_try_run_isolates_failures () =
  let f rng = Rbb_prng.Rng.int_below rng 1000 in
  let reference = Rbb_sim.Replicate.run ~base_seed:5L ~trials:12 f in
  List.iter
    (fun domains ->
      let results =
        Rbb_sim.Parallel.try_run ~domains ~base_seed:5L ~trials:12 (fun rng ->
            let v = f rng in
            if v = reference.(5) then failwith "trial 5" else v)
      in
      Array.iteri
        (fun i r ->
          match (r, i) with
          | Error (Failure msg), 5 -> Alcotest.(check string) "slot 5" "trial 5" msg
          | Error _, _ -> Alcotest.failf "unexpected failure in slot %d" i
          | Ok v, i ->
              (* Trials after the failure are still computed, and each
                 slot holds its own trial's value. *)
              Alcotest.(check int) (Printf.sprintf "slot %d" i) reference.(i) v)
        results)
    [ 1; 2; 4 ]

let parallel_first_exception_wins () =
  let boom i = Failure (Printf.sprintf "boom %d" i) in
  let f_of_index trials ~fail_at =
    (* try_run derives per-trial rngs from the seed lattice; recover the
       trial index by matching the derived seed. *)
    let seeds = Array.init trials (fun i ->
        Rbb_prng.Splitmix64.mix (Int64.add 9L (Int64.of_int (1 + i))))
    in
    fun rng ->
      let s = Rbb_prng.Rng.seed rng in
      let i = ref (-1) in
      Array.iteri (fun j sj -> if sj = s then i := j) seeds;
      if List.mem !i fail_at then raise (boom !i) else !i
  in
  List.iter
    (fun domains ->
      (* All non-failing slots are computed and correct. *)
      let results =
        Rbb_sim.Parallel.try_run ~domains ~base_seed:9L ~trials:16
          (f_of_index 16 ~fail_at:[ 5; 11 ])
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "slot value" i v
          | Error (Failure msg) ->
              Alcotest.(check bool) "failing slot" true (i = 5 || i = 11);
              Alcotest.(check string) "failure message"
                (Printf.sprintf "boom %d" i) msg
          | Error _ -> Alcotest.fail "unexpected exception")
        results;
      (* run re-raises the smallest failing index, not a racy winner. *)
      match
        Rbb_sim.Parallel.run ~domains ~base_seed:9L ~trials:16
          (f_of_index 16 ~fail_at:[ 11; 5 ])
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          Alcotest.(check string) "deterministic winner" "boom 5" msg)
    [ 1; 2; 3; 8 ]

let map_domains_basic () =
  List.iter
    (fun domains ->
      let r = Rbb_sim.Parallel.map_domains ~domains ~tasks:10 (fun i -> i * i) in
      Alcotest.(check (array int)) "squares"
        (Array.init 10 (fun i -> i * i))
        r)
    [ 1; 3; 16 ];
  Alcotest.(check (array int)) "zero tasks" [||]
    (Rbb_sim.Parallel.map_domains ~domains:4 ~tasks:0 (fun i -> i));
  Tutil.check_raises_invalid "zero domains" (fun () ->
      ignore (Rbb_sim.Parallel.map_domains ~domains:0 ~tasks:3 (fun i -> i)))

let parallel_runs_simulations () =
  (* End to end: the E2 measurement parallelized, same summary as the
     sequential harness. *)
  let measure run =
    let s =
      run (fun rng ->
          let p =
            Rbb_core.Process.create ~rng
              ~init:(Rbb_core.Config.all_in_one ~n:128 ~m:128 ())
              ()
          in
          match Rbb_core.Process.run_until_legitimate p ~max_rounds:5000 with
          | Some r -> float_of_int r
          | None -> Alcotest.fail "no convergence")
    in
    s.Rbb_stats.Summary.mean
  in
  let seq = measure (fun f -> Rbb_sim.Replicate.run_floats ~base_seed:11L ~trials:8 f) in
  let par =
    measure (fun f -> Rbb_sim.Parallel.run_floats ~domains:4 ~base_seed:11L ~trials:8 f)
  in
  Tutil.check_close "identical means" seq par

(* ------------------------------------------------------------------ *)
(* Parallel.rounds                                                     *)
(* ------------------------------------------------------------------ *)

(* Three logical workers; stages [a]; [b; c].  Every phase visit is
   logged as (round, worker, phase), and [fail] decides which visits
   raise. *)
let rounds_run ?(probe = { Rbb_core.Probe.noop with tracing = true })
    ?(fail = fun _ _ _ -> false) ~domains ~rounds () =
  let lock = Mutex.create () in
  let visits = ref [] and observed = ref [] in
  let log r = Mutex.protect lock (fun () -> visits := r :: !visits) in
  let phase name =
    {
      Rbb_sim.Parallel.name;
      workers = 3;
      run =
        (fun ~round w ->
          log (round, w, name);
          if fail round w name then
            failwith (Printf.sprintf "%s %d/%d" name round w));
    }
  in
  let failure =
    Rbb_sim.Parallel.rounds ~probe ~family:"test" ~domains ~round:0 ~rounds
      ~observe:(fun ~round -> observed := round :: !observed)
      [ [ phase "a" ]; [ phase "b"; phase "c" ] ]
  in
  (failure, List.rev !visits, List.rev !observed)

let failure_round_worker = function
  | Some (r, w, Failure _) -> Some (r, w)
  | Some (_, _, e) -> Alcotest.failf "unexpected %s" (Printexc.to_string e)
  | None -> None

let rounds_failure_stops_at_round () =
  let failure, visits, observed =
    rounds_run ~domains:2 ~rounds:10
      ~fail:(fun r w name -> r = 3 && w = 1 && name = "b")
      ()
  in
  Alcotest.(check (option (pair int int))) "smallest failure" (Some (3, 1))
    (failure_round_worker failure);
  for r = 0 to 2 do
    List.iter
      (fun name ->
        for w = 0 to 2 do
          Alcotest.(check int)
            (Printf.sprintf "round %d phase %s worker %d ran once" r name w)
            1
            (List.length (List.filter (( = ) (r, w, name)) visits))
        done)
      [ "a"; "b"; "c" ]
  done;
  Alcotest.(check bool) "nothing from rounds >= 4 ran" true
    (List.for_all (fun (r, _, _) -> r <= 3) visits);
  Alcotest.(check (list int)) "completed rounds observed once" [ 1; 2; 3 ]
    observed

let rounds_smallest_worker_wins () =
  (* Worker 2 raises in phase b, worker 1 only in the stage's later
     phase c: the rest of a failing stage still runs, so worker 1 wins
     on every schedule. *)
  List.iter
    (fun domains ->
      for _ = 1 to 20 do
        let failure, _, _ =
          rounds_run ~domains ~rounds:6
            ~fail:(fun r w name ->
              r = 2 && ((w = 2 && name = "b") || (w = 1 && name = "c")))
            ()
        in
        Alcotest.(check (option (pair int int)))
          (Printf.sprintf "smallest worker on %d domains" domains)
          (Some (2, 1)) (failure_round_worker failure)
      done)
    [ 1; 2; 3 ]

let rounds_single_domain_order () =
  let failure, visits, observed = rounds_run ~domains:1 ~rounds:2 () in
  Alcotest.(check bool) "no failure" true (failure = None);
  let round r =
    List.concat_map
      (fun name -> List.init 3 (fun w -> (r, w, name)))
      [ "a"; "b"; "c" ]
  in
  Alcotest.(check bool) "phases visit workers 0, 1, 2 in order" true
    (visits = round 0 @ round 1);
  Alcotest.(check (list int)) "observed" [ 1; 2 ] observed

let fake_clock () =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t 1000L;
    !t

let rounds_instrumentation () =
  List.iter
    (fun domains ->
      let tel = Rbb_sim.Telemetry.create ~clock:(fake_clock ()) () in
      let probe = Rbb_sim.Telemetry.probe tel in
      let failure, _, _ =
        rounds_run ~probe ~domains ~rounds:8
          ~fail:(fun r w name -> r = 5 && w = 0 && name = "a")
          ()
      in
      Alcotest.(check (option (pair int int))) "failure" (Some (5, 0))
        (failure_round_worker failure);
      let calls name = fst (Rbb_sim.Telemetry.timer tel name) in
      Alcotest.(check int)
        (Printf.sprintf "barrier_wait calls on %d domains" domains)
        (if domains > 1 then domains else 0)
        (calls "test.barrier_wait");
      Alcotest.(check int) "phase timer flushed once per domain" domains
        (calls "b");
      Alcotest.(check int) "latency sample per completed round" 5
        (Rbb_sim.Telemetry.latency_count tel))
    [ 1; 2 ];
  let tel = Rbb_sim.Telemetry.create ~clock:(fake_clock ()) () in
  let failure, visits, _ =
    rounds_run ~probe:(Rbb_sim.Telemetry.probe tel) ~domains:2 ~rounds:0 ()
  in
  Alcotest.(check bool) "zero rounds: nothing runs" true
    (failure = None && visits = []);
  Alcotest.(check int) "zero rounds: no timers" 0
    (List.length (Rbb_sim.Telemetry.timers tel))

let suite =
  [
    ( "sim.parallel",
      [
        Tutil.quick "matches sequential" parallel_matches_sequential;
        Tutil.quick "single domain" parallel_single_domain;
        Tutil.quick "domain count irrelevant" parallel_domain_count_does_not_matter;
        Tutil.quick "edge cases" parallel_edge_cases;
        Tutil.quick "exception propagation" parallel_propagates_exceptions;
        Tutil.quick "try_run isolates failures" parallel_try_run_isolates_failures;
        Tutil.quick "first exception wins" parallel_first_exception_wins;
        Tutil.quick "map_domains" map_domains_basic;
        Tutil.quick "rounds: failure stops at its round"
          rounds_failure_stops_at_round;
        Tutil.quick "rounds: smallest worker wins" rounds_smallest_worker_wins;
        Tutil.quick "rounds: one domain plays workers in order"
          rounds_single_domain_order;
        Tutil.quick "rounds: instrumentation" rounds_instrumentation;
        Tutil.slow "parallel simulation" parallel_runs_simulations;
      ] );
  ]

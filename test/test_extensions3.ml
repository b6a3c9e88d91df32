(* Tests for the async scheduler, rotor-router, spectral estimates,
   exact hitting times and arrival observation. *)

open Rbb_core

(* ------------------------------------------------------------------ *)
(* Process.last_arrivals                                               *)
(* ------------------------------------------------------------------ *)

let arrivals_before_first_step () =
  let rng = Tutil.rng () in
  let p = Process.create ~rng ~init:(Config.uniform ~n:8) () in
  for u = 0 to 7 do
    Alcotest.(check int) "zero before step" 0 (Process.last_arrivals p u)
  done

let arrivals_sum_equals_throwers () =
  let rng = Tutil.rng () in
  let p = Process.create ~rng ~init:(Config.random rng ~n:32 ~m:32) () in
  for _ = 1 to 100 do
    let throwers = 32 - Process.empty_bins p in
    Process.step p;
    let total = ref 0 in
    for u = 0 to 31 do
      total := !total + Process.last_arrivals p u
    done;
    Alcotest.(check int) "arrivals = non-empty bins before the round" throwers !total
  done

let arrivals_appendix_b_via_simulator () =
  (* The Appendix B joint probability measured through the public
     last_arrivals API. *)
  let rng = Tutil.rng () in
  let trials = 100_000 in
  let joint = ref 0 in
  for _ = 1 to trials do
    let p = Process.create ~rng ~init:(Config.uniform ~n:2) () in
    Process.step p;
    let a1 = Process.last_arrivals p 0 in
    Process.step p;
    let a2 = Process.last_arrivals p 0 in
    if a1 = 0 && a2 = 0 then incr joint
  done;
  Tutil.check_rel ~tol:0.05 "joint ~ 1/8" 0.125
    (float_of_int !joint /. float_of_int trials)

(* ------------------------------------------------------------------ *)
(* Async_process                                                       *)
(* ------------------------------------------------------------------ *)

let async_conserves_balls () =
  let rng = Tutil.rng () in
  let p = Async_process.create ~rng ~init:(Config.random rng ~n:32 ~m:32) () in
  for _ = 1 to 50 do
    Async_process.step_round p;
    let total = Array.fold_left ( + ) 0 (Config.unsafe_loads (Async_process.config p)) in
    Alcotest.(check int) "conserved" 32 total
  done;
  Alcotest.(check int) "ticks" (50 * 32) (Async_process.ticks p);
  Alcotest.(check int) "rounds" 50 (Async_process.rounds p)

let async_counters_match_recompute () =
  let rng = Tutil.rng () in
  let p = Async_process.create ~rng ~init:(Config.all_in_one ~n:16 ~m:16 ()) () in
  for _ = 1 to 2000 do
    Async_process.tick p;
    let c = Async_process.config p in
    Alcotest.(check int) "max" (Config.max_load c) (Async_process.max_load p);
    Alcotest.(check int) "empty" (Config.empty_bins c) (Async_process.empty_bins p)
  done

let async_converges_from_pile () =
  let rng = Tutil.rng () in
  let n = 256 in
  let p = Async_process.create ~rng ~init:(Config.all_in_one ~n ~m:n ()) () in
  match Async_process.run_until_legitimate p ~max_rounds:(50 * n) with
  | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "converged in %d rounds" r)
        true (r <= 10 * n)
  | None -> Alcotest.fail "async process did not converge"

let async_stays_bounded () =
  let rng = Tutil.rng () in
  let n = 256 in
  let p = Async_process.create ~rng ~init:(Config.uniform ~n) () in
  let worst = ref 0 in
  for _ = 1 to 8 * n do
    Async_process.step_round p;
    if Async_process.max_load p > !worst then worst := Async_process.max_load p
  done;
  Alcotest.(check bool)
    (Printf.sprintf "running max %d logarithmic" !worst)
    true
    (!worst <= Config.legitimacy_threshold ~beta:8.0 n)

(* ------------------------------------------------------------------ *)
(* Rotor_router                                                        *)
(* ------------------------------------------------------------------ *)

let rotor_deterministic () =
  let run () =
    let r = Rotor_router.create ~init:(Config.uniform ~n:32) () in
    Rotor_router.run r ~rounds:200;
    Config.loads (Rotor_router.config r)
  in
  Alcotest.(check (array int)) "two runs identical" (run ()) (run ())

let rotor_conserves_balls () =
  let r = Rotor_router.create ~init:(Config.random (Tutil.rng ()) ~n:24 ~m:24) () in
  for _ = 1 to 200 do
    Rotor_router.step r;
    let total = Array.fold_left ( + ) 0 (Config.unsafe_loads (Rotor_router.config r)) in
    Alcotest.(check int) "conserved" 24 total
  done

let rotor_positions_consistent () =
  let r = Rotor_router.create ~init:(Config.uniform ~n:16) () in
  Rotor_router.run r ~rounds:50;
  let loads = Array.make 16 0 in
  for b = 0 to 15 do
    let p = Rotor_router.position r b in
    loads.(p) <- loads.(p) + 1
  done;
  for u = 0 to 15 do
    Alcotest.(check int) "positions = loads" loads.(u) (Rotor_router.load r u)
  done

let rotor_single_token_covers_cycle () =
  (* A lone rotor walker oscillates before settling into a sweep; the
     classical bound is cover within O(mD) = O(n^2) on the cycle. *)
  let n = 16 in
  let init = Config.all_in_one ~n ~m:1 () in
  let r =
    Rotor_router.create ~graph:(Rbb_graph.Build.cycle n) ~track_cover:true ~init ()
  in
  match Rotor_router.run_until_covered r ~max_rounds:(4 * n * n) with
  | Some t -> Alcotest.(check bool) "covers within O(mD)" true (t <= 2 * n * n)
  | None -> Alcotest.fail "rotor walker did not cover the cycle within 4n^2"

let rotor_multi_token_covers_clique () =
  let n = 32 in
  let r = Rotor_router.create ~track_cover:true ~init:(Config.uniform ~n) () in
  match Rotor_router.run_until_covered r ~max_rounds:1_000_000 with
  | Some t ->
      Alcotest.(check bool) "positive" true (t > 0);
      Alcotest.(check bool) "all covered" true (Rotor_router.all_covered r)
  | None -> Alcotest.fail "rotor tokens did not cover the clique"

let rotor_cover_requires_flag () =
  let r = Rotor_router.create ~init:(Config.uniform ~n:4) () in
  Tutil.check_raises_invalid "cover disabled" (fun () ->
      ignore (Rotor_router.cover_time r))

let rotor_max_load_stays_small_on_clique () =
  let n = 64 in
  let r = Rotor_router.create ~init:(Config.uniform ~n) () in
  let worst = ref 0 in
  for _ = 1 to 16 * n do
    Rotor_router.step r;
    if Rotor_router.max_load r > !worst then worst := Rotor_router.max_load r
  done;
  Alcotest.(check bool)
    (Printf.sprintf "rotor congestion %d bounded" !worst)
    true
    (!worst <= Config.legitimacy_threshold ~beta:8.0 n)

(* ------------------------------------------------------------------ *)
(* Spectral                                                            *)
(* ------------------------------------------------------------------ *)

let spectral_complete_graph () =
  (* K_n lazy walk: lambda2 = (1 - 1/(n-1))/2. *)
  let n = 10 in
  let l2 = Rbb_graph.Spectral.lambda2_lazy_walk (Rbb_graph.Csr.complete n) in
  Tutil.check_close ~tol:1e-6 "K_10" ((1. -. (1. /. 9.)) /. 2.) l2

let spectral_cycle () =
  (* C_n lazy walk: lambda2 = (1 + cos(2 pi / n))/2. *)
  let n = 8 in
  let l2 = Rbb_graph.Spectral.lambda2_lazy_walk (Rbb_graph.Build.cycle n) in
  Tutil.check_close ~tol:1e-6 "C_8"
    ((1. +. Float.cos (2. *. Float.pi /. 8.)) /. 2.)
    l2

let spectral_hypercube () =
  (* Q_d lazy walk: lambda2 = 1 - 1/d. *)
  let l2 = Rbb_graph.Spectral.lambda2_lazy_walk (Rbb_graph.Build.hypercube 4) in
  Tutil.check_close ~tol:1e-6 "Q_4" 0.75 l2

let spectral_complete_bipartite () =
  (* K_{a,a} walk spectrum {1, 0, -1}; lazy second largest = 0.5. *)
  let l2 =
    Rbb_graph.Spectral.lambda2_lazy_walk (Rbb_graph.Build.complete_bipartite 4 4)
  in
  Tutil.check_close ~tol:1e-6 "K_{4,4}" 0.5 l2

let spectral_gap_orderings () =
  (* Better expanders have larger gaps: clique > hypercube > cycle. *)
  let gap g = Rbb_graph.Spectral.spectral_gap g in
  let clique = gap (Rbb_graph.Csr.complete 64) in
  let cube = gap (Rbb_graph.Build.hypercube 6) in
  let cycle = gap (Rbb_graph.Build.cycle 64) in
  Alcotest.(check bool) "clique > hypercube" true (clique > cube);
  Alcotest.(check bool) "hypercube > cycle" true (cube > cycle);
  Alcotest.(check bool) "relaxation inverse"
    true
    (Rbb_graph.Spectral.relaxation_time (Rbb_graph.Build.cycle 64)
     > Rbb_graph.Spectral.relaxation_time (Rbb_graph.Build.hypercube 6))

let spectral_errors () =
  Tutil.check_raises_invalid "isolated vertex" (fun () ->
      ignore
        (Rbb_graph.Spectral.lambda2_lazy_walk
           (Rbb_graph.Csr.of_edges ~n:3 [ (0, 1) ])))

(* ------------------------------------------------------------------ *)
(* Hitting                                                             *)
(* ------------------------------------------------------------------ *)

let hitting_exact_n2 () =
  (* n = m = 2, target max load <= 1 (the state (1,1)).  From (2,0) the
     pile top moves to a uniform bin each round: reach (1,1) with
     probability 1/2 per round, so E = 2 exactly. *)
  let chain = Rbb_markov.Chain.create ~n:2 ~m:2 in
  Tutil.check_close ~tol:1e-8 "E[T] from (2,0)" 2.
    (Rbb_markov.Hitting.expected_rounds_to_max_load chain ~threshold:1
       ~from:[| 2; 0 |]);
  Tutil.check_close ~tol:1e-8 "already there" 0.
    (Rbb_markov.Hitting.expected_rounds_to_max_load chain ~threshold:1
       ~from:[| 1; 1 |])

let hitting_matches_simulation () =
  (* Exact expected hitting time vs simulated mean at n = m = 4. *)
  let n = 4 in
  let chain = Rbb_markov.Chain.create ~n ~m:n in
  let threshold = 2 in
  let exact =
    Rbb_markov.Hitting.expected_rounds_to_max_load chain ~threshold
      ~from:[| n; 0; 0; 0 |]
  in
  let rng = Tutil.rng () in
  let w = Rbb_stats.Welford.create () in
  for _ = 1 to 20_000 do
    let p = Process.create ~rng ~init:(Config.all_in_one ~n ~m:n ()) () in
    match Process.run_until p ~max_rounds:10_000 ~stop:(fun p -> Process.max_load p <= threshold) with
    | Some r -> Rbb_stats.Welford.add w (float_of_int r)
    | None -> Alcotest.fail "simulation never hit the target"
  done;
  Tutil.check_rel ~tol:0.03 "simulated mean matches exact" exact
    (Rbb_stats.Welford.mean w)

let hitting_monotone_in_threshold () =
  let chain = Rbb_markov.Chain.create ~n:3 ~m:6 in
  let from = [| 6; 0; 0 |] in
  let t3 = Rbb_markov.Hitting.expected_rounds_to_max_load chain ~threshold:3 ~from in
  let t4 = Rbb_markov.Hitting.expected_rounds_to_max_load chain ~threshold:4 ~from in
  Alcotest.(check bool) "easier target is hit sooner" true (t4 <= t3);
  Alcotest.(check bool) "positive" true (t4 > 0.)

let hitting_errors () =
  let chain = Rbb_markov.Chain.create ~n:2 ~m:2 in
  Tutil.check_raises_invalid "empty target" (fun () ->
      ignore
        (Rbb_markov.Hitting.expected_hitting_times chain ~target:(fun _ -> false)))

(* ------------------------------------------------------------------ *)
(* Rumor                                                               *)
(* ------------------------------------------------------------------ *)

let rumor_monotone_and_completes () =
  let rng = Tutil.rng () in
  let r = Rumor.create ~rng ~n:128 ~source:0 () in
  Alcotest.(check int) "one informed at start" 1 (Rumor.informed r);
  Alcotest.(check bool) "source informed" true (Rumor.is_informed r 0);
  let prev = ref 1 in
  for _ = 1 to 30 do
    Rumor.step r;
    let c = Rumor.informed r in
    Alcotest.(check bool) "monotone" true (c >= !prev);
    prev := c
  done;
  match Rumor.run_until_informed r ~max_rounds:10_000 with
  | Some _ -> Alcotest.(check bool) "all informed" true (Rumor.all_informed r)
  | None -> Alcotest.fail "rumor never spread"

let rumor_push_time_near_classic_law () =
  let n = 1024 in
  let s =
    Rbb_sim.Replicate.run_floats ~base_seed:77L ~trials:20 (fun rng ->
        let r = Rumor.create ~rng ~n ~source:0 () in
        match Rumor.run_until_informed r ~max_rounds:10_000 with
        | Some t -> float_of_int t
        | None -> Alcotest.fail "no spread")
  in
  (* Mean within ~25% of log2 n + ln n. *)
  Tutil.check_rel ~tol:0.25 "push law" (Rumor.push_time_estimate n)
    s.Rbb_stats.Summary.mean

let rumor_push_pull_faster_than_push () =
  let n = 512 in
  let time mode seed =
    let s =
      Rbb_sim.Replicate.run_floats ~base_seed:seed ~trials:10 (fun rng ->
          let r = Rumor.create ~mode ~rng ~n ~source:0 () in
          match Rumor.run_until_informed r ~max_rounds:10_000 with
          | Some t -> float_of_int t
          | None -> Alcotest.fail "no spread")
    in
    s.Rbb_stats.Summary.mean
  in
  Alcotest.(check bool) "push-pull beats push" true
    (time Rumor.Push_pull 78L < time Rumor.Push 79L)

let rumor_pull_from_single_source_is_slow_start () =
  (* With pull, progress in the first round depends on someone calling
     the unique informed node: P = 1 - (1-1/(n-1))^(n-1) ~ 1 - 1/e. *)
  let rng = Tutil.rng () in
  let hits = ref 0 in
  let trials = 2000 in
  for _ = 1 to trials do
    let r = Rumor.create ~mode:Rumor.Pull ~rng ~n:64 ~source:0 () in
    Rumor.step r;
    if Rumor.informed r > 1 then incr hits
  done;
  Tutil.check_rel ~tol:0.1 "first-round pull probability"
    (1. -. Float.exp (-1.))
    (float_of_int !hits /. float_of_int trials)

let rumor_on_graph_respects_topology () =
  let rng = Tutil.rng () in
  let path = Rbb_graph.Build.path 8 in
  let r = Rumor.create ~graph:path ~rng ~n:8 ~source:0 () in
  (* On a path the rumor needs at least distance rounds to reach the
     far end. *)
  for _ = 1 to 3 do
    Rumor.step r
  done;
  Alcotest.(check bool) "cannot outrun the graph distance" false
    (Rumor.is_informed r 7);
  match Rumor.run_until_informed r ~max_rounds:100_000 with
  | Some t -> Alcotest.(check bool) "eventually spreads" true (t >= 7)
  | None -> Alcotest.fail "no spread on path"

let rumor_errors () =
  let rng = Tutil.rng () in
  Tutil.check_raises_invalid "bad source" (fun () ->
      ignore (Rumor.create ~rng ~n:4 ~source:4 ()));
  Tutil.check_raises_invalid "size mismatch" (fun () ->
      ignore (Rumor.create ~graph:(Rbb_graph.Build.cycle 5) ~rng ~n:4 ~source:0 ()));
  Tutil.check_raises_invalid "estimate n<2" (fun () ->
      ignore (Rumor.push_time_estimate 1))

let suite =
  [
    ( "core.arrivals",
      [
        Tutil.quick "zero before step" arrivals_before_first_step;
        Tutil.quick "sum = throwers" arrivals_sum_equals_throwers;
        Tutil.slow "Appendix B via API" arrivals_appendix_b_via_simulator;
      ] );
    ( "core.async_process",
      [
        Tutil.quick "conserves balls" async_conserves_balls;
        Tutil.quick "incremental counters" async_counters_match_recompute;
        Tutil.slow "converges from pile" async_converges_from_pile;
        Tutil.slow "stays bounded" async_stays_bounded;
      ] );
    ( "core.rotor_router",
      [
        Tutil.quick "deterministic" rotor_deterministic;
        Tutil.quick "conserves balls" rotor_conserves_balls;
        Tutil.quick "positions consistent" rotor_positions_consistent;
        Tutil.quick "single token covers cycle" rotor_single_token_covers_cycle;
        Tutil.slow "multi-token covers clique" rotor_multi_token_covers_clique;
        Tutil.quick "cover flag required" rotor_cover_requires_flag;
        Tutil.slow "congestion bounded" rotor_max_load_stays_small_on_clique;
      ] );
    ( "graph.spectral",
      [
        Tutil.quick "complete graph" spectral_complete_graph;
        Tutil.quick "cycle" spectral_cycle;
        Tutil.quick "hypercube" spectral_hypercube;
        Tutil.quick "complete bipartite" spectral_complete_bipartite;
        Tutil.quick "gap ordering" spectral_gap_orderings;
        Tutil.quick "errors" spectral_errors;
      ] );
    ( "markov.hitting",
      [
        Tutil.quick "exact n=2" hitting_exact_n2;
        Tutil.slow "matches simulation" hitting_matches_simulation;
        Tutil.quick "monotone in threshold" hitting_monotone_in_threshold;
        Tutil.quick "errors" hitting_errors;
      ] );
    ( "core.rumor",
      [
        Tutil.quick "monotone, completes" rumor_monotone_and_completes;
        Tutil.slow "push law" rumor_push_time_near_classic_law;
        Tutil.slow "push-pull faster" rumor_push_pull_faster_than_push;
        Tutil.slow "pull slow start" rumor_pull_from_single_source_is_slow_start;
        Tutil.quick "respects topology" rumor_on_graph_respects_topology;
        Tutil.quick "errors" rumor_errors;
      ] );
  ]

(* Tests for the extension modules: autocorrelation stats, trace
   recording, potential functions, exact mixing analysis, M/M/1
   references, the open network, and the extra graph families. *)

open Rbb_core

(* ------------------------------------------------------------------ *)
(* Autocorr                                                            *)
(* ------------------------------------------------------------------ *)

let autocorr_lag0_is_one () =
  Tutil.check_close "lag 0" 1. (Rbb_stats.Autocorr.autocorrelation [| 1.; 5.; 2.; 4. |] 0)

let autocorr_constant_series () =
  Tutil.check_close "constant" 0. (Rbb_stats.Autocorr.autocorrelation [| 3.; 3.; 3.; 3. |] 1)

let autocorr_alternating_series () =
  (* +1,-1,+1,-1...: lag-1 autocorrelation -> -1 (biased estimator gives
     close to -1 for long series). *)
  let xs = Array.init 1000 (fun i -> if i mod 2 = 0 then 1. else -1.) in
  let r1 = Rbb_stats.Autocorr.autocorrelation xs 1 in
  Alcotest.(check bool) (Printf.sprintf "lag1 = %.3f near -1" r1) true (r1 < -0.99)

let autocorr_iid_near_zero () =
  let g = Tutil.rng () in
  let xs = Array.init 20_000 (fun _ -> Rbb_prng.Rng.float_unit g) in
  let r1 = Rbb_stats.Autocorr.autocorrelation xs 1 in
  Alcotest.(check bool) (Printf.sprintf "lag1 = %.4f small" r1) true (Float.abs r1 < 0.03)

let autocorr_acf_shape () =
  let g = Tutil.rng () in
  (* AR(1) with phi = 0.9: rho(k) ~ 0.9^k. *)
  let n = 100_000 in
  let xs = Array.make n 0. in
  for i = 1 to n - 1 do
    xs.(i) <- (0.9 *. xs.(i - 1)) +. Rbb_prng.Sampler.gaussian g ~mu:0. ~sigma:1.
  done;
  let acf = Rbb_stats.Autocorr.autocorrelation_function xs ~max_lag:3 in
  Tutil.check_close "acf.(0)" 1. acf.(0);
  Tutil.check_rel ~tol:0.05 "acf.(1) ~ 0.9" 0.9 acf.(1);
  Tutil.check_rel ~tol:0.08 "acf.(2) ~ 0.81" 0.81 acf.(2)

let autocorr_integrated_time_ar1 () =
  let g = Tutil.rng ~seed:5L () in
  let n = 200_000 in
  let xs = Array.make n 0. in
  for i = 1 to n - 1 do
    xs.(i) <- (0.8 *. xs.(i - 1)) +. Rbb_prng.Sampler.gaussian g ~mu:0. ~sigma:1.
  done;
  (* AR(1): tau = (1 + phi)/(1 - phi) = 9. *)
  let tau = Rbb_stats.Autocorr.integrated_time ~max_lag:200 xs in
  Tutil.check_rel ~tol:0.15 "tau ~ 9" 9. tau;
  let ess = Rbb_stats.Autocorr.effective_sample_size ~max_lag:200 xs in
  Tutil.check_rel ~tol:0.15 "ess = n/tau" (float_of_int n /. tau) ess

let autocorr_iid_tau_one () =
  let g = Tutil.rng () in
  let xs = Array.init 50_000 (fun _ -> Rbb_prng.Rng.float_unit g) in
  let tau = Rbb_stats.Autocorr.integrated_time xs in
  Alcotest.(check bool) (Printf.sprintf "tau = %.3f near 1" tau) true
    (tau >= 1. && tau < 1.2)

let autocorr_errors () =
  Tutil.check_raises_invalid "empty" (fun () ->
      ignore (Rbb_stats.Autocorr.autocorrelation [||] 0));
  Tutil.check_raises_invalid "bad lag" (fun () ->
      ignore (Rbb_stats.Autocorr.autocorrelation [| 1.; 2. |] 2))

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_records_all_below_capacity () =
  let t = Trace.create ~capacity:100 () in
  for r = 1 to 50 do
    Trace.record t ~round:r ~max_load:r ~empty_bins:0
  done;
  Alcotest.(check int) "length" 50 (Trace.length t);
  Alcotest.(check int) "stride" 1 (Trace.stride t);
  let s = Trace.samples t in
  Alcotest.(check int) "first round" 1 s.(0).Trace.round;
  Alcotest.(check int) "last round" 50 s.(49).Trace.round

let trace_downsamples () =
  let t = Trace.create ~capacity:16 () in
  for r = 1 to 1000 do
    Trace.record t ~round:r ~max_load:r ~empty_bins:0
  done;
  Alcotest.(check bool) "bounded" true (Trace.length t <= 16);
  Alcotest.(check bool) "stride grew" true (Trace.stride t > 1);
  let s = Trace.samples t in
  (* Chronological and strictly increasing rounds. *)
  for i = 0 to Array.length s - 2 do
    Alcotest.(check bool) "increasing rounds" true (s.(i).Trace.round < s.(i + 1).Trace.round)
  done;
  (* Coverage: retained samples span most of the run. *)
  Alcotest.(check bool) "spans the run" true (s.(Array.length s - 1).Trace.round > 900)

let trace_even_spacing () =
  (* Regression: compaction must keep the retained rounds spaced exactly
     [stride] apart for both parities of the kept length.  Pre-fix, the
     keep rule dropped the newest sample and re-based the countdown on
     the doubled stride, so odd capacities drifted off-lattice. *)
  List.iter
    (fun capacity ->
      let t = Trace.create ~capacity () in
      for r = 1 to 10_000 do
        Trace.record t ~round:r ~max_load:r ~empty_bins:0
      done;
      let stride = Trace.stride t in
      Alcotest.(check bool)
        (Printf.sprintf "cap %d: stride grew" capacity)
        true (stride > 1);
      let s = Trace.samples t in
      for i = 0 to Array.length s - 2 do
        Alcotest.(check int)
          (Printf.sprintf "cap %d: spacing at %d" capacity i)
          stride
          (s.(i + 1).Trace.round - s.(i).Trace.round)
      done;
      (* The newest retained sample is within one stride of the end. *)
      Alcotest.(check bool)
        (Printf.sprintf "cap %d: newest kept" capacity)
        true
        (s.(Array.length s - 1).Trace.round > 10_000 - stride))
    [ 16; 17 ]

let trace_rows_and_series () =
  let t = Trace.create () in
  Trace.record ~extra:1.5 t ~round:1 ~max_load:3 ~empty_bins:2;
  Trace.record t ~round:2 ~max_load:4 ~empty_bins:1;
  let rows = Trace.to_rows t in
  Alcotest.(check int) "rows" 2 (List.length rows);
  Alcotest.(check (list string)) "first row" [ "1"; "3"; "2"; "1.5" ] (List.hd rows);
  Alcotest.(check (array (float 1e-9))) "series" [| 3.; 4. |] (Trace.max_load_series t)

let trace_record_process () =
  let rng = Tutil.rng () in
  let p = Process.create ~rng ~init:(Config.uniform ~n:16) () in
  let t = Trace.create () in
  for _ = 1 to 10 do
    Process.step p;
    Trace.record_process t p
  done;
  Alcotest.(check int) "recorded rounds" 10 (Trace.length t);
  let s = Trace.samples t in
  Alcotest.(check int) "last round" 10 s.(9).Trace.round

(* ------------------------------------------------------------------ *)
(* Potential                                                           *)
(* ------------------------------------------------------------------ *)

let potential_quadratic_values () =
  Tutil.check_close "uniform" 4. (Potential.quadratic (Config.uniform ~n:4));
  Tutil.check_close "pile" 16. (Potential.quadratic (Config.all_in_one ~n:4 ~m:4 ()))

let potential_exponential_values () =
  let q = Config.of_array [| 2; 0 |] in
  Tutil.check_close ~tol:1e-9 "sum of exps"
    (Float.exp 2. +. 1.)
    (Potential.exponential ~alpha:1. q);
  Tutil.check_raises_invalid "bad alpha" (fun () ->
      ignore (Potential.exponential ~alpha:0. q))

let potential_log_exponential_stable () =
  (* A pile of 10^4 balls overflows e^q but not the log-sum-exp. *)
  let q = Config.all_in_one ~n:4 ~m:10_000 () in
  let lp = Potential.log_exponential ~alpha:1. q in
  Alcotest.(check bool) "finite" true (Float.is_finite lp);
  (* log(e^10000 + 3) ~ 10000. *)
  Tutil.check_rel ~tol:1e-6 "dominated by the pile" 10_000. lp;
  (* And it agrees with the direct potential where both are finite. *)
  let small = Config.of_array [| 3; 1; 0 |] in
  Tutil.check_close ~tol:1e-9 "agrees when finite"
    (Float.log (Potential.exponential ~alpha:0.5 small))
    (Potential.log_exponential ~alpha:0.5 small)

let potential_max_load_certificate () =
  let q = Config.of_array [| 7; 2; 0 |] in
  let lp = Potential.log_exponential ~alpha:1.3 q in
  let bound = Potential.max_load_bound_from_potential ~alpha:1.3 ~log_phi:lp in
  Alcotest.(check bool) "bound covers the max load" true
    (bound >= float_of_int (Config.max_load q))

let potential_drift_sign () =
  (* From the pile, one RBB round can only spread mass: the quadratic
     potential must not increase. *)
  let rng = Tutil.rng () in
  let p = Process.create ~rng ~init:(Config.all_in_one ~n:64 ~m:64 ()) () in
  let before = Process.config p in
  Process.step p;
  let after = Process.config p in
  let d = Potential.drift Potential.quadratic ~before ~after in
  Alcotest.(check bool) "non-increasing from the pile" true (d <= 0.)

(* ------------------------------------------------------------------ *)
(* Mixing                                                              *)
(* ------------------------------------------------------------------ *)

let mixing_tv_curve_monotone_trend () =
  let chain = Rbb_markov.Chain.create ~n:3 ~m:3 in
  let pi = Rbb_markov.Chain.stationary chain in
  let curve = Rbb_markov.Mixing.tv_curve chain ~init:[| 3; 0; 0 |] ~rounds:30 ~pi in
  Alcotest.(check int) "length" 31 (Array.length curve);
  Alcotest.(check bool) "starts far" true (curve.(0) > 0.3);
  Alcotest.(check bool) "ends mixed" true (curve.(30) < 1e-6)

let mixing_time_thresholds () =
  let chain = Rbb_markov.Chain.create ~n:3 ~m:3 in
  let pi = Rbb_markov.Chain.stationary chain in
  (match Rbb_markov.Mixing.mixing_time chain ~init:[| 3; 0; 0 |] ~pi with
  | Some t -> Alcotest.(check bool) "small chain mixes fast" true (t <= 20)
  | None -> Alcotest.fail "did not mix");
  (* epsilon = 1 is satisfied immediately. *)
  Alcotest.(check (option int)) "trivial epsilon" (Some 0)
    (Rbb_markov.Mixing.mixing_time ~epsilon:1.01 chain ~init:[| 3; 0; 0 |] ~pi)

let mixing_worst_init () =
  let chain = Rbb_markov.Chain.create ~n:2 ~m:3 in
  let pi = Rbb_markov.Chain.stationary chain in
  let t, arg = Rbb_markov.Mixing.worst_init_mixing_time chain ~pi in
  Alcotest.(check bool) "positive" true (t >= 0);
  Alcotest.(check int) "arg is a state" 3 (Array.fold_left ( + ) 0 arg);
  (* The worst start cannot mix faster than the pile. *)
  match Rbb_markov.Mixing.mixing_time chain ~init:[| 3; 0 |] ~pi with
  | Some pile_t -> Alcotest.(check bool) "worst >= pile" true (t >= pile_t)
  | None -> Alcotest.fail "pile did not mix"

let mixing_expected_max_load_curve () =
  let chain = Rbb_markov.Chain.create ~n:3 ~m:3 in
  let curve =
    Rbb_markov.Mixing.expected_max_load_curve chain ~init:[| 3; 0; 0 |] ~rounds:20
  in
  Tutil.check_close "starts at the pile" 3. curve.(0);
  Alcotest.(check bool) "decreases toward stationarity" true (curve.(20) < 2.2);
  (* Stationary value from the chain directly. *)
  let pi = Rbb_markov.Chain.stationary chain in
  Tutil.check_rel ~tol:0.02 "limit = stationary expectation"
    (Rbb_markov.Chain.expected_max_load chain pi)
    curve.(20)

(* ------------------------------------------------------------------ *)
(* Mm1                                                                 *)
(* ------------------------------------------------------------------ *)

let mm1_closed_forms () =
  Tutil.check_close "rho" 0.5 (Rbb_queueing.Mm1.utilization ~lambda:0.5 ~mu:1.);
  Tutil.check_close "mean queue" 1. (Rbb_queueing.Mm1.mean_queue_length ~lambda:0.5 ~mu:1.);
  Tutil.check_close "sojourn" 2. (Rbb_queueing.Mm1.mean_sojourn_time ~lambda:0.5 ~mu:1.);
  Tutil.check_close "P(Q=0)" 0.5 (Rbb_queueing.Mm1.queue_length_pmf ~lambda:0.5 ~mu:1. 0);
  Tutil.check_close "P(Q=2)" 0.125 (Rbb_queueing.Mm1.queue_length_pmf ~lambda:0.5 ~mu:1. 2);
  Tutil.check_raises_invalid "unstable" (fun () ->
      ignore (Rbb_queueing.Mm1.utilization ~lambda:2. ~mu:1.))

let mm1_pmf_sums_to_one () =
  let acc = ref 0. in
  for k = 0 to 200 do
    acc := !acc +. Rbb_queueing.Mm1.queue_length_pmf ~lambda:0.7 ~mu:1. k
  done;
  Tutil.check_close ~tol:1e-9 "normalized" 1. !acc

let mm1_pmf_mean_matches_closed_form () =
  (* The geometric queue-length law has mean rho / (1 - rho). *)
  List.iter
    (fun lambda ->
      let acc = ref 0. in
      for k = 1 to 2000 do
        acc :=
          !acc +. (float_of_int k *. Rbb_queueing.Mm1.queue_length_pmf ~lambda ~mu:1. k)
      done;
      Tutil.check_close ~tol:1e-9
        (Printf.sprintf "lambda = %g" lambda)
        (Rbb_queueing.Mm1.mean_queue_length ~lambda ~mu:1.)
        !acc)
    [ 0.1; 0.5; 0.9 ]

let mm1_expected_max_bounds () =
  let e1 = Rbb_queueing.Mm1.expected_max_of_n ~lambda:0.5 ~mu:1. ~n:1 in
  (* n = 1: E[max] = E[Q] = 1. *)
  Tutil.check_close ~tol:1e-9 "n=1 equals mean" 1. e1;
  let e64 = Rbb_queueing.Mm1.expected_max_of_n ~lambda:0.5 ~mu:1. ~n:64 in
  Alcotest.(check bool) "grows with n" true (e64 > e1);
  (* Max of geometrics grows like log_{1/rho} n: for rho=1/2, n=64 ->
     about 6-8. *)
  Alcotest.(check bool) "logarithmic ballpark" true (e64 > 5. && e64 < 10.);
  Tutil.check_close "lambda=0" 0.
    (Rbb_queueing.Mm1.expected_max_of_n ~lambda:0. ~mu:1. ~n:8)

(* ------------------------------------------------------------------ *)
(* Open network                                                        *)
(* ------------------------------------------------------------------ *)

let open_network_accounting () =
  let rng = Tutil.rng () in
  let w = Rbb_queueing.Open_network.create ~lambda:0.6 ~n:16 ~rng () in
  Rbb_queueing.Open_network.run_events w ~count:5000;
  let total = ref 0 in
  for u = 0 to 15 do
    total := !total + Rbb_queueing.Open_network.load w u
  done;
  Alcotest.(check int) "total matches loads" !total
    (Rbb_queueing.Open_network.total_tokens w);
  Alcotest.(check bool) "time advanced" true (Rbb_queueing.Open_network.now w > 0.)

let open_network_matches_mm1 () =
  let rng = Tutil.rng () in
  let lambda = 0.5 and n = 16 in
  let w = Rbb_queueing.Open_network.create ~lambda ~n ~rng () in
  Rbb_queueing.Open_network.run_until w ~time:20_000.;
  let expected_total =
    float_of_int n *. Rbb_queueing.Mm1.mean_queue_length ~lambda ~mu:1.
  in
  Tutil.check_rel ~tol:0.08 "time-average total = n*rho/(1-rho)" expected_total
    (Rbb_queueing.Open_network.time_average_total w);
  let expected_max = Rbb_queueing.Mm1.expected_max_of_n ~lambda ~mu:1. ~n in
  Tutil.check_rel ~tol:0.12 "time-average max matches product form" expected_max
    (Rbb_queueing.Open_network.time_average_max_load w)

let open_network_lambda_zero () =
  let rng = Tutil.rng () in
  let w = Rbb_queueing.Open_network.create ~lambda:0. ~n:4 ~rng () in
  Rbb_queueing.Open_network.run_events w ~count:100;
  Alcotest.(check int) "no events" 0 (Rbb_queueing.Open_network.events_processed w);
  Alcotest.(check int) "stays empty" 4 (Rbb_queueing.Open_network.empty_nodes w)

let open_network_invalid () =
  let rng = Tutil.rng () in
  Tutil.check_raises_invalid "lambda >= mu" (fun () ->
      ignore (Rbb_queueing.Open_network.create ~lambda:1. ~n:4 ~rng ()));
  Tutil.check_raises_invalid "n = 0" (fun () ->
      ignore (Rbb_queueing.Open_network.create ~lambda:0.5 ~n:0 ~rng ()))

(* ------------------------------------------------------------------ *)
(* Extra graph families                                                *)
(* ------------------------------------------------------------------ *)

let build_binary_tree () =
  let g = Rbb_graph.Build.binary_tree 7 in
  Alcotest.(check int) "edges" 6 (Rbb_graph.Csr.edge_count g);
  Alcotest.(check int) "root degree" 2 (Rbb_graph.Csr.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Rbb_graph.Csr.degree g 6);
  Alcotest.(check bool) "connected" true (Rbb_graph.Check.is_connected g);
  Alcotest.(check bool) "parent-child edge" true (Rbb_graph.Csr.has_edge g 1 3)

let build_grid2d () =
  let g = Rbb_graph.Build.grid2d ~rows:3 ~cols:4 in
  Alcotest.(check int) "n" 12 (Rbb_graph.Csr.n g);
  (* edges = rows*(cols-1) + cols*(rows-1) = 9 + 8. *)
  Alcotest.(check int) "edges" 17 (Rbb_graph.Csr.edge_count g);
  Alcotest.(check int) "corner degree" 2 (Rbb_graph.Csr.degree g 0);
  Alcotest.(check int) "center degree" 4 (Rbb_graph.Csr.degree g 5);
  Alcotest.(check bool) "connected" true (Rbb_graph.Check.is_connected g)

let build_barbell () =
  let g = Rbb_graph.Build.barbell 5 in
  Alcotest.(check int) "n" 10 (Rbb_graph.Csr.n g);
  (* 2*C(5,2) + 1 bridge = 21. *)
  Alcotest.(check int) "edges" 21 (Rbb_graph.Csr.edge_count g);
  Alcotest.(check bool) "bridge present" true (Rbb_graph.Csr.has_edge g 4 5);
  Alcotest.(check bool) "no cross edge" false (Rbb_graph.Csr.has_edge g 0 9);
  Alcotest.(check int) "bridge endpoint degree" 5 (Rbb_graph.Csr.degree g 4);
  Alcotest.(check bool) "connected" true (Rbb_graph.Check.is_connected g)

let build_circulant () =
  let ring = Rbb_graph.Build.circulant ~n:8 ~jumps:[ 1 ] in
  Alcotest.(check (option int)) "ring is 2-regular" (Some 2)
    (Rbb_graph.Check.is_regular ring);
  let c2 = Rbb_graph.Build.circulant ~n:8 ~jumps:[ 1; 2 ] in
  Alcotest.(check (option int)) "two jumps -> 4-regular" (Some 4)
    (Rbb_graph.Check.is_regular c2);
  (* Antipodal jump n/2 gives odd degree. *)
  let m = Rbb_graph.Build.circulant ~n:8 ~jumps:[ 4 ] in
  Alcotest.(check (option int)) "perfect matching jump" (Some 1)
    (Rbb_graph.Check.is_regular m);
  Tutil.check_raises_invalid "jump too large" (fun () ->
      ignore (Rbb_graph.Build.circulant ~n:8 ~jumps:[ 5 ]));
  Tutil.check_raises_invalid "duplicate" (fun () ->
      ignore (Rbb_graph.Build.circulant ~n:8 ~jumps:[ 2; 2 ]))

let suite =
  [
    ( "stats.autocorr",
      [
        Tutil.quick "lag 0" autocorr_lag0_is_one;
        Tutil.quick "constant" autocorr_constant_series;
        Tutil.quick "alternating" autocorr_alternating_series;
        Tutil.slow "iid near zero" autocorr_iid_near_zero;
        Tutil.slow "AR(1) acf" autocorr_acf_shape;
        Tutil.slow "AR(1) integrated time" autocorr_integrated_time_ar1;
        Tutil.slow "iid tau = 1" autocorr_iid_tau_one;
        Tutil.quick "errors" autocorr_errors;
      ] );
    ( "core.trace",
      [
        Tutil.quick "below capacity" trace_records_all_below_capacity;
        Tutil.quick "downsamples" trace_downsamples;
        Tutil.quick "even spacing after compaction" trace_even_spacing;
        Tutil.quick "rows/series" trace_rows_and_series;
        Tutil.quick "record_process" trace_record_process;
      ] );
    ( "core.potential",
      [
        Tutil.quick "quadratic" potential_quadratic_values;
        Tutil.quick "exponential" potential_exponential_values;
        Tutil.quick "log-sum-exp stable" potential_log_exponential_stable;
        Tutil.quick "max-load certificate" potential_max_load_certificate;
        Tutil.quick "drift sign from pile" potential_drift_sign;
      ] );
    ( "markov.mixing",
      [
        Tutil.quick "tv curve" mixing_tv_curve_monotone_trend;
        Tutil.quick "mixing time" mixing_time_thresholds;
        Tutil.quick "worst init" mixing_worst_init;
        Tutil.quick "expected max-load curve" mixing_expected_max_load_curve;
      ] );
    ( "queueing.jackson_heterogeneous",
      [
        Tutil.quick "stationary weights (exact, n=2)" (fun () ->
            (* rates (1, 2), m = 1: pi(1,0) prop 1, pi(0,1) prop 1/2 ->
               E[q0] = 2/3, E[q1] = 1/3. *)
            let e =
              Rbb_queueing.Jackson.stationary_weights_reference
                ~rates:[| 1.; 2. |] ~m:1
            in
            Tutil.check_close ~tol:1e-9 "E[q0]" (2. /. 3.) e.(0);
            Tutil.check_close ~tol:1e-9 "E[q1]" (1. /. 3.) e.(1));
        Tutil.quick "equal rates are symmetric" (fun () ->
            let e =
              Rbb_queueing.Jackson.stationary_weights_reference
                ~rates:[| 1.; 1.; 1. |] ~m:6
            in
            Tutil.check_close ~tol:1e-9 "each 2" 2. e.(0);
            Tutil.check_close ~tol:1e-9 "each 2" 2. e.(1));
        Tutil.slow "simulation matches product form" (fun () ->
            let rates = [| 0.5; 1.; 2.; 2. |] in
            let rng = Tutil.rng () in
            let j =
              Rbb_queueing.Jackson.create_heterogeneous ~rates ~rng
                ~init:(Rbb_core.Config.uniform ~n:4) ()
            in
            (* Warm up, then sample at time-uniform epochs (sampling at
               event boundaries would be biased against long holding
               times). *)
            Rbb_queueing.Jackson.run_until j ~time:2_000.;
            let samples = Array.make 4 0. in
            let count = 30_000 in
            for k = 1 to count do
              Rbb_queueing.Jackson.run_until j ~time:(2_000. +. float_of_int k);
              for u = 0 to 3 do
                samples.(u) <-
                  samples.(u) +. float_of_int (Rbb_queueing.Jackson.load j u)
              done
            done;
            let exact =
              Rbb_queueing.Jackson.stationary_weights_reference ~rates ~m:4
            in
            for u = 0 to 3 do
              Tutil.check_rel ~tol:0.15
                (Printf.sprintf "node %d" u)
                exact.(u)
                (samples.(u) /. float_of_int count)
            done);
        Tutil.quick "invalid rates" (fun () ->
            let rng = Tutil.rng () in
            Tutil.check_raises_invalid "zero rate" (fun () ->
                ignore
                  (Rbb_queueing.Jackson.create_heterogeneous ~rates:[| 0.; 1. |]
                     ~rng ~init:(Rbb_core.Config.uniform ~n:2) ()));
            Tutil.check_raises_invalid "length mismatch" (fun () ->
                ignore
                  (Rbb_queueing.Jackson.create_heterogeneous ~rates:[| 1. |] ~rng
                     ~init:(Rbb_core.Config.uniform ~n:2) ())));
      ] );
    ( "queueing.mm1",
      [
        Tutil.quick "closed forms" mm1_closed_forms;
        Tutil.quick "pmf normalized" mm1_pmf_sums_to_one;
        Tutil.quick "pmf mean = rho/(1-rho)" mm1_pmf_mean_matches_closed_form;
        Tutil.quick "expected max" mm1_expected_max_bounds;
      ] );
    ( "queueing.open_network",
      [
        Tutil.quick "accounting" open_network_accounting;
        Tutil.slow "matches M/M/1" open_network_matches_mm1;
        Tutil.quick "lambda = 0" open_network_lambda_zero;
        Tutil.quick "invalid" open_network_invalid;
      ] );
    ( "graph.families",
      [
        Tutil.quick "binary tree" build_binary_tree;
        Tutil.quick "grid2d" build_grid2d;
        Tutil.quick "barbell" build_barbell;
        Tutil.quick "circulant" build_circulant;
      ] );
  ]

open Rbb_queueing

(* ------------------------------------------------------------------ *)
(* Event heap                                                          *)
(* ------------------------------------------------------------------ *)

let heap_pops_sorted () =
  let h = Event_heap.create () in
  let rng = Tutil.rng () in
  let n = 500 in
  for i = 0 to n - 1 do
    Event_heap.add h ~priority:(Rbb_prng.Rng.float_unit rng) i
  done;
  Alcotest.(check int) "size" n (Event_heap.size h);
  let last = ref neg_infinity in
  for _ = 1 to n do
    match Event_heap.pop_min h with
    | None -> Alcotest.fail "premature empty"
    | Some (p, _) ->
        Alcotest.(check bool) "non-decreasing" true (p >= !last);
        last := p
  done;
  Alcotest.(check bool) "empty at end" true (Event_heap.is_empty h)

let heap_peek_and_pop () =
  let h = Event_heap.create () in
  Event_heap.add h ~priority:2. "b";
  Event_heap.add h ~priority:1. "a";
  (match Event_heap.peek_min h with
  | Some (p, v) ->
      Tutil.check_close "peek priority" 1. p;
      Alcotest.(check string) "peek value" "a" v
  | None -> Alcotest.fail "peek on non-empty");
  Alcotest.(check int) "peek does not remove" 2 (Event_heap.size h);
  (match Event_heap.pop_min h with
  | Some (_, v) -> Alcotest.(check string) "pop min" "a" v
  | None -> Alcotest.fail "pop");
  Alcotest.(check int) "size after pop" 1 (Event_heap.size h)

let heap_empty_and_clear () =
  let h = Event_heap.create ~capacity:1 () in
  Alcotest.(check (option (pair (float 0.) int))) "pop empty" None (Event_heap.pop_min h);
  Event_heap.add h ~priority:1. 1;
  Event_heap.add h ~priority:2. 2;
  Event_heap.clear h;
  Alcotest.(check bool) "cleared" true (Event_heap.is_empty h)

let prop_heap_sorted =
  Tutil.prop "heap sorts arbitrary float lists" ~count:100
    QCheck2.Gen.(list_size (int_range 0 100) (float_bound_inclusive 1000.))
    (fun xs ->
      let h = Event_heap.create () in
      List.iteri (fun i p -> Event_heap.add h ~priority:p i) xs;
      let rec drain acc =
        match Event_heap.pop_min h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Jackson network                                                     *)
(* ------------------------------------------------------------------ *)

let jackson_conserves_tokens () =
  let rng = Tutil.rng () in
  let j =
    Jackson.create ~rng ~init:(Rbb_core.Config.random rng ~n:16 ~m:16) ()
  in
  for _ = 1 to 50 do
    Jackson.run_events j ~count:20;
    let total = Array.fold_left ( + ) 0 (Rbb_core.Config.unsafe_loads (Jackson.config j)) in
    Alcotest.(check int) "tokens conserved" 16 total
  done;
  Alcotest.(check int) "events processed" 1000 (Jackson.events_processed j)

let jackson_time_advances () =
  let rng = Tutil.rng () in
  let j = Jackson.create ~rng ~init:(Rbb_core.Config.uniform ~n:8) () in
  Tutil.check_close "starts at 0" 0. (Jackson.now j);
  Jackson.run_events j ~count:100;
  Alcotest.(check bool) "time advanced" true (Jackson.now j > 0.)

let jackson_run_until_time () =
  let rng = Tutil.rng () in
  let j = Jackson.create ~rng ~init:(Rbb_core.Config.uniform ~n:8) () in
  Jackson.run_until j ~time:50.;
  Tutil.check_close ~tol:1e-9 "clock at target" 50. (Jackson.now j)

let jackson_empty_system () =
  let rng = Tutil.rng () in
  let j = Jackson.create ~rng ~init:(Rbb_core.Config.of_array [| 0; 0 |]) () in
  Jackson.run_events j ~count:10;
  Alcotest.(check int) "no events without tokens" 0 (Jackson.events_processed j);
  Alcotest.(check int) "still empty" 2 (Jackson.empty_bins j)

let jackson_counters_consistent () =
  let rng = Tutil.rng () in
  let j = Jackson.create ~rng ~init:(Rbb_core.Config.random rng ~n:12 ~m:24) () in
  for _ = 1 to 200 do
    Jackson.run_events j ~count:5;
    let c = Jackson.config j in
    Alcotest.(check int) "max load" (Rbb_core.Config.max_load c) (Jackson.max_load j);
    Alcotest.(check int) "empty bins" (Rbb_core.Config.empty_bins c) (Jackson.empty_bins j)
  done

let jackson_invalid_mu () =
  let rng = Tutil.rng () in
  Tutil.check_raises_invalid "mu 0" (fun () ->
      ignore (Jackson.create ~mu:0. ~rng ~init:(Rbb_core.Config.uniform ~n:4) ()))

let jackson_stationary_expectation_small_cases () =
  (* n=2, m=2: uniform over {(2,0),(1,1),(0,2)} -> E[M] = 5/3. *)
  Tutil.check_close ~tol:1e-9 "n=2 m=2" (5. /. 3.)
    (Jackson.stationary_max_load_expectation ~n:2 ~m:2);
  (* n=1: all m in the single node. *)
  Tutil.check_close ~tol:1e-9 "n=1" 7. (Jackson.stationary_max_load_expectation ~n:1 ~m:7);
  (* m=0: no tokens anywhere. *)
  Tutil.check_close ~tol:1e-9 "m=0" 0. (Jackson.stationary_max_load_expectation ~n:5 ~m:0);
  (* n=2, m=3: uniform over 4 configs, max loads 3,2,2,3 -> 10/4. *)
  Tutil.check_close ~tol:1e-9 "n=2 m=3" 2.5
    (Jackson.stationary_max_load_expectation ~n:2 ~m:3)

let jackson_long_run_matches_product_form () =
  (* Time-average max load should converge to the product-form
     stationary expectation. *)
  let rng = Tutil.rng () in
  let n = 4 and m = 4 in
  let j = Jackson.create ~rng ~init:(Rbb_core.Config.uniform ~n) () in
  Jackson.run_events j ~count:300_000;
  let expected = Jackson.stationary_max_load_expectation ~n ~m in
  Tutil.check_rel ~tol:0.05 "time-average max load" expected
    (Jackson.time_average_max_load j)

(* ------------------------------------------------------------------ *)
(* One-shot                                                            *)
(* ------------------------------------------------------------------ *)

let one_shot_bounds () =
  let rng = Tutil.rng () in
  for _ = 1 to 200 do
    let v = One_shot.max_load rng ~n:32 ~m:32 in
    Alcotest.(check bool) "1 <= max <= m" true (v >= 1 && v <= 32)
  done;
  Alcotest.(check int) "m=0" 0 (One_shot.max_load rng ~n:8 ~m:0)

let one_shot_samples_and_theory () =
  let rng = Tutil.rng () in
  let samples = One_shot.max_load_samples rng ~n:1024 ~m:1024 ~trials:200 in
  Alcotest.(check int) "trials" 200 (Array.length samples);
  let s = Rbb_stats.Summary.of_array samples in
  let theory = One_shot.theoretical_max_load 1024 in
  (* The mean max load should be within a factor ~2.5 of the
     leading-order ln n/ln ln n term (constants matter at n=1024). *)
  Alcotest.(check bool) "right ballpark" true
    (s.mean > theory && s.mean < 2.5 *. theory);
  Tutil.check_raises_invalid "theory n<3" (fun () ->
      ignore (One_shot.theoretical_max_load 2))

let one_shot_exact_small_law () =
  (* Three balls into three bins: max load 1 is a permutation (6/27),
     3 is a single pile (3/27), 2 is everything else (18/27). *)
  let rng = Tutil.rng () in
  let observed = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let v = One_shot.max_load rng ~n:3 ~m:3 in
    observed.(v - 1) <- observed.(v - 1) + 1
  done;
  let _, _, p =
    Rbb_stats.Gof.chi2_gof_test ~observed
      ~probabilities:[| 6. /. 27.; 18. /. 27.; 3. /. 27. |]
  in
  Alcotest.(check bool) (Printf.sprintf "p = %.4f not tiny" p) true (p > 1e-3);
  (* One bin takes every ball. *)
  Alcotest.(check int) "n = 1" 5 (One_shot.max_load rng ~n:1 ~m:5)

let suite =
  [
    ( "queueing.event_heap",
      [
        Tutil.quick "pops sorted" heap_pops_sorted;
        Tutil.quick "peek/pop" heap_peek_and_pop;
        Tutil.quick "empty/clear" heap_empty_and_clear;
        prop_heap_sorted;
      ] );
    ( "queueing.jackson",
      [
        Tutil.quick "conserves tokens" jackson_conserves_tokens;
        Tutil.quick "time advances" jackson_time_advances;
        Tutil.quick "run_until time" jackson_run_until_time;
        Tutil.quick "empty system" jackson_empty_system;
        Tutil.quick "counters consistent" jackson_counters_consistent;
        Tutil.quick "invalid mu" jackson_invalid_mu;
        Tutil.quick "stationary expectation (exact)" jackson_stationary_expectation_small_cases;
        Tutil.slow "long run matches product form" jackson_long_run_matches_product_form;
      ] );
    ( "queueing.one_shot",
      [
        Tutil.quick "bounds" one_shot_bounds;
        Tutil.slow "samples vs theory" one_shot_samples_and_theory;
        Tutil.slow "exact law at n = m = 3" one_shot_exact_small_law;
      ] );
  ]

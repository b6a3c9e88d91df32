(* Tests for service capacity, chi-square testing, and parameter
   grids. *)

open Rbb_core

(* ------------------------------------------------------------------ *)
(* Process capacity                                                    *)
(* ------------------------------------------------------------------ *)

let capacity_conserves_and_speeds_drain () =
  let n = 64 in
  let drain_time c =
    let rng = Rbb_prng.Rng.create ~seed:9L () in
    let p = Process.create ~capacity:c ~rng ~init:(Config.all_in_one ~n ~m:n ()) () in
    match Process.run_until_legitimate p ~max_rounds:(50 * n) with
    | Some r -> r
    | None -> Alcotest.fail "no convergence"
  in
  let t1 = drain_time 1 and t4 = drain_time 4 in
  Alcotest.(check bool)
    (Printf.sprintf "capacity 4 (%d) converges faster than capacity 1 (%d)" t4 t1)
    true (t4 < t1)

let capacity_conservation_property () =
  let rng = Tutil.rng () in
  let p =
    Process.create ~capacity:3 ~rng ~init:(Config.random rng ~n:32 ~m:96) ()
  in
  for _ = 1 to 200 do
    Process.step p;
    Alcotest.(check int) "sum conserved" 96
      (Array.fold_left ( + ) 0 (Config.unsafe_loads (Process.config p)))
  done

let capacity_counters_consistent () =
  let rng = Tutil.rng () in
  let p =
    Process.create ~capacity:2 ~rng ~init:(Config.all_in_one ~n:16 ~m:32 ()) ()
  in
  for _ = 1 to 200 do
    Process.step p;
    let c = Process.config p in
    Alcotest.(check int) "max" (Config.max_load c) (Process.max_load p);
    Alcotest.(check int) "empty" (Config.empty_bins c) (Process.empty_bins p)
  done

let capacity_large_equals_oneshot_law () =
  (* capacity >= m: every round throws ALL balls afresh; per-round max
     load must match the one-shot law statistically. *)
  let n = 256 in
  let rng = Rbb_prng.Rng.create ~seed:10L () in
  let p = Process.create ~capacity:n ~rng ~init:(Config.uniform ~n) () in
  let w = Rbb_stats.Welford.create () in
  for _ = 1 to 2000 do
    Process.step p;
    Rbb_stats.Welford.add w (float_of_int (Process.max_load p))
  done;
  let one_shot =
    Rbb_stats.Summary.of_array
      (Rbb_queueing.One_shot.max_load_samples rng ~n ~m:n ~trials:2000)
  in
  Tutil.check_rel ~tol:0.05 "per-round max = one-shot max"
    one_shot.Rbb_stats.Summary.mean (Rbb_stats.Welford.mean w)

let capacity_invalid () =
  let rng = Tutil.rng () in
  Tutil.check_raises_invalid "capacity 0" (fun () ->
      ignore (Process.create ~capacity:0 ~rng ~init:(Config.uniform ~n:4) ()))

(* ------------------------------------------------------------------ *)
(* Chi-square goodness of fit of the samplers (Gof)                   *)
(* ------------------------------------------------------------------ *)

let chi2_uniform_sampler_passes () =
  let g = Tutil.rng () in
  let k = 16 in
  let observed = Array.make k 0 in
  for _ = 1 to 160_000 do
    let v = Rbb_prng.Rng.int_below g k in
    observed.(v) <- observed.(v) + 1
  done;
  let _, _, p =
    Rbb_stats.Gof.chi2_gof_test ~observed
      ~probabilities:(Array.make k (1. /. float_of_int k))
  in
  Alcotest.(check bool) (Printf.sprintf "p = %.4f not tiny" p) true (p > 0.001)

let chi2_biased_sampler_fails () =
  let g = Tutil.rng () in
  let k = 8 in
  let observed = Array.make k 0 in
  for _ = 1 to 80_000 do
    (* A crude bias: double mass on cell 0. *)
    let v = if Rbb_prng.Rng.int_below g 9 = 0 then 0 else Rbb_prng.Rng.int_below g k in
    observed.(v) <- observed.(v) + 1
  done;
  let _, _, p =
    Rbb_stats.Gof.chi2_gof_test ~observed
      ~probabilities:(Array.make k (1. /. float_of_int k))
  in
  Alcotest.(check bool) "bias detected" true (p < 1e-6)

let chi2_binomial_table_gof () =
  (* End-to-end: Binomial_table draws pass a chi-square test against
     their own pmf. *)
  let g = Tutil.rng () in
  let n = 12 and p = 0.3 in
  let tbl = Rbb_prng.Sampler.Binomial_table.create ~n ~p in
  let observed = Array.make (n + 1) 0 in
  for _ = 1 to 120_000 do
    let v = Rbb_prng.Sampler.Binomial_table.draw tbl g in
    observed.(v) <- observed.(v) + 1
  done;
  let probabilities =
    Array.init (n + 1) (Rbb_prng.Sampler.Binomial_table.pmf tbl)
  in
  let _, _, pv = Rbb_stats.Gof.chi2_gof_test ~observed ~probabilities in
  Alcotest.(check bool) (Printf.sprintf "p = %.4f" pv) true (pv > 0.001)

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)
(* ------------------------------------------------------------------ *)

let grid_pairs () =
  let a = Rbb_sim.Grid.int_axis ~name:"n" [ 2; 4 ] in
  let b = Rbb_sim.Grid.float_axis ~name:"p" [ 0.5 ] in
  let combos = Rbb_sim.Grid.pairs a b in
  Alcotest.(check int) "count" 2 (List.length combos);
  Alcotest.(check int) "size2" 2 (Rbb_sim.Grid.size2 a b);
  (match combos with
  | (label, (n, p)) :: _ ->
      Alcotest.(check string) "label" "n=2 p=0.5" label;
      Alcotest.(check int) "value n" 2 n;
      Alcotest.(check (float 1e-9)) "value p" 0.5 p
  | [] -> Alcotest.fail "no combos");
  Tutil.check_raises_invalid "empty axis" (fun () ->
      ignore (Rbb_sim.Grid.axis ~name:"x" []))

let grid_triples () =
  let a = Rbb_sim.Grid.int_axis ~name:"a" [ 1; 2 ] in
  let b = Rbb_sim.Grid.int_axis ~name:"b" [ 3; 4; 5 ] in
  let c = Rbb_sim.Grid.int_axis ~name:"c" [ 6 ] in
  let combos = Rbb_sim.Grid.triples a b c in
  Alcotest.(check int) "count" 6 (List.length combos);
  Alcotest.(check int) "size3" 6 (Rbb_sim.Grid.size3 a b c);
  (* First axis outermost: first two combos share a=1. *)
  match combos with
  | (l1, (1, 3, 6)) :: (l2, (1, 4, 6)) :: _ ->
      Alcotest.(check string) "label1" "a=1 b=3 c=6" l1;
      Alcotest.(check string) "label2" "a=1 b=4 c=6" l2
  | _ -> Alcotest.fail "unexpected order"

let suite =
  [
    ( "core.capacity",
      [
        Tutil.slow "higher capacity drains faster" capacity_conserves_and_speeds_drain;
        Tutil.quick "conservation" capacity_conservation_property;
        Tutil.quick "incremental counters" capacity_counters_consistent;
        Tutil.slow "capacity >= m is one-shot" capacity_large_equals_oneshot_law;
        Tutil.quick "invalid" capacity_invalid;
      ] );
    ( "stats.chi2",
      [
        Tutil.slow "uniform sampler passes" chi2_uniform_sampler_passes;
        Tutil.slow "biased sampler fails" chi2_biased_sampler_fails;
        Tutil.slow "binomial table GOF" chi2_binomial_table_gof;
      ] );
    ( "sim.grid",
      [ Tutil.quick "pairs" grid_pairs; Tutil.quick "triples" grid_triples ] );
  ]

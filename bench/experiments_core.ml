(* Experiments E1-E9: the paper's core claims (Theorem 1, Lemmas 2-6,
   Corollary 1, the §4.1 adversary).  Each experiment prints a table
   whose shape mirrors the claim; EXPERIMENTS.md records the outputs. *)

open Rbb_core
module Table = Rbb_sim.Table
module Replicate = Rbb_sim.Replicate
module Summary = Rbb_stats.Summary
module Regression = Rbb_stats.Regression

let fi = float_of_int

let print_fit label points =
  let fit = Regression.against ~transform:Float.log points in
  Printf.printf "%s: y = %.3f*ln n + %.3f (R2 = %.4f)\n" label fit.slope
    fit.intercept fit.r2

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 1 (stability): M(t) = O(log n) over long windows       *)
(* ------------------------------------------------------------------ *)

let e1 ~quick =
  let ns = if quick then [ 64; 128; 256 ] else [ 128; 256; 512; 1024; 2048 ] in
  let trials = if quick then 3 else 6 in
  let table =
    Table.create
      ~headers:
        [ "n"; "window T"; "thr(4 ln n)"; "mean max_t M(t)"; "worst max_t M(t)";
          "mean M(t)"; "legit frac" ]
  in
  let points = ref [] in
  List.iter
    (fun n ->
      let window = 16 * n in
      let threshold = Config.legitimacy_threshold n in
      let running_max = Rbb_stats.Welford.create () in
      let legit_rounds = ref 0 and total_rounds = ref 0 in
      let mean_m = Rbb_stats.Welford.create () in
      let results =
        Replicate.run ~base_seed:101L ~trials (fun rng ->
            let p = Process.create ~rng ~init:(Config.uniform ~n) () in
            let worst = ref 0 in
            for _ = 1 to window do
              Process.step p;
              let m = Process.max_load p in
              if m > !worst then worst := m;
              Rbb_stats.Welford.add mean_m (fi m);
              incr total_rounds;
              if m <= threshold then incr legit_rounds
            done;
            !worst)
      in
      Array.iter (fun w -> Rbb_stats.Welford.add running_max (fi w)) results;
      let worst_of_all = Array.fold_left Stdlib.max 0 results in
      points := (fi n, Rbb_stats.Welford.mean running_max) :: !points;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int window;
          Table.cell_int threshold;
          Table.cell_float (Rbb_stats.Welford.mean running_max);
          Table.cell_int worst_of_all;
          Table.cell_float (Rbb_stats.Welford.mean mean_m);
          Table.cell_float ~decimals:4 (fi !legit_rounds /. fi !total_rounds);
        ])
    ns;
  Table.print ~caption:"Max load from a legitimate start (window 16n, all seeds)"
    table;
  print_fit "fit of mean max_t M(t)" (Array.of_list (List.rev !points))

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 1 (convergence): O(n) rounds from any configuration    *)
(* ------------------------------------------------------------------ *)

let e2 ~quick =
  let ns = if quick then [ 128; 256 ] else [ 256; 512; 1024; 2048; 4096 ] in
  let trials = if quick then 3 else 8 in
  let table =
    Table.create
      ~headers:[ "n"; "mean rounds"; "max rounds"; "rounds/n (mean)"; "rounds/n (max)" ]
  in
  let points = ref [] in
  List.iter
    (fun n ->
      let s =
        Replicate.run_floats ~base_seed:202L ~trials (fun rng ->
            let p = Process.create ~rng ~init:(Config.all_in_one ~n ~m:n ()) () in
            match Process.run_until_legitimate p ~max_rounds:(50 * n) with
            | Some r -> fi r
            | None -> failwith "E2: no convergence within 50n rounds")
      in
      points := (fi n, s.Summary.mean) :: !points;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_float s.Summary.mean;
          Table.cell_float s.Summary.max;
          Table.cell_float ~decimals:3 (s.Summary.mean /. fi n);
          Table.cell_float ~decimals:3 (s.Summary.max /. fi n);
        ])
    ns;
  Table.print
    ~caption:"Convergence to a legitimate configuration from the worst start (all n balls in one bin)"
    table;
  let fit = Regression.log_log_exponent (Array.of_list (List.rev !points)) in
  Printf.printf
    "growth exponent of convergence time in n: %.3f (claim: 1.0 = linear; R2 = %.4f)\n"
    fit.Regression.slope fit.Regression.r2

(* ------------------------------------------------------------------ *)
(* E3 — Lemmas 1-2: at least n/4 empty bins in every round             *)
(* ------------------------------------------------------------------ *)

let e3 ~quick =
  let ns = if quick then [ 64; 256 ] else [ 64; 256; 1024; 2048 ] in
  let trials = if quick then 3 else 4 in
  let table =
    Table.create
      ~headers:
        [ "n"; "start"; "min empty frac"; "mean empty frac"; "rounds < n/4"; "rounds" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (label, init) ->
          let window = 8 * n in
          let min_frac = ref 1. in
          let mean_frac = Rbb_stats.Welford.create () in
          let below = ref 0 in
          let _ =
            Replicate.run ~base_seed:303L ~trials (fun rng ->
                let p = Process.create ~rng ~init:(init rng) () in
                (* Lemma 2 holds from round 1 on; round 0 (the arbitrary
                   start) is excluded, as in the paper. *)
                Process.step p;
                for _ = 1 to window do
                  Process.step p;
                  let frac = fi (Process.empty_bins p) /. fi n in
                  if frac < !min_frac then min_frac := frac;
                  Rbb_stats.Welford.add mean_frac frac;
                  if 4 * Process.empty_bins p < n then incr below
                done)
          in
          Table.add_row table
            [
              Table.cell_int n;
              label;
              Table.cell_float ~decimals:4 !min_frac;
              Table.cell_float ~decimals:4 (Rbb_stats.Welford.mean mean_frac);
              Table.cell_int !below;
              Table.cell_int (window * trials);
            ])
        [
          ("uniform", fun _ -> Config.uniform ~n);
          ("one-pile", fun _ -> Config.all_in_one ~n ~m:n ());
          ("random", fun rng -> Config.random rng ~n ~m:n);
        ])
    ns;
  Table.print
    ~caption:"Empty-bin fraction after round 1 (claim: never below 1/4; equilibrium ~ sqrt 2 - 1 ~ 0.41)"
    table

(* ------------------------------------------------------------------ *)
(* E4 — Lemma 3: Tetris dominates under the coupling                   *)
(* ------------------------------------------------------------------ *)

let e4 ~quick =
  let ns = if quick then [ 64; 256 ] else [ 64; 256; 1024 ] in
  let trials = if quick then 3 else 6 in
  let table =
    Table.create
      ~headers:
        [ "n"; "rounds"; "dominated frac"; "case-ii rounds"; "max RBB"; "max Tetris" ]
  in
  List.iter
    (fun n ->
      let rounds = 8 * n in
      let dominated = Rbb_stats.Welford.create () in
      let case_ii = ref 0 in
      let rbb_max = ref 0 and tet_max = ref 0 in
      let _ =
        Replicate.run ~base_seed:404L ~trials (fun rng ->
            (* Lemma 3 preconditions: a start with >= n/4 empty bins. *)
            let init = Config.random rng ~n ~m:n in
            let c = Coupling.create ~rng ~init () in
            Coupling.run c ~rounds;
            Rbb_stats.Welford.add dominated
              (fi (Coupling.dominated_rounds c) /. fi rounds);
            case_ii := !case_ii + Coupling.case_ii_rounds c;
            if Coupling.rbb_running_max c > !rbb_max then
              rbb_max := Coupling.rbb_running_max c;
            if Coupling.tetris_running_max c > !tet_max then
              tet_max := Coupling.tetris_running_max c)
      in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int (rounds * trials);
          Table.cell_float ~decimals:4 (Rbb_stats.Welford.mean dominated);
          Table.cell_int !case_ii;
          Table.cell_int !rbb_max;
          Table.cell_int !tet_max;
        ])
    ns;
  Table.print
    ~caption:"Coupled RBB/Tetris runs (claim: per-bin domination every round, case (ii) never fires)"
    table

(* ------------------------------------------------------------------ *)
(* E5 — Lemma 4: Tetris empties every bin within 5n rounds             *)
(* ------------------------------------------------------------------ *)

let e5 ~quick =
  let ns = if quick then [ 128; 512 ] else [ 128; 512; 2048; 4096 ] in
  let trials = if quick then 3 else 5 in
  let table =
    Table.create
      ~headers:[ "n"; "mean worst first-empty"; "max worst first-empty"; "max/n"; "bound 5n" ]
  in
  List.iter
    (fun n ->
      let s =
        Replicate.run_floats ~base_seed:505L ~trials (fun rng ->
            let t = Tetris.create ~rng ~init:(Config.all_in_one ~n ~m:n ()) () in
            Tetris.run t ~rounds:(5 * n);
            match Tetris.all_bins_emptied_by t with
            | Some r -> fi r
            | None -> failwith "E5: a bin never emptied within 5n rounds")
      in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_float s.Summary.mean;
          Table.cell_float ~decimals:0 s.Summary.max;
          Table.cell_float ~decimals:3 (s.Summary.max /. fi n);
          Table.cell_int (5 * n);
        ])
    ns;
  Table.print
    ~caption:"Tetris from the worst start: round by which every bin has been empty at least once"
    table

(* ------------------------------------------------------------------ *)
(* E6 — Lemma 5: drift-chain absorption tail                           *)
(* ------------------------------------------------------------------ *)

let e6 ~quick =
  let starts = [ 4; 8; 16; 32 ] in
  let trials = if quick then 2_000 else 20_000 in
  let n = 1024 in
  let table =
    Table.create
      ~headers:
        [ "start k"; "mean tau"; "4k (=E)"; "P(tau>8k) emp"; "bound e^-8k/144";
          "P(tau>24k) emp"; "bound e^-24k/144" ]
  in
  List.iter
    (fun k ->
      let rng = Rbb_prng.Rng.create ~seed:606L () in
      let chain = Drift_chain.create ~n rng in
      let w = Rbb_stats.Welford.create () in
      let exceed8 = ref 0 and exceed24 = ref 0 in
      for _ = 1 to trials do
        match Drift_chain.absorption_time chain ~start:k ~cap:1_000_000 with
        | None -> failwith "E6: no absorption"
        | Some tau ->
            Rbb_stats.Welford.add w (fi tau);
            if tau > 8 * k then incr exceed8;
            if tau > 24 * k then incr exceed24
      done;
      Table.add_row table
        [
          Table.cell_int k;
          Table.cell_float (Rbb_stats.Welford.mean w);
          Table.cell_int (4 * k);
          Table.cell_float ~decimals:5 (fi !exceed8 /. fi trials);
          Table.cell_float ~decimals:5 (Drift_chain.tail_bound ~t_rounds:(8 * k));
          Table.cell_float ~decimals:5 (fi !exceed24 /. fi trials);
          Table.cell_float ~decimals:5 (Drift_chain.tail_bound ~t_rounds:(24 * k));
        ])
    starts;
  Table.print
    ~caption:"Lemma 5 drift chain (Bin(3n/4,1/n) increments): absorption-time tails vs analytic bound"
    table;
  print_endline
    "claim: empirical P(tau > t) <= e^{-t/144} for t >= 8k (the bound is loose; empirical decays much faster)"

(* ------------------------------------------------------------------ *)
(* E7 — Lemma 6: Tetris max load O(log n)                              *)
(* ------------------------------------------------------------------ *)

let e7 ~quick =
  let ns = if quick then [ 64; 256 ] else [ 128; 256; 512; 1024; 2048 ] in
  let trials = if quick then 3 else 6 in
  let table =
    Table.create
      ~headers:[ "n"; "window T"; "mean max_t M^(t)"; "worst max_t M^(t)"; "mean balls" ]
  in
  let points = ref [] in
  List.iter
    (fun n ->
      let window = 16 * n in
      let running = Rbb_stats.Welford.create () in
      let balls = Rbb_stats.Welford.create () in
      let worst_all = ref 0 in
      let _ =
        Replicate.run ~base_seed:707L ~trials (fun rng ->
            let t = Tetris.create ~rng ~init:(Config.uniform ~n) () in
            let worst = ref 0 in
            for _ = 1 to window do
              Tetris.step t;
              if Tetris.max_load t > !worst then worst := Tetris.max_load t;
              Rbb_stats.Welford.add balls (fi (Tetris.total_balls t))
            done;
            Rbb_stats.Welford.add running (fi !worst);
            if !worst > !worst_all then worst_all := !worst)
      in
      points := (fi n, Rbb_stats.Welford.mean running) :: !points;
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int window;
          Table.cell_float (Rbb_stats.Welford.mean running);
          Table.cell_int !worst_all;
          Table.cell_float ~decimals:1 (Rbb_stats.Welford.mean balls);
        ])
    ns;
  Table.print ~caption:"Tetris max load from a legitimate start (window 16n)" table;
  print_fit "fit of mean max_t M^(t)" (Array.of_list (List.rev !points))

(* ------------------------------------------------------------------ *)
(* E8 — Corollary 1: parallel cover time O(n log^2 n)                  *)
(* ------------------------------------------------------------------ *)

let e8 ~quick =
  let ns = if quick then [ 32; 64 ] else [ 32; 64; 128; 256; 512 ] in
  let trials = if quick then 3 else 5 in
  let table =
    Table.create
      ~headers:
        [ "n"; "parallel cover"; "single cover"; "nH_n (theory)"; "ratio par/single";
          "ratio/ln n"; "par/(n ln^2 n)" ]
  in
  List.iter
    (fun n ->
      let par =
        Replicate.run_floats ~base_seed:808L ~trials (fun rng ->
            let t =
              Token_process.create ~track_cover:true ~rng ~init:(Config.uniform ~n) ()
            in
            match Token_process.run_until_covered t ~max_rounds:100_000_000 with
            | Some r -> fi r
            | None -> failwith "E8: parallel cover incomplete")
      in
      let single =
        Replicate.run_floats ~base_seed:809L ~trials:(4 * trials) (fun rng ->
            match
              Walks.single_walk_cover_time ~rng ~graph:(Rbb_graph.Csr.complete n)
                ~start:0 ~max_rounds:100_000_000
            with
            | Some r -> fi r
            | None -> failwith "E8: single cover incomplete")
      in
      let ratio = par.Summary.mean /. single.Summary.mean in
      let ln = Float.log (fi n) in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_float par.Summary.mean;
          Table.cell_float single.Summary.mean;
          Table.cell_float (Walks.clique_single_cover_expectation n);
          Table.cell_float ~decimals:3 ratio;
          Table.cell_float ~decimals:3 (ratio /. ln);
          Table.cell_float ~decimals:4 (par.Summary.mean /. (fi n *. ln *. ln));
        ])
    ns;
  Table.print
    ~caption:"Multi-token traversal on the clique (FIFO): parallel cover vs single-token baseline"
    table;
  print_endline
    "claim: parallel cover = O(n log^2 n); slowdown over the single walk is one log n factor"

(* ------------------------------------------------------------------ *)
(* E9 — §4.1 adversary: faults every gamma*n rounds                    *)
(* ------------------------------------------------------------------ *)

let e9 ~quick =
  let n = if quick then 64 else 128 in
  let gammas = [ 6; 8; 12 ] in
  let trials = if quick then 3 else 5 in
  let table =
    Table.create
      ~headers:[ "gamma"; "fault period"; "mean cover"; "no-fault cover"; "slowdown" ]
  in
  let baseline =
    Replicate.run_floats ~base_seed:909L ~trials (fun rng ->
        let t =
          Token_process.create ~track_cover:true ~rng ~init:(Config.uniform ~n) ()
        in
        match Token_process.run_until_covered t ~max_rounds:100_000_000 with
        | Some r -> fi r
        | None -> failwith "E9: baseline cover incomplete")
  in
  List.iter
    (fun gamma ->
      let period = gamma * n in
      let s =
        Replicate.run_floats ~base_seed:910L ~trials (fun rng ->
            let t =
              Token_process.create ~track_cover:true ~rng ~init:(Config.uniform ~n) ()
            in
            let rec go rounds =
              match Token_process.cover_time t with
              | Some r -> fi r
              | None ->
                  if rounds > 100_000_000 then failwith "E9: cover incomplete"
                  else begin
                    (* The §4.1 adversary: re-pile all tokens onto node 0
                       once every gamma*n rounds. *)
                    if rounds > 0 && rounds mod period = 0 then
                      Token_process.adversary_pile t ~bin:0;
                    Token_process.step t;
                    go (rounds + 1)
                  end
            in
            go 0)
      in
      Table.add_row table
        [
          Table.cell_int gamma;
          Table.cell_int period;
          Table.cell_float s.Summary.mean;
          Table.cell_float baseline.Summary.mean;
          Table.cell_float ~decimals:3 (s.Summary.mean /. baseline.Summary.mean);
        ])
    gammas;
  Table.print
    ~caption:
      (Printf.sprintf
         "Cover time under periodic pile-up faults (n = %d; claim: constant-factor slowdown for gamma >= 6)"
         n)
    table

let all =
  [
    Rbb_sim.Experiment.make ~id:"e1" ~title:"Stability: max load O(log n)"
      ~claim:"Theorem 1: from a legitimate start, M(t) = O(log n) for all t = O(n^c) w.h.p."
      (fun ~quick -> e1 ~quick);
    Rbb_sim.Experiment.make ~id:"e2" ~title:"Convergence in O(n) rounds"
      ~claim:"Theorem 1: from any configuration a legitimate one is reached within O(n) rounds w.h.p."
      (fun ~quick -> e2 ~quick);
    Rbb_sim.Experiment.make ~id:"e3" ~title:"Empty bins never drop below n/4"
      ~claim:"Lemmas 1-2: after round 1, every round of a poly(n) window has >= n/4 empty bins w.h.p."
      (fun ~quick -> e3 ~quick);
    Rbb_sim.Experiment.make ~id:"e4" ~title:"Tetris dominates RBB under coupling"
      ~claim:"Lemma 3: the coupled Tetris process dominates the RBB max load w.h.p."
      (fun ~quick -> e4 ~quick);
    Rbb_sim.Experiment.make ~id:"e5" ~title:"Tetris empties all bins within 5n rounds"
      ~claim:"Lemma 4: in Tetris every bin is empty at least once within 5n rounds w.h.p."
      (fun ~quick -> e5 ~quick);
    Rbb_sim.Experiment.make ~id:"e6" ~title:"Drift-chain absorption tail"
      ~claim:"Lemma 5: P_k(tau > t) <= e^{-t/144} for t >= 8k."
      (fun ~quick -> e6 ~quick);
    Rbb_sim.Experiment.make ~id:"e7" ~title:"Tetris max load O(log n)"
      ~claim:"Lemma 6: from a legitimate start the Tetris max load stays O(log n) over poly(n) rounds."
      (fun ~quick -> e7 ~quick);
    Rbb_sim.Experiment.make ~id:"e8" ~title:"Parallel cover time O(n log^2 n)"
      ~claim:"Corollary 1: the n-token traversal covers the clique in O(n log^2 n) rounds w.h.p."
      (fun ~quick -> e8 ~quick);
    Rbb_sim.Experiment.make ~id:"e9" ~title:"Adversarial faults"
      ~claim:"Section 4.1: faults once every gamma*n rounds (gamma >= 6) cost only a constant factor."
      (fun ~quick -> e9 ~quick);
  ]

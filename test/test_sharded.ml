(* Tests for the domain-parallel sharded engine and its randomness law:
   bit-level determinism against the sequential Process at every shard
   and domain count, QCheck invariants of the step kernels, and
   chi-square goodness-of-fit of the destination laws.  All seeds are
   fixed, so every check is exact and CI-stable. *)

open Rbb_core
module Sharded = Rbb_sim.Sharded

let mk_rng seed = Rbb_prng.Rng.create ~seed ()

(* ------------------------------------------------------------------ *)
(* Determinism: sharded = sequential, for every (shards, domains)      *)
(* ------------------------------------------------------------------ *)

(* n spans several randomness blocks (shard_size = 4096), so the block
   walk, the buffer merge and the counter reduce are all exercised. *)
let check_matches ?d_choices ?weights ?capacity ~n ~init ~rounds ~seed
    (shards, domains) =
  let seq =
    Process.create ?d_choices ?weights ?capacity ~rng:(mk_rng seed) ~init ()
  in
  let par =
    Sharded.create ?d_choices ?weights ?capacity ~shards ~domains
      ~rng:(mk_rng seed) ~init ()
  in
  Process.run seq ~rounds;
  Sharded.run par ~rounds;
  let label fmt =
    Printf.ksprintf (fun s -> Printf.sprintf "%s (k=%d w=%d)" s shards domains) fmt
  in
  Alcotest.(check bool)
    (label "config n=%d" n)
    true
    (Config.equal (Process.config seq) (Sharded.config par));
  Alcotest.(check int) (label "max_load") (Process.max_load seq)
    (Sharded.max_load par);
  Alcotest.(check int) (label "empty_bins") (Process.empty_bins seq)
    (Sharded.empty_bins par)

let combos = [ (1, 1); (2, 2); (7, 3); (7, 1); (3, 5); (16, 2) ]

let sharded_matches_process_pile () =
  let n = 10_000 in
  List.iter
    (fun c ->
      check_matches ~n ~init:(Config.all_in_one ~n ~m:n ()) ~rounds:30 ~seed:99L c)
    combos

let sharded_matches_process_uniform () =
  let n = 9_001 in
  List.iter
    (fun c -> check_matches ~n ~init:(Config.uniform ~n) ~rounds:12 ~seed:7L c)
    combos

let sharded_matches_process_variants () =
  let n = 5_000 in
  let init = Config.balanced ~n ~m:(2 * n) in
  List.iter
    (fun c ->
      check_matches ~d_choices:2 ~n ~init ~rounds:8 ~seed:3L c;
      check_matches ~capacity:3 ~n ~init ~rounds:8 ~seed:4L c;
      let weights = Array.init n (fun i -> 1.0 +. float_of_int (i mod 7)) in
      check_matches ~weights ~n ~init ~rounds:8 ~seed:5L c)
    [ (1, 1); (2, 2); (7, 3) ]

let sharded_round_by_round () =
  (* Equality holds after every single round, not just at the end. *)
  let n = 4_200 in
  let seq = Process.create ~rng:(mk_rng 21L) ~init:(Config.uniform ~n) () in
  let par =
    Sharded.create ~shards:7 ~domains:2 ~rng:(mk_rng 21L)
      ~init:(Config.uniform ~n) ()
  in
  for r = 1 to 10 do
    Process.step seq;
    Sharded.step par;
    Alcotest.(check bool)
      (Printf.sprintf "round %d" r)
      true
      (Config.equal (Process.config seq) (Sharded.config par))
  done

let sharded_rejects_bad_counts () =
  let init = Config.uniform ~n:8 in
  Tutil.check_raises_invalid "zero shards" (fun () ->
      ignore (Sharded.create ~shards:0 ~rng:(mk_rng 1L) ~init ()));
  Tutil.check_raises_invalid "negative shards" (fun () ->
      ignore (Sharded.create ~shards:(-3) ~rng:(mk_rng 1L) ~init ()));
  Tutil.check_raises_invalid "zero domains" (fun () ->
      ignore (Sharded.create ~domains:0 ~rng:(mk_rng 1L) ~init ()));
  Tutil.check_raises_invalid "weights + d" (fun () ->
      ignore
        (Sharded.create ~d_choices:2 ~weights:(Array.make 8 1.) ~rng:(mk_rng 1L)
           ~init ()))

(* ------------------------------------------------------------------ *)
(* QCheck: kernel invariants on random configurations                  *)
(* ------------------------------------------------------------------ *)

let recompute loads =
  let mx = Array.fold_left Stdlib.max 0 loads in
  let empty = Array.fold_left (fun a q -> if q = 0 then a + 1 else a) 0 loads in
  let sum = Array.fold_left ( + ) 0 loads in
  (mx, empty, sum)

let gen_case =
  let open QCheck2.Gen in
  let* n = int_range 1 200 in
  let* loads = array_size (return n) (int_range 0 4) in
  let* d = int_range 1 3 in
  let* capacity = int_range 1 3 in
  let* shards = int_range 1 5 in
  let* domains = int_range 1 3 in
  let* seed = int_range 0 10_000 in
  return (loads, d, capacity, shards, domains, seed)

let prop_step_invariants (loads, d, capacity, _, _, seed) =
  let init = Config.of_array loads in
  let p =
    Process.create ~d_choices:d ~capacity ~rng:(mk_rng (Int64.of_int seed))
      ~init ()
  in
  let ok = ref true in
  for _ = 1 to 3 do
    Process.step p;
    let now = Array.init (Process.n p) (Process.load p) in
    let mx, empty, sum = recompute now in
    ok :=
      !ok && sum = Config.balls init && mx = Process.max_load p
      && empty = Process.empty_bins p
  done;
  !ok

let prop_sharded_bit_identical (loads, d, capacity, shards, domains, seed) =
  let seed = Int64.of_int seed in
  let init = Config.of_array loads in
  let seq = Process.create ~d_choices:d ~capacity ~rng:(mk_rng seed) ~init () in
  let par =
    Sharded.create ~d_choices:d ~capacity ~shards ~domains ~rng:(mk_rng seed)
      ~init ()
  in
  Process.run seq ~rounds:3;
  Sharded.run par ~rounds:3;
  Config.equal (Process.config seq) (Sharded.config par)
  && Process.max_load seq = Sharded.max_load par
  && Process.empty_bins seq = Sharded.empty_bins par

let prop_weighted_invariants (loads, _, capacity, shards, domains, seed) =
  let seed = Int64.of_int seed in
  let n = Array.length loads in
  let weights = Array.init n (fun i -> 0.5 +. float_of_int ((i * 13) mod 5)) in
  let init = Config.of_array loads in
  let seq = Process.create ~weights ~capacity ~rng:(mk_rng seed) ~init () in
  let par =
    Sharded.create ~weights ~capacity ~shards ~domains ~rng:(mk_rng seed) ~init
      ()
  in
  Process.run seq ~rounds:2;
  Sharded.run par ~rounds:2;
  let now = Array.init (Process.n seq) (Process.load seq) in
  let mx, empty, sum = recompute now in
  sum = Config.balls init
  && mx = Process.max_load seq
  && empty = Process.empty_bins seq
  && Config.equal (Process.config seq) (Sharded.config par)

(* ------------------------------------------------------------------ *)
(* Chi-square goodness of fit for the destination laws                 *)
(* ------------------------------------------------------------------ *)

let draw_histogram p ~n ~draws =
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let v = Process.destination p in
    counts.(v) <- counts.(v) + 1
  done;
  counts

let chi2_uniform () =
  let n = 64 and draws = 64_000 in
  let p = Process.create ~rng:(mk_rng 11L) ~init:(Config.uniform ~n) () in
  let observed = draw_histogram p ~n ~draws in
  let probabilities = Array.make n (1.0 /. float_of_int n) in
  let _, _, pv = Rbb_stats.Gof.chi2_gof_test ~observed ~probabilities in
  if pv < 1e-3 then Alcotest.failf "uniform law rejected: p = %g" pv

let chi2_weighted () =
  let n = 16 and draws = 80_000 in
  let weights = Array.init n (fun i -> float_of_int (i + 1)) in
  let total = float_of_int (n * (n + 1) / 2) in
  let p =
    Process.create ~weights ~rng:(mk_rng 12L) ~init:(Config.uniform ~n) ()
  in
  let observed = draw_histogram p ~n ~draws in
  let probabilities = Array.map (fun w -> w /. total) weights in
  let _, _, pv = Rbb_stats.Gof.chi2_gof_test ~observed ~probabilities in
  if pv < 1e-3 then Alcotest.failf "weighted law rejected: p = %g" pv

let chi2_two_choices () =
  (* With strictly increasing loads (bin u has load u, i.e. rank u), the
     least-loaded-of-2 destination is bin u with probability
     (2(n-1-u) + 1) / n^2: both picks must rank >= u and one must be u. *)
  let n = 8 and draws = 80_000 in
  let init = Config.of_array (Array.init n (fun i -> i)) in
  let p = Process.create ~d_choices:2 ~rng:(mk_rng 13L) ~init () in
  let observed = draw_histogram p ~n ~draws in
  let nf = float_of_int n in
  let probabilities =
    Array.init n (fun u -> float_of_int ((2 * (n - 1 - u)) + 1) /. (nf *. nf))
  in
  let _, _, pv = Rbb_stats.Gof.chi2_gof_test ~observed ~probabilities in
  if pv < 1e-3 then Alcotest.failf "2-choices law rejected: p = %g" pv

(* ------------------------------------------------------------------ *)
(* Lemma 1/2: >= n/4 empty bins from round 1 on, on the sharded engine *)
(* ------------------------------------------------------------------ *)

let sharded_rounds_validation () =
  (* Regression: negative round counts used to be silent no-ops. *)
  let mk () =
    Sharded.create ~shards:3 ~domains:2 ~rng:(mk_rng 31L)
      ~init:(Config.uniform ~n:64) ()
  in
  let p = mk () in
  Tutil.check_raises_invalid "run rounds < 0" (fun () ->
      Sharded.run p ~rounds:(-1));
  let p = mk () in
  let before = Sharded.config p in
  Sharded.run p ~rounds:0;
  Alcotest.(check bool) "rounds = 0 is a no-op" true
    (Config.equal before (Sharded.config p) && Sharded.round p = 0)

let sharded_quarter_empty () =
  let n = 10_000 in
  let p =
    Sharded.create ~shards:4 ~domains:2 ~rng:(mk_rng 1789L)
      ~init:(Config.uniform ~n) ()
  in
  for r = 1 to 5 do
    Sharded.step p;
    let e = Sharded.empty_bins p in
    if e < n / 4 then
      Alcotest.failf "round %d: only %d empty bins (< n/4 = %d)" r e (n / 4)
  done

let suite =
  [
    ( "sim.sharded",
      [
        Tutil.quick "matches Process (pile)" sharded_matches_process_pile;
        Tutil.quick "matches Process (uniform)" sharded_matches_process_uniform;
        Tutil.slow "matches Process (d, capacity, weights)"
          sharded_matches_process_variants;
        Tutil.quick "round-by-round equality" sharded_round_by_round;
        Tutil.quick "invalid shard/domain counts" sharded_rejects_bad_counts;
        Tutil.quick "rounds validation" sharded_rounds_validation;
        Tutil.prop "step invariants" ~count:60 gen_case prop_step_invariants;
        Tutil.prop "sharded bit-identical" ~count:60 gen_case
          prop_sharded_bit_identical;
        Tutil.prop "weighted invariants" ~count:40 gen_case
          prop_weighted_invariants;
        Tutil.quick "chi2: uniform destination" chi2_uniform;
        Tutil.quick "chi2: weighted destination" chi2_weighted;
        Tutil.quick "chi2: 2-choices destination" chi2_two_choices;
        Tutil.quick "lemma 1/2: quarter empty (sharded)" sharded_quarter_empty;
      ] );
  ]

(* Per-ball vs count-based round kernel at the headline size.

   Runs the same (seed, n) through Rbb_core.Process and
   Rbb_core.Counts_process, checks exact ball conservation on the
   counts engine every measured round, and records per-round
   wall-clock times and their ratio to BENCH_counts_speedup.json.  The
   engines share the process law but not the randomness law, so unlike
   the sharded bench no bit-identity is asserted — the distributional
   equivalence gate lives in test/test_distributional.ml.  Both engines
   time the same number of rounds: since the per-ball kernel draws each
   block's destinations in one bulk call their per-round costs are of
   the same order at n = 10^6. *)

open Rbb_core

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let json_path = "BENCH_counts_speedup.json"

let run ?(quick = false) () =
  let n = if quick then 100_000 else 1_000_000 in
  let rounds = if quick then 100 else 300 in
  let seed = 2025L in
  Printf.printf
    "\n=== KERNEL: per-ball vs count-based engine (n=%d, %d rounds each) ===\n\n"
    n rounds;
  let init = Config.uniform ~n in
  let balls =
    Process.create ~rng:(Rbb_prng.Rng.create ~seed ()) ~init ()
  in
  (* One untimed round per engine first: page in the arrays so neither
     side pays first-touch faults inside its measured window. *)
  Process.step balls;
  let t_balls = wall (fun () -> Process.run balls ~rounds) in
  let balls_ms = 1e3 *. t_balls /. float_of_int rounds in
  Printf.printf "per-ball  Process.run        : %8.3f s  (%.3f ms/round)\n%!"
    t_balls balls_ms;
  let counts =
    Counts_process.create ~rng:(Rbb_prng.Rng.create ~seed ()) ~init ()
  in
  Counts_process.step counts;
  let conserved = ref true in
  let check () =
    let total = ref 0 in
    for u = 0 to n - 1 do
      total := !total + Counts_process.load counts u
    done;
    if !total <> Counts_process.balls counts then conserved := false
  in
  (* Conservation is checked outside the timed window (it is an O(n)
     scan), on the state after warm-up and after the measured run. *)
  check ();
  let t_counts =
    wall (fun () -> Counts_process.run counts ~rounds)
  in
  check ();
  let counts_ms = 1e3 *. t_counts /. float_of_int rounds in
  Printf.printf "counts    Counts_process.run : %8.3f s  (%.3f ms/round)\n%!"
    t_counts counts_ms;
  let speedup = balls_ms /. counts_ms in
  let threshold = Config.legitimacy_threshold n in
  let legitimate = Counts_process.max_load counts <= threshold in
  Printf.printf "speedup (per round)          : %8.2fx\n" speedup;
  Printf.printf "balls conserved              : %b\n" !conserved;
  Printf.printf "final max load               : %d (threshold %d, legitimate %b)\n"
    (Counts_process.max_load counts) threshold legitimate;
  if not !conserved then
    failwith "kernel bench: counts engine lost or duplicated balls";
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"counts_speedup\",\n\
    \  %s,\n\
    \  \"n\": %d,\n\
    \  \"rounds\": %d,\n\
    \  \"seed\": %Ld,\n\
    \  \"balls_seconds\": %.6f,\n\
    \  \"counts_seconds\": %.6f,\n\
    \  \"balls_ms_per_round\": %.6f,\n\
    \  \"counts_ms_per_round\": %.6f,\n\
    \  \"speedup\": %.4f,\n\
    \  \"conservation_ok\": %b,\n\
    \  \"final_max_load\": %d,\n\
    \  \"legitimacy_threshold\": %d,\n\
    \  \"final_legitimate\": %b,\n\
    \  \"final_empty_bins\": %d\n\
     }\n"
    (Box.json_fields ~quick) n rounds seed t_balls t_counts balls_ms counts_ms
    speedup !conserved
    (Counts_process.max_load counts)
    threshold legitimate
    (Counts_process.empty_bins counts);
  close_out oc;
  Printf.printf "wrote %s\n" json_path

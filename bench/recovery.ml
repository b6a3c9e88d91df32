(* Recovery-time benchmark: rounds-to-relegitimacy after §4.1 transient
   faults, measured against Theorem 1's O(n) bound and recorded to
   BENCH_recovery.json so robustness regressions are tracked alongside
   the science.

   Two fault actions are measured (the harshest pile-into-one-bin and
   the milder reshuffle), and the pile scenario is additionally replayed
   through the sharded engine to assert the fault-and-recover episode
   series is engine-identical — recovery numbers must never depend on
   which engine produced them. *)

open Rbb_core

let wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let json_path = "BENCH_recovery.json"

let run ?(quick = false) () =
  let n = if quick then 512 else 4096 in
  let episodes = if quick then 3 else 8 in
  let max_recovery = 100 * n in
  let seed = 2025L in
  Printf.printf
    "\n=== RECOVERY: rounds-to-relegitimacy after transient faults (n=%d, \
     %d episodes, Theorem 1 bound O(n)) ===\n\n"
    n episodes;
  let engine ?shards ?domains n =
    Rbb_sim.Engines.create ?shards ?domains ~kind:Balls
      ~rng:(Rbb_prng.Rng.create ~seed ())
      ~init:(Config.uniform ~n) ()
  in
  let measure_with action =
    Rbb_sim.Recovery.measure ~action ~episodes ~max_recovery (engine n)
  in
  let report (r : Rbb_sim.Recovery.t) seconds =
    let recovered =
      List.filter_map
        (fun (e : Rbb_sim.Recovery.episode) -> e.recovery_rounds)
        r.episodes
    in
    let mean =
      match recovered with
      | [] -> nan
      | l ->
          float_of_int (List.fold_left ( + ) 0 l)
          /. float_of_int (List.length l)
    in
    Printf.printf
      "%-14s mean %8.1f rounds (%.3f n)  worst %6d  [%d/%d recovered, %.2f s]\n%!"
      r.action mean
      (mean /. float_of_int n)
      (List.fold_left Stdlib.max 0 recovered)
      (List.length recovered) episodes seconds
  in
  let pile, t_pile = wall (fun () -> measure_with (Adversary.Pile_into 0)) in
  report pile t_pile;
  let resh, t_resh = wall (fun () -> measure_with Adversary.Reshuffle) in
  report resh t_resh;
  (* Engine-identity check: the same seed driven through the sharded
     engine must reproduce the pile episode series byte for byte. *)
  let check_n = if quick then 256 else 1024 in
  let check_eps = 2 in
  let sharded_json, process_json =
    let measure engine =
      Rbb_sim.Recovery.to_json
        (Rbb_sim.Recovery.measure ~action:(Adversary.Pile_into 0)
           ~episodes:check_eps ~max_recovery:(100 * check_n) engine)
    in
    ( measure (engine ~shards:2 ~domains:2 check_n),
      measure (engine check_n) )
  in
  let identical = String.equal sharded_json process_json in
  Printf.printf "engine-identical episode series : %b (n=%d)\n" identical
    check_n;
  if not identical then
    failwith "recovery bench: sharded episode series diverged from sequential";
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"recovery\",\n\
    \  \"n\": %d,\n\
    \  \"episodes\": %d,\n\
    \  \"max_recovery\": %d,\n\
    \  \"seed\": %Ld,\n\
    \  \"engine_identical\": %b,\n\
    \  \"pile_seconds\": %.6f,\n\
    \  \"reshuffle_seconds\": %.6f,\n\
    \  \"pile\": %s,\n\
    \  \"reshuffle\": %s\n\
     }\n"
    n episodes max_recovery seed identical t_pile t_resh
    (Rbb_sim.Recovery.to_json pile)
    (Rbb_sim.Recovery.to_json resh);
  close_out oc;
  Printf.printf "wrote %s\n" json_path

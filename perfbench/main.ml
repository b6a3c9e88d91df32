(* perfbench: one run of one workload of the repository's benchmark.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--quick] [--state-dir DIR]

   Every workload runs the same parts on its own inputs, so every run
   reports every metric: set-up (daemon forks, engine allocation and
   warm-up), the service closed loop, then the engine work (rounds,
   checkpoint cycles, convergences from a pile) in interleaved chunks.
   The workload decides the sizes and where the time goes; the seed
   decides every random input.  The last stdout line is the result
   object; the line before it is the run record (inputs and seeds). *)

open Measure

type profile = {
  sizes : Engines.sizes;
  converge_seeds : int;
  serve_seconds : float;  (** closed-loop window at --seconds 30 *)
}

(* Sizes are for --seconds 30; round counts are per chunk
   ({!Engines.chunks}); round, save and seed counts and the serve window
   scale with --seconds. *)
let profile = function
  | "stationary" ->
      (* The paper's regime at the headline size: rounds and storage at
         n = 10^6 run out of cache. *)
      Some
        {
          sizes =
            {
              Engines.counts_n = 1_000_000;
              counts_start = Uniform;
              counts_warmup = 20;
              counts_rounds = 10;
              d2_call = 2;
              balls_n = 1 lsl 16;
              balls_start = Uniform;
              balls_warmup = 50;
              balls_rounds = 20;
              saves = 20;
              converge_n = 1 lsl 10;
            };
          converge_seeds = 120;
          serve_seconds = 8.;
        }
  | "converge_pile" ->
      (* Theorem 1's worst-case start: rounds from a pile at n = 2^14
         keep the working set in cache and most bins empty.  The
         convergences run at n = 2^12, about a third of a second each,
         so that a run holds forty and some of them fall in a fast
         stretch of the box. *)
      Some
        {
          sizes =
            {
              Engines.counts_n = 1 lsl 14;
              counts_start = Pile;
              counts_warmup = 1000;
              counts_rounds = 200;
              d2_call = 100;
              balls_n = 1 lsl 14;
              balls_start = Pile;
              balls_warmup = 1000;
              balls_rounds = 100;
              saves = 150;
              converge_n = 1 lsl 12;
            };
          converge_seeds = 40;
          serve_seconds = 8.;
        }
  | "serve_closed" ->
      (* The service path.  The per-ball rounds run at the job's size;
         the small engine work still spans about 12 s, so that its
         figures do not hang on one few-second stretch of the box's
         speed. *)
      Some
        {
          sizes =
            {
              Engines.counts_n = 1 lsl 14;
              counts_start = Uniform;
              counts_warmup = 100;
              counts_rounds = 500;
              d2_call = 100;
              balls_n = 128;
              balls_start = Uniform;
              balls_warmup = 100;
              balls_rounds = 5000;
              saves = 250;
              converge_n = 1 lsl 10;
            };
          converge_seeds = 300;
          serve_seconds = 10.;
        }
  | _ -> None

(* Smoke-test sizes: every phase and gate, a few seconds in all. *)
let quick p =
  {
    sizes =
      {
        p.sizes with
        counts_n = min p.sizes.counts_n (1 lsl 14);
        counts_warmup = 10;
        counts_rounds = 5;
        balls_n = min p.sizes.balls_n 4096;
        balls_warmup = 10;
        balls_rounds = 5;
        saves = 3;
        converge_n = min p.sizes.converge_n 512;
      };
    converge_seeds = 3;
    serve_seconds = 1.;
  }

let scale p seconds =
  let k x = max 3 (int_of_float (Float.round (float_of_int x *. seconds /. 30.))) in
  {
    sizes =
      {
        p.sizes with
        counts_rounds = k p.sizes.counts_rounds;
        balls_rounds = k p.sizes.balls_rounds;
        saves = k p.sizes.saves;
      };
    converge_seeds = k p.converge_seeds;
    serve_seconds = p.serve_seconds *. seconds /. 30.;
  }

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let usage () =
  prerr_endline
    "usage: main.exe --workload stationary|converge_pile|serve_closed --seed N \
     --seconds S --trace 0|1 [--quick] [--state-dir DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 30. in
  let trace = ref false and quick_flag = ref false in
  let state_root = ref ".bench_state" in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := v = "1";
        parse rest
    | "--quick" :: rest ->
        quick_flag := true;
        parse rest
    | "--state-dir" :: v :: rest ->
        state_root := v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let p =
    match profile !workload with
    | Some p when !seed >= 0 && !seconds > 0. ->
        let p = scale p !seconds in
        if !quick_flag then quick p else p
    | _ -> usage ()
  in
  let trace = !trace and seed = !seed in
  (* Inputs from the seed: engine streams, one stream per converge
     seed, one job seed per submitted job. *)
  let engine_seed = Int64.of_int ((seed * 1_000_003) + 17) in
  let converge_seeds =
    List.init p.converge_seeds (fun i -> Int64.of_int ((seed * 1_000_003) + 1000 + i))
  in
  let job k =
    Service.job_spec ~seed:(((seed land 0xFFFF) * 1_000_000) + k)
  in
  let dir = Filename.concat !state_root (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  (* Set-up, three times: every daemon fork comes before the first
     domain spawn (the 2-domain engine's warm-up).  setup_s is the
     median of the three daemon + engine set-ups. *)
  let daemon_ms = Array.make 3 0. in
  let daemon = ref None in
  for i = 0 to 2 do
    let d, ms = timed (fun () -> Service.start ~dir ~tag:(Printf.sprintf "d%d" i)) in
    daemon_ms.(i) <- ms;
    if i < 2 then Service.stop d else daemon := Some d
  done;
  let setup_s = Samples.create () in
  let engines = ref None in
  for i = 0 to 2 do
    engines := None;
    let e, ms = timed (fun () -> Engines.setup ~seed:engine_seed ~trace p.sizes) in
    Samples.add setup_s ((daemon_ms.(i) +. ms) /. 1e3);
    engines := Some e
  done;
  let daemon = Option.get !daemon and engines = Option.get !engines in
  log "%s: set-up done (%.2f s median)" !workload (Samples.median setup_s);
  let serve =
    Service.run ~dir ~trace ~seconds:p.serve_seconds ~job daemon
  in
  Service.stop daemon;
  log "%s: serve done" !workload;
  let engines =
    Engines.measure ~dir ~trace ~converge_seeds p.sizes engines
  in
  log "%s: engines done" !workload;
  rm_rf dir;
  let phases = [ engines; serve ] in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 phases in
  let metrics =
    if trace then List.concat_map (fun r -> r.layer) phases
    else
      m "setup_s" "s" (Samples.median setup_s)
      :: List.concat_map (fun r -> r.e2e) phases
  in
  Printf.printf
    "{\"record\": \"run\", \"workload\": %s, \"seed\": %d, \"seconds\": %s, \
     \"trace\": %b, \"quick\": %b, \"counts_n\": %d, \"balls_n\": %d, \
     \"converge_n\": %d, \"engine_seed\": %Ld, \"converge_seeds\": [%s], \
     \"job_seeds\": [%d, %d], \
     \"gate_failures\": %d}\n"
    (json_string !workload) seed (json_float !seconds) trace !quick_flag
    p.sizes.counts_n p.sizes.balls_n p.sizes.converge_n engine_seed
    (String.concat ", " (List.map Int64.to_string converge_seeds))
    (job 0).seed
    (job (serve.attempted - 1)).seed
    (List.length !gate_failures);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (!gate_failures = [])
    (sum (fun r -> r.attempted))
    (sum (fun r -> r.failed))
    (json_metrics metrics)

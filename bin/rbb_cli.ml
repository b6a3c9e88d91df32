(* rbb — command-line front end for the repeated balls-into-bins library.

   Subcommands mirror the library's engines:
     simulate   run the RBB process and print per-round / summary metrics
     tetris     run the Tetris process
     converge   measure rounds-to-legitimate from a worst-case start
     cover      measure the multi-token traversal cover time
     adversary  run with periodic adversarial faults
     recover    measure rounds-to-relegitimacy after transient faults
     markov     exact small-n analysis (stationary law, Appendix B)
     sweep      max-load scaling across a ladder of n
     serve      crash-safe simulation daemon (rbb.job/1 over a Unix socket)
     submit     submit a job to / query a running daemon
     slam       open-loop Poisson load harness with an M/M/c fit
     top        live dashboard over a running daemon

   simulate additionally supports crash-safe checkpoint/resume
   (--checkpoint / --checkpoint-every / --resume-from) and deterministic
   fault injection into the sharded engine (--failpoint). *)

open Cmdliner
open Rbb_core

let fi = float_of_int

(* Shared options ---------------------------------------------------- *)

let seed_t =
  let doc = "PRNG seed (runs are deterministic in the seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let n_t =
  let doc = "Number of bins (and nodes)." in
  Arg.(value & opt int 1024 & info [ "n"; "bins" ] ~docv:"N" ~doc)

let rng_of_seed seed = Rbb_prng.Rng.create ~seed:(Int64.of_int seed) ()

let init_conv =
  let parse s =
    match s with
    | "uniform" | "balanced" | "pile" | "random" -> Ok s
    | _ -> Error (`Msg "expected one of: uniform, balanced, pile, random")
  in
  Arg.conv (parse, Format.pp_print_string)

let init_t =
  let doc =
    "Initial configuration: $(b,uniform) (one ball per bin; requires m = n), \
     $(b,balanced) (m balls spread as evenly as possible), $(b,pile) (all \
     balls in bin 0), or $(b,random) (balls thrown u.a.r.).  Default: \
     $(b,uniform), or $(b,balanced) when --balls differs from the bin count."
  in
  Arg.(value & opt (some init_conv) None & info [ "init" ] ~docv:"INIT" ~doc)

(* The default start depends on the ball count: "uniform" (the paper's
   one-ball-per-bin start) only exists at m = n, so an m <> n run
   defaults to its even-spread generalisation instead. *)
let init_default init ~n ~m =
  match init with
  | Some s -> s
  | None -> if m = n then "uniform" else "balanced"

let balls_t =
  let doc =
    "Number of balls m (default: n, the paper's regime).  The legitimacy \
     threshold scales with the ball count: ceil(beta * max(1, m/n) * ln n)."
  in
  Arg.(value & opt (some int) None & info [ "balls"; "m" ] ~docv:"M" ~doc)

let make_init name rng ~n ~m =
  match name with
  | "uniform" when m = n -> Config.uniform ~n
  | "uniform" ->
      (* Refuse rather than silently degrade: "uniform" promises one
         ball per bin, which no m <> n configuration can honour. *)
      invalid_arg
        (Printf.sprintf
           "init: \"uniform\" means one ball per bin and requires m = n \
            (got m=%d, n=%d); use \"balanced\" for the even spread of m \
            balls" m n)
  | "balanced" -> Config.balanced ~n ~m
  | "pile" -> Config.all_in_one ~n ~m ()
  | "random" -> Config.random rng ~n ~m
  | _ -> assert false

(* Engine selection: the per-ball engines (Process / Sharded) and the
   count-based engines (Counts_process / Sharded_counts) implement the
   same process law but consume randomness differently, so the choice
   changes the realized trajectory (equal in distribution, not in
   bits).  Unset means per-ball, except on resume where the checkpoint
   knows which family wrote it. *)

let engine_conv =
  let parse s =
    match Engine.kind_of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg "expected one of: balls, counts")
  in
  Arg.conv (parse, fun ppf k -> Format.pp_print_string ppf (Engine.kind_name k))

let engine_t =
  let doc =
    "Round kernel: $(b,balls) (per-ball sampling; supports -d and \
     failpoints) or $(b,counts) (per-block count sampling — same law, \
     about the same speed at large n; uniform re-assignment only).  \
     Defaults to $(b,balls), or to the engine recorded in the \
     checkpoint when resuming."
  in
  Arg.(value & opt (some engine_conv) None & info [ "engine" ] ~docv:"E" ~doc)

(* Telemetry export: [--telemetry-json PATH] turns on an active sink;
   without it every instrument is the noop sink and costs nothing. *)

let telemetry_t =
  let doc =
    "Write structured telemetry (counters, per-phase timers, a per-round \
     latency histogram) as JSON to $(docv)."
  in
  Arg.(value
       & opt (some string) None
       & info [ "telemetry-json" ] ~docv:"PATH" ~doc)

let telemetry_of_path = function
  | None -> Rbb_sim.Telemetry.noop
  | Some _ -> Rbb_sim.Telemetry.create ()

(* Metrics export: [--metrics-prom PATH] keeps a labeled registry fed
   from the driving loop (round gauges, legitimacy dwell/excursion,
   per-round latency) plus the telemetry re-export, and writes the
   Prometheus text exposition at the end.  Works uniformly across all
   four engine variants because the loop, not the engine, feeds it. *)

let metrics_prom_t =
  let doc =
    "Write Prometheus text-format metrics (round/max-load/empty-bins \
     gauges, legitimacy dwell and excursion counters, a per-round \
     latency histogram, and the engine telemetry re-exported) to \
     $(docv) when the run completes."
  in
  Arg.(value & opt (some string) None & info [ "metrics-prom" ] ~docv:"PATH" ~doc)

let write_telemetry tel = function
  | None -> ()
  | Some path ->
      Rbb_sim.Telemetry.write_json tel ~path;
      Printf.printf "wrote telemetry to %s\n" path

(* Event tracing: [--trace-ndjson PATH] streams round-level records
   (schema rbb.trace/1), [--chrome-trace PATH] streams engine phase
   spans as a Chrome trace-event document, [--trace-every K] strides the
   observable/span families (threshold events always record).  Without
   either sink the tracer is the noop and the engines take no clock
   reads for it. *)

let trace_ndjson_t =
  let doc =
    "Stream round-level trace events (observables, legitimacy/quarter-empty \
     threshold events, engine phase spans) as NDJSON (schema rbb.trace/1) to \
     $(docv).  Read it back with $(b,rbb trace-report)."
  in
  Arg.(value & opt (some string) None & info [ "trace-ndjson" ] ~docv:"PATH" ~doc)

let trace_every_t =
  let doc =
    "Record observables and spans every $(docv) rounds (threshold events are \
     recorded unconditionally).  Requires a trace sink."
  in
  Arg.(value & opt int 1 & info [ "trace-every" ] ~docv:"K" ~doc)

let chrome_trace_t =
  let doc =
    "Write engine phase spans as Chrome trace-event JSON to $(docv) (load in \
     Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "chrome-trace" ] ~docv:"PATH" ~doc)

let tracer_of ?m ~n ~every ~ndjson ~chrome () =
  match (ndjson, chrome) with
  | None, None ->
      if every <> 1 then
        invalid_arg "--trace-every requires --trace-ndjson or --chrome-trace";
      Rbb_sim.Tracer.noop
  | _ ->
      Rbb_sim.Tracer.create ~every ?m
        ?ndjson:(Option.map (fun p -> `File p) ndjson)
        ?chrome:(Option.map (fun p -> `File p) chrome)
        ~n ()

let close_tracer tracer ~ndjson ~chrome =
  Rbb_sim.Tracer.close tracer;
  (match ndjson with
  | None -> ()
  | Some path -> Printf.printf "wrote trace to %s\n" path);
  match chrome with
  | None -> ()
  | Some path -> Printf.printf "wrote chrome trace to %s\n" path

(* Checkpoint / resume: [--checkpoint PATH] publishes an rbb.checkpoint/1
   snapshot atomically ([--checkpoint-every K] also at every K-th round),
   [--resume-from PATH] rebuilds the engine mid-trajectory.  A resumed
   run is bit-identical to the uninterrupted one. *)

let checkpoint_t =
  let doc =
    "Write an $(b,rbb.checkpoint/1) snapshot to $(docv) when the run \
     completes (and periodically with $(b,--checkpoint-every)).  \
     Published atomically: $(docv) is never a torn file, even across a \
     crash."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"PATH" ~doc)

let checkpoint_every_t =
  let doc =
    "Also write the checkpoint every $(docv) completed rounds.  Requires \
     $(b,--checkpoint)."
  in
  Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"K" ~doc)

let resume_from_t =
  let doc =
    "Resume from the checkpoint at $(docv) instead of starting fresh.  \
     $(b,--rounds) stays the total round target; $(b,-n), $(b,--balls), \
     $(b,--seed), $(b,--init) and $(b,-d) are taken from the checkpoint.  \
     The resumed trajectory is bit-identical to the run that never stopped."
  in
  Arg.(value & opt (some string) None & info [ "resume-from" ] ~docv:"PATH" ~doc)

(* Fault injection: each [--failpoint SPEC] arms a named failpoint in the
   sharded engine's phases; a supervisor with the default retry budget
   absorbs the injected faults. *)

let failpoint_t =
  let doc =
    "Arm a failpoint (repeatable): $(b,NAME), \
     $(b,NAME@round=R,shard=S,fails=K) or $(b,NAME@p=P,seed=S).  Names: \
     sharded.launch, sharded.merge, sharded.settle.  \
     Forces the sharded engine and attaches a retrying supervisor."
  in
  Arg.(value & opt_all string [] & info [ "failpoint" ] ~docv:"SPEC" ~doc)

let failpoints_of specs =
  let parse s =
    match Rbb_sim.Failpoint.parse s with
    | Error msg -> invalid_arg msg
    | Ok spec ->
        if not (List.mem spec.Rbb_sim.Failpoint.name Rbb_sim.Failpoint.known_names)
        then
          invalid_arg
            (Printf.sprintf "failpoint: unknown name %S (known: %s)"
               spec.Rbb_sim.Failpoint.name
               (String.concat ", " Rbb_sim.Failpoint.known_names));
        spec
  in
  Rbb_sim.Failpoint.of_specs (List.map parse specs)

let load_checkpoint path =
  match
    Rbb_sim.Checkpoint.load
      ~on_warning:(fun msg -> Printf.eprintf "rbb: warning: %s\n%!" msg)
      ~path ()
  with
  | Ok snap -> snap
  | Error msg -> invalid_arg msg

(* simulate ----------------------------------------------------------- *)

let simulate n balls rounds seed init_name engine_flag d shards domains
    report_every telemetry_path metrics_prom trace_ndjson trace_every
    chrome_trace checkpoint_path checkpoint_every resume_from failpoint_specs =
  if rounds < 0 then invalid_arg "simulate: --rounds must be nonnegative";
  if shards < 1 then invalid_arg "simulate: --shards must be at least 1";
  if domains < 1 then invalid_arg "simulate: --domains must be at least 1";
  if checkpoint_every < 0 then
    invalid_arg "simulate: --checkpoint-every must be nonnegative";
  if checkpoint_every > 0 && checkpoint_path = None then
    invalid_arg "simulate: --checkpoint-every requires --checkpoint";
  let failpoints = failpoints_of failpoint_specs in
  (* Fault injection implies supervision: without a supervisor an
     injected fault would just crash the run, which is never what an
     operator arming a failpoint from the CLI wants to demonstrate. *)
  let supervisor =
    if Rbb_sim.Failpoint.enabled failpoints then Rbb_sim.Supervisor.create ()
    else Rbb_sim.Supervisor.noop
  in
  let snap = Option.map (fun p -> load_checkpoint p) resume_from in
  let start_round =
    match snap with None -> 0 | Some s -> s.Rbb_sim.Checkpoint.round
  in
  if rounds < start_round then
    invalid_arg
      (Printf.sprintf
         "simulate: --rounds %d is the total target, below the checkpoint's \
          %d completed rounds"
         rounds start_round);
  (* On resume the checkpoint is authoritative for the process law —
     including the ball count, which it carries in its header. *)
  let n = match snap with None -> n | Some s -> Config.n s.config in
  let m =
    match snap with
    | None -> Option.value ~default:n balls
    | Some s -> Config.balls s.config
  in
  let init_name = init_default init_name ~n ~m in
  let d = match snap with None -> d | Some s -> s.d_choices in
  (* The checkpoint is authoritative for the engine family too: the two
     families consume randomness under different laws, so switching
     mid-trajectory cannot be an exact resume.  An explicit conflicting
     --engine is an error rather than silently ignored. *)
  let kind =
    match (engine_flag, snap) with
    | None, None -> Engine.Balls
    | None, Some s -> s.Rbb_sim.Checkpoint.kind
    | Some e, Some s when e <> s.Rbb_sim.Checkpoint.kind ->
        invalid_arg
          (Printf.sprintf
             "simulate: --engine %s conflicts with the checkpoint, which was \
              written by the %s engine"
             (Engine.kind_name e)
             (Engine.kind_name s.Rbb_sim.Checkpoint.kind))
    | Some e, _ -> e
  in
  (* Checked here rather than left to the engine chooser so a bad flag
     combination fails before any trace or metrics file is opened. *)
  if kind = Counts && d > 1 then
    invalid_arg
      "simulate: the counts engine supports uniform re-assignment only (-d 1)";
  if kind = Counts && Rbb_sim.Failpoint.enabled failpoints then
    invalid_arg
      "simulate: failpoints guard the per-ball sharded engine; the counts \
       engine has no failpoint surface";
  let metrics = Metrics.create ~n in
  (* The registry re-exports the telemetry counters at the end, so
     --metrics-prom forces an active telemetry sink even without
     --telemetry-json. *)
  let tel =
    if telemetry_path <> None || metrics_prom <> None then
      Rbb_sim.Telemetry.create ()
    else Rbb_sim.Telemetry.noop
  in
  let registry =
    match metrics_prom with
    | None -> Rbb_obs.Registry.noop
    | Some _ -> Rbb_obs.Registry.create ()
  in
  (* Fed from the driving loop below rather than composed into the
     engine probes: the loop sees every variant (sequential and
     sharded, both families) identically, and feeding on_round exactly
     once per round keeps the dwell/excursion counters honest. *)
  let rprobe =
    Rbb_obs.Registry.probe ~threshold:(Config.legitimacy_threshold ~m n)
      registry
  in
  let tracer =
    tracer_of ~m ~n ~every:trace_every ~ndjson:trace_ndjson
      ~chrome:chrome_trace ()
  in
  let observe r ~max_load ~empty_bins =
    Metrics.observe metrics ~max_load ~empty_bins;
    if Probe.live rprobe then
      rprobe.Probe.on_round ~round:r ~max_load ~empty_bins ~balls:m;
    if report_every > 0 && r mod report_every = 0 then
      Printf.printf "round %8d: max load %3d, empty bins %d (%.3f)\n" r max_load
        empty_bins
        (fi empty_bins /. fi n)
  in
  (match snap with
  | None -> ()
  | Some s ->
      Printf.printf "resumed from %s at round %d\n"
        (Option.get resume_from) s.Rbb_sim.Checkpoint.round);
  (* Within each engine family the sequential and parallel variants
     share the randomness law, so the output below is identical
     whichever one the chooser picks; sharding only changes wall-clock
     time.  Telemetry and tracing come from inside the engines (probes
     or attached sinks), so no trajectory depends on them. *)
  let engine =
    match snap with
    | Some s ->
        Rbb_sim.Engines.restore ~telemetry:tel ~tracer ~failpoints ~supervisor
          ~shards ~domains s
    | None ->
        let rng = rng_of_seed seed in
        let init = make_init init_name rng ~n ~m in
        Rbb_sim.Engines.create ~telemetry:tel ~tracer ~failpoints ~supervisor
          ~d_choices:d ~shards ~domains ~kind ~rng ~init ()
  in
  let save () =
    Option.iter
      (fun path ->
        Rbb_sim.Checkpoint.save ~path
          (Rbb_sim.Checkpoint.capture ~telemetry:tel engine))
      checkpoint_path
  in
  (* Per-round latency for the registry is timed here, around the whole
     step, so every engine lands in the same rbb_round_seconds
     histogram. *)
  let step =
    if Rbb_obs.Registry.enabled registry then fun () ->
      let t0 = rprobe.Probe.now () in
      engine.step ();
      rprobe.Probe.latency (Int64.sub (rprobe.Probe.now ()) t0)
    else engine.step
  in
  (* Step, observe, and publish the checkpoint on schedule (every K
     rounds, and always at the end). *)
  for r = start_round + 1 to rounds do
    step ();
    observe r ~max_load:(engine.max_load ()) ~empty_bins:(engine.empty_bins ());
    if (checkpoint_every > 0 && r mod checkpoint_every = 0) || r = rounds then
      save ()
  done;
  if rounds = start_round then save ();
  Option.iter (Printf.printf "wrote checkpoint to %s\n") checkpoint_path;
  (* The m = n rendering (no " m=" token, "(4 ln n)" label) is pinned
     by cram tests; m only surfaces when it differs. *)
  Printf.printf
    "\nn=%d%s rounds=%d d=%d engine=%s init=%s seed=%d\n\
     running max load       : %d\n\
     mean max load          : %.3f\n\
     legitimacy threshold   : %d (%s)\n\
     min empty-bin fraction : %.4f\n\
     rounds below n/4 empty : %d\n"
    n
    (if m <> n then Printf.sprintf " m=%d" m else "")
    rounds d (Engine.kind_name kind) init_name seed
    (Metrics.running_max_load metrics)
    (Metrics.mean_max_load metrics)
    (Config.legitimacy_threshold ~m n)
    (if m <> n then "4 max(1, m/n) ln n" else "4 ln n")
    (Metrics.min_empty_fraction metrics)
    (Metrics.rounds_below_quarter metrics);
  Rbb_sim.Telemetry.set_gauge tel "simulate.running_max_load"
    (fi (Metrics.running_max_load metrics));
  Rbb_sim.Telemetry.set_gauge tel "simulate.mean_max_load"
    (Metrics.mean_max_load metrics);
  Rbb_sim.Telemetry.set_gauge tel "simulate.min_empty_fraction"
    (Metrics.min_empty_fraction metrics);
  write_telemetry tel telemetry_path;
  (match metrics_prom with
  | None -> ()
  | Some path ->
      Rbb_obs.Registry.import_telemetry registry tel;
      Rbb_obs.Prometheus.write_file registry ~path;
      Printf.printf "wrote metrics to %s\n" path);
  close_tracer tracer ~ndjson:trace_ndjson ~chrome:chrome_trace

let simulate_cmd =
  let rounds_t =
    Arg.(value & opt int 10_000 & info [ "rounds" ] ~docv:"T" ~doc:"Rounds to run.")
  in
  let d_t =
    (* The long alias also keeps a bare [--d] an ambiguous-prefix error
       (vs [--domains]) rather than silently meaning [--domains]. *)
    Arg.(
      value
      & opt int 1
      & info [ "d"; "d-choices" ] ~docv:"D"
          ~doc:"Number of bin choices per re-assignment.")
  in
  let report_t =
    Arg.(value & opt int 0 & info [ "report-every" ] ~docv:"K" ~doc:"Print a progress line every K rounds (0 = never).")
  in
  let shards_t =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"K"
             ~doc:"Scheduling shards for the parallel engine (results are identical for every K).")
  in
  let domains_t =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"D"
             ~doc:"Worker domains for the parallel engine (results are identical for every D).")
  in
  let doc = "Run the repeated balls-into-bins process and report load metrics." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(const simulate $ n_t $ balls_t $ rounds_t $ seed_t $ init_t
          $ engine_t $ d_t $ shards_t $ domains_t $ report_t $ telemetry_t
          $ metrics_prom_t $ trace_ndjson_t $ trace_every_t $ chrome_trace_t
          $ checkpoint_t $ checkpoint_every_t $ resume_from_t $ failpoint_t)

(* tetris -------------------------------------------------------------- *)

let tetris n rounds seed init_name lambda telemetry_path trace_ndjson
    trace_every chrome_trace =
  if rounds < 0 then invalid_arg "tetris: --rounds must be nonnegative";
  let rng = rng_of_seed seed in
  let init_name = init_default init_name ~n ~m:n in
  let init = make_init init_name rng ~n ~m:n in
  let arrivals =
    match lambda with
    | None -> Tetris.Three_quarters
    | Some l -> Tetris.Binomial_rate l
  in
  let t = Tetris.create ~arrivals ~rng ~init () in
  let tel = telemetry_of_path telemetry_path in
  let tracer =
    tracer_of ~n ~every:trace_every ~ndjson:trace_ndjson ~chrome:chrome_trace ()
  in
  let probe =
    Probe.compose (Rbb_sim.Telemetry.probe tel) (Rbb_sim.Tracer.probe tracer)
  in
  let worst = ref 0 in
  for _ = 1 to rounds do
    Tetris.run ~probe t ~rounds:1;
    if Tetris.max_load t > !worst then worst := Tetris.max_load t
  done;
  Printf.printf
    "tetris n=%d rounds=%d arrivals=%s\n\
     running max load : %d\n\
     final max load   : %d\n\
     final balls      : %d\n\
     all bins emptied : %s\n"
    n rounds
    (match lambda with None -> "3n/4" | Some l -> Printf.sprintf "Bin(n, %.2f)" l)
    !worst (Tetris.max_load t) (Tetris.total_balls t)
    (match Tetris.all_bins_emptied_by t with
    | Some r -> Printf.sprintf "by round %d" r
    | None -> "not yet");
  Rbb_sim.Telemetry.set_gauge tel "tetris.running_max_load" (fi !worst);
  Rbb_sim.Telemetry.set_gauge tel "tetris.final_max_load"
    (fi (Tetris.max_load t));
  Rbb_sim.Telemetry.set_gauge tel "tetris.final_balls"
    (fi (Tetris.total_balls t));
  write_telemetry tel telemetry_path;
  close_tracer tracer ~ndjson:trace_ndjson ~chrome:chrome_trace

let tetris_cmd =
  let rounds_t =
    Arg.(value & opt int 10_000 & info [ "rounds" ] ~docv:"T" ~doc:"Rounds to run.")
  in
  let lambda_t =
    Arg.(value & opt (some float) None
         & info [ "lambda" ] ~docv:"L" ~doc:"Use Bin(n, L) random arrivals instead of the fixed 3n/4 batch.")
  in
  let doc = "Run the auxiliary Tetris process." in
  Cmd.v (Cmd.info "tetris" ~doc)
    Term.(const tetris $ n_t $ rounds_t $ seed_t $ init_t $ lambda_t
          $ telemetry_t $ trace_ndjson_t $ trace_every_t $ chrome_trace_t)

(* converge ------------------------------------------------------------ *)

let converge n balls trials seed domains telemetry_path trace_ndjson
    trace_every chrome_trace =
  let m = Option.value ~default:n balls in
  let tel = telemetry_of_path telemetry_path in
  let tracer =
    tracer_of ~m ~n ~every:trace_every ~ndjson:trace_ndjson
      ~chrome:chrome_trace ()
  in
  let measure rng =
    let p = Process.create ~rng ~init:(Config.all_in_one ~n ~m ()) () in
    match Process.run_until_legitimate p ~max_rounds:(100 * n) with
    | Some r -> r
    | None -> failwith "no convergence within 100n rounds"
  in
  (* Parallel and sequential runners produce identical results; domains
     only change wall-clock time (with domains = 1 the parallel runner
     degenerates to the inline loop), so one code path serves both. *)
  let rounds_per_trial =
    Rbb_sim.Telemetry.span tel "converge.total" (fun () ->
        Rbb_sim.Parallel.run ~telemetry:tel ~domains
          ~base_seed:(Int64.of_int seed) ~trials measure)
  in
  (* Convergence events are emitted from the trial-ordered result array,
     not from inside the workers, so the trace is identical for every
     domain count. *)
  Array.iteri
    (fun trial r -> Rbb_sim.Tracer.convergence ~trial tracer ~round:r)
    rounds_per_trial;
  let samples = Rbb_stats.Summary.of_array (Array.map fi rounds_per_trial) in
  Printf.printf
    "convergence from the worst configuration (all %d balls in one bin), %d trials\n\
     mean rounds : %.1f  (%.3f n)\n\
     max rounds  : %.0f  (%.3f n)\n\
     threshold   : max load <= %d\n"
    m trials samples.Rbb_stats.Summary.mean
    (samples.Rbb_stats.Summary.mean /. fi n)
    samples.Rbb_stats.Summary.max
    (samples.Rbb_stats.Summary.max /. fi n)
    (Config.legitimacy_threshold ~m n);
  Rbb_sim.Telemetry.set_gauge tel "converge.mean_rounds"
    samples.Rbb_stats.Summary.mean;
  Rbb_sim.Telemetry.set_gauge tel "converge.max_rounds"
    samples.Rbb_stats.Summary.max;
  write_telemetry tel telemetry_path;
  close_tracer tracer ~ndjson:trace_ndjson ~chrome:chrome_trace

let converge_cmd =
  let trials_t =
    Arg.(value & opt int 10 & info [ "trials" ] ~docv:"K" ~doc:"Independent trials.")
  in
  let domains_t =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"D" ~doc:"Run trials across D domains (results are identical).")
  in
  let doc = "Measure Theorem 1's O(n) convergence time from the worst start." in
  Cmd.v (Cmd.info "converge" ~doc)
    Term.(const converge $ n_t $ balls_t $ trials_t $ seed_t $ domains_t
          $ telemetry_t $ trace_ndjson_t $ trace_every_t $ chrome_trace_t)

(* cover --------------------------------------------------------------- *)

let cover n seed strategy_name =
  let strategy =
    match strategy_name with
    | "fifo" -> Token_process.Fifo
    | "lifo" -> Token_process.Lifo
    | "random" -> Token_process.Random_ball
    | _ -> assert false
  in
  let rng = rng_of_seed seed in
  let t =
    Token_process.create ~strategy ~track_cover:true ~rng
      ~init:(Config.uniform ~n) ()
  in
  (match Token_process.run_until_covered t ~max_rounds:max_int with
  | Some r ->
      let ln = Float.log (fi n) in
      Printf.printf
        "multi-token traversal on the clique, n=%d, strategy=%s\n\
         cover time        : %d rounds\n\
         n ln^2 n          : %.0f  (ratio %.3f)\n\
         single-walk nH_n  : %.0f  (slowdown %.2f)\n\
         min ball progress : %d walk steps\n"
        n strategy_name r
        (fi n *. ln *. ln)
        (fi r /. (fi n *. ln *. ln))
        (Walks.clique_single_cover_expectation n)
        (fi r /. Walks.clique_single_cover_expectation n)
        (Token_process.min_progress t)
  | None -> print_endline "cover incomplete (cap reached)")

let strategy_conv =
  let parse s =
    match s with
    | "fifo" | "lifo" | "random" -> Ok s
    | _ -> Error (`Msg "expected one of: fifo, lifo, random")
  in
  Arg.conv (parse, Format.pp_print_string)

let cover_cmd =
  let strategy_t =
    Arg.(value & opt strategy_conv "fifo"
         & info [ "strategy" ] ~docv:"S" ~doc:"Queueing strategy: fifo, lifo or random.")
  in
  let doc = "Measure the parallel cover time of the n-token traversal (Corollary 1)." in
  Cmd.v (Cmd.info "cover" ~doc) Term.(const cover $ n_t $ seed_t $ strategy_t)

(* adversary ------------------------------------------------------------ *)

let adversary n rounds seed gamma =
  let rng = rng_of_seed seed in
  let engine =
    Rbb_sim.Engines.create ~kind:Balls ~rng ~init:(Config.uniform ~n) ()
  in
  let metrics =
    Adversary.run_with_faults
      ~schedule:(Adversary.Every (gamma * n))
      ~action:(Adversary.Pile_into 0) ~rounds engine
  in
  Printf.printf
    "adversarial run: n=%d rounds=%d fault period=%dn\n\
     running max load   : %d (faults pile all balls into bin 0)\n\
     mean max load      : %.2f\n\
     final max load     : %d (threshold %d)\n\
     final is legitimate: %b\n"
    n rounds gamma
    (Metrics.running_max_load metrics)
    (Metrics.mean_max_load metrics)
    (engine.max_load ())
    (Config.legitimacy_threshold n)
    (engine.max_load () <= Config.legitimacy_threshold n)

let adversary_cmd =
  let rounds_t =
    Arg.(value & opt int 100_000 & info [ "rounds" ] ~docv:"T" ~doc:"Rounds to run.")
  in
  let gamma_t =
    Arg.(value & opt int 6 & info [ "gamma" ] ~docv:"G" ~doc:"Fault period in multiples of n (paper: gamma >= 6).")
  in
  let doc = "Run under the Section 4.1 transient-fault adversary." in
  Cmd.v (Cmd.info "adversary" ~doc)
    Term.(const adversary $ n_t $ rounds_t $ seed_t $ gamma_t)

(* recover --------------------------------------------------------------- *)

let recover n balls seed action_name target shift episodes max_recovery beta
    shards domains json_path =
  if episodes < 1 then invalid_arg "recover: --episodes must be at least 1";
  if max_recovery < 1 then
    invalid_arg "recover: --max-recovery must be at least 1";
  if shards < 1 then invalid_arg "recover: --shards must be at least 1";
  if domains < 1 then invalid_arg "recover: --domains must be at least 1";
  let balls = match balls with None -> n | Some m -> m in
  let action =
    match action_name with
    | "pile" -> Adversary.Pile_into target
    | "reshuffle" -> Adversary.Reshuffle
    | "rotate" -> Adversary.Rotate shift
    | _ -> assert false
  in
  let rng = rng_of_seed seed in
  (* Balanced start: identical to "uniform" at m = n, and the natural
     legitimate baseline for any other ball count. *)
  let init = Config.balanced ~n ~m:balls in
  (* The measurement is engine-generic; the sequential and parallel
     engines produce identical episode series from the same creation rng
     state, so the chooser goes parallel only when asked to. *)
  let r =
    Rbb_sim.Recovery.measure ~beta ~action ~episodes ~max_recovery
      (Rbb_sim.Engines.create ~shards ~domains ~kind:Balls ~rng ~init ())
  in
  Printf.printf
    "recovery after transient faults (Theorem 1 says O(n) w.h.p.)\n\
     n=%d balls=%d action=%s threshold=%d (ceil %.1f %sln n)\n"
    r.Rbb_sim.Recovery.n r.Rbb_sim.Recovery.balls r.Rbb_sim.Recovery.action
    r.Rbb_sim.Recovery.threshold beta
    (if balls <> n then "(m/n) " else "");
  List.iteri
    (fun i (e : Rbb_sim.Recovery.episode) ->
      Printf.printf "  episode %2d: spike max load %4d -> %s\n" (i + 1)
        e.spike_max_load
        (match e.recovery_rounds with
        | Some k -> Printf.sprintf "relegitimized in %d rounds (%.3f n)" k (fi k /. fi n)
        | None -> Printf.sprintf "not relegitimized within %d rounds" max_recovery))
    r.Rbb_sim.Recovery.episodes;
  let recovered =
    List.filter_map
      (fun (e : Rbb_sim.Recovery.episode) -> e.recovery_rounds)
      r.Rbb_sim.Recovery.episodes
  in
  (match recovered with
  | [] -> print_endline "  no episode relegitimized within the budget"
  | l ->
      let mean =
        fi (List.fold_left ( + ) 0 l) /. fi (List.length l)
      in
      let worst = List.fold_left Stdlib.max 0 l in
      Printf.printf
        "  mean recovery : %.1f rounds (%.3f n)\n\
        \  worst recovery: %d rounds (%.3f n)\n"
        mean (mean /. fi n) worst (fi worst /. fi n));
  match json_path with
  | None -> ()
  | Some path ->
      Rbb_sim.Fileio.write_atomic ~path (fun oc ->
          output_string oc (Rbb_sim.Recovery.to_json r);
          output_char oc '\n');
      Printf.printf "wrote %s\n" path

let recover_cmd =
  let action_conv =
    let parse s =
      match s with
      | "pile" | "reshuffle" | "rotate" -> Ok s
      | _ -> Error (`Msg "expected one of: pile, reshuffle, rotate")
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let action_t =
    Arg.(value & opt action_conv "pile"
         & info [ "action" ] ~docv:"A"
             ~doc:"Fault action: $(b,pile) (all balls into one bin), \
                   $(b,reshuffle) (throw every ball u.a.r.), or \
                   $(b,rotate) (shift every bin's content).")
  in
  let target_t =
    Arg.(value & opt int 0
         & info [ "bin" ] ~docv:"B" ~doc:"Target bin for $(b,--action pile).")
  in
  let shift_t =
    Arg.(value & opt int 1
         & info [ "shift" ] ~docv:"K" ~doc:"Shift for $(b,--action rotate).")
  in
  let episodes_t =
    Arg.(value & opt int 5
         & info [ "episodes" ] ~docv:"E" ~doc:"Fault-and-recover episodes.")
  in
  let max_recovery_t =
    Arg.(value & opt int 0
         & info [ "max-recovery" ] ~docv:"T"
             ~doc:"Round budget per episode (default 100·max(n, m): with \
                   m > n balls a pile drains at most one ball per round, \
                   so recovery needs Ω(m) rounds, not O(n)).")
  in
  let beta_t =
    Arg.(value & opt float 4.0
         & info [ "beta" ] ~docv:"B"
             ~doc:"Legitimacy threshold coefficient (max load <= ceil(B ln n)).")
  in
  let shards_t =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"K"
             ~doc:"Scheduling shards for the parallel engine (results are identical for every K).")
  in
  let domains_t =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"D"
             ~doc:"Worker domains for the parallel engine (results are identical for every D).")
  in
  let json_t =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"PATH"
             ~doc:"Write the rbb.recovery/1 JSON report to $(docv) (atomic).")
  in
  let wrap n balls seed action target shift episodes max_recovery beta shards
      domains json =
    let max_recovery =
      if max_recovery = 0 then
        100 * Stdlib.max n (Option.value ~default:n balls)
      else max_recovery
    in
    recover n balls seed action target shift episodes max_recovery beta shards
      domains json
  in
  let doc =
    "Measure rounds-to-relegitimacy after Section 4.1 transient faults \
     (Theorem 1's O(n) recovery bound)."
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(const wrap $ n_t $ balls_t $ seed_t $ action_t $ target_t $ shift_t
          $ episodes_t $ max_recovery_t $ beta_t $ shards_t $ domains_t
          $ json_t)

(* markov ---------------------------------------------------------------- *)

let markov n m =
  let chain = Rbb_markov.Chain.create ~n ~m in
  Printf.printf "exact chain: n=%d bins, m=%d balls, %d states\n" n m
    (Rbb_markov.Chain.num_states chain);
  let pi = Rbb_markov.Chain.stationary chain in
  let pmf = Rbb_markov.Chain.max_load_pmf chain pi in
  print_endline "stationary max-load distribution:";
  Array.iteri
    (fun k p -> if p > 1e-12 then Printf.printf "  P(M = %d) = %.6f\n" k p)
    pmf;
  Printf.printf "stationary E[max load] = %.6f\n"
    (Rbb_markov.Chain.expected_max_load chain pi);
  if n = 2 && m = 2 then begin
    let r = Rbb_markov.Exact.appendix_b () in
    Printf.printf
      "\nAppendix B (exact): P(X1=0)=%.4f P(X2=0)=%.4f joint=%.4f product=%.4f -> not negatively associated: %b\n"
      r.p_x1_zero r.p_x2_zero r.p_joint_zero r.product
      r.violates_negative_association
  end

let markov_cmd =
  let n_small =
    Arg.(value & opt int 4 & info [ "n"; "bins" ] ~docv:"N" ~doc:"Bins (small: the state space is C(m+n-1, n-1)).")
  in
  let m_small =
    Arg.(value & opt int 4 & info [ "m"; "balls" ] ~docv:"M" ~doc:"Balls.")
  in
  let doc = "Exact Markov-chain analysis for small systems." in
  Cmd.v (Cmd.info "markov" ~doc) Term.(const markov $ n_small $ m_small)

(* sweep ------------------------------------------------------------------ *)

let sweep n_min n_max trials seed csv_path =
  let table =
    Rbb_sim.Table.create
      ~headers:[ "n"; "threshold"; "mean running max"; "worst"; "mean rounds-to-legit" ]
  in
  let rows = ref [] in
  let n = ref n_min in
  while !n <= n_max do
    let n0 = !n in
    let maxes =
      Rbb_sim.Replicate.run ~base_seed:(Int64.of_int seed) ~trials (fun rng ->
          let p = Process.create ~rng ~init:(Config.uniform ~n:n0) () in
          let worst = ref 0 in
          for _ = 1 to 16 * n0 do
            Process.step p;
            if Process.max_load p > !worst then worst := Process.max_load p
          done;
          fi !worst)
    in
    let conv =
      Rbb_sim.Replicate.run_floats ~base_seed:(Int64.of_int (seed + 1)) ~trials
        (fun rng ->
          let p = Process.create ~rng ~init:(Config.all_in_one ~n:n0 ~m:n0 ()) () in
          match Process.run_until_legitimate p ~max_rounds:(100 * n0) with
          | Some r -> fi r
          | None -> failwith "no convergence")
    in
    let summary = Rbb_stats.Summary.of_array maxes in
    Rbb_sim.Table.add_row table
      [
        string_of_int n0;
        string_of_int (Config.legitimacy_threshold n0);
        Printf.sprintf "%.2f" summary.Rbb_stats.Summary.mean;
        Printf.sprintf "%.0f" summary.Rbb_stats.Summary.max;
        Printf.sprintf "%.1f" conv.Rbb_stats.Summary.mean;
      ];
    rows :=
      [
        string_of_int n0;
        Printf.sprintf "%.4f" summary.Rbb_stats.Summary.mean;
        Printf.sprintf "%.4f" conv.Rbb_stats.Summary.mean;
      ]
      :: !rows;
    n := 2 * n0
  done;
  Rbb_sim.Table.print ~caption:"Max-load and convergence scaling (window 16n)" table;
  match csv_path with
  | None -> ()
  | Some path ->
      Rbb_sim.Csv.write_file ~path
        ~header:[ "n"; "mean_running_max"; "mean_convergence_rounds" ]
        (List.rev !rows);
      Printf.printf "wrote %s\n" path

let sweep_cmd =
  let n_min_t =
    Arg.(value & opt int 64 & info [ "n-min" ] ~docv:"N" ~doc:"Smallest n (doubles up to n-max).")
  in
  let n_max_t =
    Arg.(value & opt int 1024 & info [ "n-max" ] ~docv:"N" ~doc:"Largest n.")
  in
  let trials_t =
    Arg.(value & opt int 5 & info [ "trials" ] ~docv:"K" ~doc:"Trials per size.")
  in
  let csv_t =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH" ~doc:"Also write the series as CSV.")
  in
  let doc = "Sweep the max-load and convergence scaling across a ladder of n." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const sweep $ n_min_t $ n_max_t $ trials_t $ seed_t $ csv_t)

(* Graph specifications ----------------------------------------------------- *)

(* "complete" | "cycle" | "torus" | "hypercube" | "star" | "grid" |
   "tree" | "barbell" | "regular:D" | "circulant:J1,J2,..." — sized to
   (roughly) n vertices. *)
let build_graph rng spec n =
  let fail msg = raise (Invalid_argument msg) in
  let side () =
    let s = int_of_float (Float.sqrt (float_of_int n)) in
    if s * s <> n then fail "torus/grid need a square n" else s
  in
  match String.split_on_char ':' spec with
  | [ "complete" ] -> Rbb_graph.Csr.complete n
  | [ "cycle" ] -> Rbb_graph.Build.cycle n
  | [ "torus" ] ->
      let s = side () in
      Rbb_graph.Build.torus2d ~rows:s ~cols:s
  | [ "grid" ] ->
      let s = side () in
      Rbb_graph.Build.grid2d ~rows:s ~cols:s
  | [ "hypercube" ] ->
      let d = int_of_float (Float.round (Float.log (float_of_int n) /. Float.log 2.)) in
      if 1 lsl d <> n then fail "hypercube needs n = 2^d"
      else Rbb_graph.Build.hypercube d
  | [ "star" ] -> Rbb_graph.Build.star n
  | [ "tree" ] -> Rbb_graph.Build.binary_tree n
  | [ "barbell" ] ->
      if n mod 2 <> 0 then fail "barbell needs even n"
      else Rbb_graph.Build.barbell (n / 2)
  | [ "regular"; d ] -> (
      match int_of_string_opt d with
      | Some d -> Rbb_graph.Build.random_regular rng ~n ~d
      | None -> fail "regular:D needs an integer degree")
  | [ "circulant"; jumps ] ->
      let jumps =
        List.map
          (fun s ->
            match int_of_string_opt (String.trim s) with
            | Some j -> j
            | None -> fail "circulant:J1,J2 needs integer jumps")
          (String.split_on_char ',' jumps)
      in
      Rbb_graph.Build.circulant ~n ~jumps
  | _ ->
      fail
        (Printf.sprintf
           "unknown graph %S (try complete, cycle, torus, grid, hypercube, star, tree, barbell, regular:D, circulant:J1,J2)"
           spec)

let graph_t =
  let doc =
    "Topology: complete, cycle, torus, grid, hypercube, star, tree, barbell, \
     regular:D or circulant:J1,J2,..."
  in
  Arg.(value & opt string "complete" & info [ "graph" ] ~docv:"G" ~doc)

(* rumor --------------------------------------------------------------------- *)

let rumor n seed mode_name graph_spec =
  let mode =
    match mode_name with
    | "push" -> Rumor.Push
    | "pull" -> Rumor.Pull
    | "push-pull" -> Rumor.Push_pull
    | _ -> assert false
  in
  let rng = rng_of_seed seed in
  let graph = build_graph rng graph_spec n in
  let r = Rumor.create ~graph ~mode ~rng ~n ~source:0 () in
  let series = ref [] in
  (match
     let rec go k =
       if Rumor.all_informed r then Some (Rumor.round r)
       else if k > 1_000_000 then None
       else begin
         Rumor.step r;
         series := fi (Rumor.informed r) :: !series;
         go (k + 1)
       end
     in
     go 0
   with
  | Some t ->
      Printf.printf "rumor (%s) informed all %d nodes in %d rounds" mode_name n t;
      if graph_spec = "complete" then
        Printf.printf " (log2 n + ln n = %.1f)" (Rumor.push_time_estimate n);
      print_newline ();
      print_endline "informed nodes per round:";
      print_string
        (Rbb_sim.Plot.line_plot ~rows:10 ~cols:60 ~x_label:"round" ~y_label:"informed"
           (Array.of_list (List.rev !series)))
  | None -> print_endline "rumor did not spread (disconnected graph?)")

let rumor_mode_conv =
  let parse s =
    match s with
    | "push" | "pull" | "push-pull" -> Ok s
    | _ -> Error (`Msg "expected push, pull or push-pull")
  in
  Arg.conv (parse, Format.pp_print_string)

let rumor_cmd =
  let mode_t =
    Arg.(value & opt rumor_mode_conv "push" & info [ "mode" ] ~docv:"M" ~doc:"push, pull or push-pull.")
  in
  let doc = "Spread a rumor in the random phone-call model (gossip baseline)." in
  Cmd.v (Cmd.info "rumor" ~doc) Term.(const rumor $ n_t $ seed_t $ mode_t $ graph_t)

(* ij ------------------------------------------------------------------------ *)

let ij n seed graph_spec =
  let rng = rng_of_seed seed in
  let graph = build_graph rng graph_spec n in
  let t = Israeli_jalfon.create_full ~graph ~rng ~n () in
  let series = ref [ fi n ] in
  let rec go () =
    if Israeli_jalfon.token_count t <= 1 then Israeli_jalfon.round t
    else begin
      Israeli_jalfon.step t;
      series := fi (Israeli_jalfon.token_count t) :: !series;
      go ()
    end
  in
  let merged = go () in
  Printf.printf
    "Israeli-Jalfon on %s (n = %d): single token after %d rounds (%.2f n)\n"
    graph_spec n merged (fi merged /. fi n);
  print_endline "token count per round:";
  print_string
    (Rbb_sim.Plot.line_plot ~rows:10 ~cols:60 ~x_label:"round" ~y_label:"tokens"
       (Array.of_list (List.rev !series)))

let ij_cmd =
  let doc = "Run Israeli-Jalfon token management until one token survives." in
  Cmd.v (Cmd.info "ij" ~doc) Term.(const ij $ n_t $ seed_t $ graph_t)

(* profile ------------------------------------------------------------------- *)

let profile n rounds seed init_name =
  let rng = rng_of_seed seed in
  let init_name = init_default init_name ~n ~m:n in
  let init = make_init init_name rng ~n ~m:n in
  let p = Process.create ~rng ~init () in
  let trace = Trace.create ~capacity:4096 () in
  let metrics = Metrics.create ~n in
  for _ = 1 to rounds do
    Process.step p;
    Trace.record_process trace p;
    Metrics.observe_process metrics p
  done;
  Printf.printf "max load M(t) over %d rounds (n = %d, init = %s):\n" rounds n
    init_name;
  print_string
    (Rbb_sim.Plot.line_plot ~rows:12 ~cols:64 ~x_label:"round (downsampled)"
       ~y_label:"M(t)"
       (Trace.max_load_series trace));
  let series = Trace.max_load_series trace in
  let condensed =
    (* Cap the sparkline at ~100 glyphs. *)
    let len = Array.length series in
    if len <= 100 then series
    else
      Array.init 100 (fun c ->
          let lo = c * len / 100 and hi = Stdlib.max ((c * len / 100) + 1) ((c + 1) * len / 100) in
          let acc = ref 0. in
          for i = lo to hi - 1 do
            acc := !acc +. series.(i)
          done;
          !acc /. float_of_int (hi - lo))
  in
  Printf.printf "\nsparkline: %s\n\n" (Rbb_sim.Plot.sparkline condensed);
  print_endline "distribution of M(t) over the window:";
  print_string
    (Rbb_sim.Plot.histogram_of_int_hist ~width:50 (Metrics.max_load_histogram metrics));
  Printf.printf "\nrunning max %d, threshold 4 ln n = %d, min empty fraction %.3f\n"
    (Metrics.running_max_load metrics)
    (Config.legitimacy_threshold n)
    (Metrics.min_empty_fraction metrics)

let profile_cmd =
  let rounds_t =
    Arg.(value & opt int 20_000 & info [ "rounds" ] ~docv:"T" ~doc:"Rounds to run.")
  in
  let doc = "Run the process and draw terminal plots of the max-load profile." in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const profile $ n_t $ rounds_t $ seed_t $ init_t)

(* spectral ------------------------------------------------------------------ *)

let spectral n seed graph_spec =
  let rng = rng_of_seed seed in
  let graph = build_graph rng graph_spec n in
  let l2 = Rbb_graph.Spectral.lambda2_lazy_walk graph in
  Printf.printf
    "%s on %d vertices (%d edges)\n\
     lambda2 (lazy walk)   : %.6f\n\
     spectral gap          : %.6f\n\
     relaxation time       : %.1f\n\
     regular               : %s\n\
     connected             : %b\n"
    graph_spec (Rbb_graph.Csr.n graph)
    (Rbb_graph.Csr.edge_count graph)
    l2 (1. -. l2)
    (Rbb_graph.Spectral.relaxation_time graph)
    (match Rbb_graph.Check.is_regular graph with
    | Some d -> Printf.sprintf "yes (d = %d)" d
    | None -> "no")
    (Rbb_graph.Check.is_connected graph)

let spectral_cmd =
  let doc = "Spectral analysis of a topology's lazy random walk." in
  Cmd.v (Cmd.info "spectral" ~doc) Term.(const spectral $ n_t $ seed_t $ graph_t)

(* trace -------------------------------------------------------------------- *)

let trace n rounds seed init_name csv_path =
  let rng = rng_of_seed seed in
  let init_name = init_default init_name ~n ~m:n in
  let init = make_init init_name rng ~n ~m:n in
  let p = Process.create ~rng ~init () in
  let trace = Trace.create ~capacity:8192 () in
  for _ = 1 to rounds do
    Process.step p;
    Trace.record_process trace p
      ~extra:(Potential.log_exponential ~alpha:1.0 (Process.config p))
  done;
  Rbb_sim.Csv.write_file ~path:csv_path ~header:Trace.csv_header (Trace.to_rows trace);
  let series = Trace.max_load_series trace in
  let geweke = Rbb_stats.Geweke.diagnose series in
  Printf.printf
    "wrote %d samples (stride %d) to %s\n\
     columns: round, max_load, empty_bins, extra = ln Phi_1 (exp. potential)\n\
     M(t) series: mean %.3f, integrated autocorrelation time %.1f, ESS %.0f\n\
     Geweke stationarity: z = %.2f (%s); suggested warm-up: %d samples\n"
    (Trace.length trace) (Trace.stride trace) csv_path
    (Array.fold_left ( +. ) 0. series /. float_of_int (Array.length series))
    (Rbb_stats.Autocorr.integrated_time series)
    (Rbb_stats.Autocorr.effective_sample_size series)
    geweke.Rbb_stats.Geweke.z_score
    (if geweke.Rbb_stats.Geweke.stationary then "stationary" else "still in transient")
    (Rbb_stats.Geweke.warmup_estimate series)

let trace_cmd =
  let rounds_t =
    Arg.(value & opt int 100_000 & info [ "rounds" ] ~docv:"T" ~doc:"Rounds to run.")
  in
  let csv_t =
    Arg.(value & opt string "trace.csv"
         & info [ "csv" ] ~docv:"PATH" ~doc:"Output CSV path.")
  in
  let doc = "Record a downsampled time series (max load, empty bins, potential) to CSV." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const trace $ n_t $ rounds_t $ seed_t $ init_t $ csv_t)

(* trace-report -------------------------------------------------------------- *)

let trace_report path no_plot follow =
  let r =
    if follow then begin
      (* One live summary line per poll that delivered lines; the
         rounds/s rate is the only wall-clock-dependent part. *)
      let last = ref (Unix.gettimeofday (), 0) in
      let live l =
        let now = Unix.gettimeofday () in
        let t0, r0 = !last in
        let dt = now -. t0 in
        let rate =
          if dt > 0. then
            fi (l.Rbb_sim.Trace_report.live_rounds - r0) /. dt
          else 0.
        in
        last := (now, l.Rbb_sim.Trace_report.live_rounds);
        print_endline (Rbb_sim.Trace_report.live_line ~rate l);
        flush stdout
      in
      Rbb_sim.Trace_report.follow_file ~live path
    end
    else Rbb_sim.Trace_report.read_file path
  in
  print_string (Rbb_sim.Trace_report.render ~plot:(not no_plot) r)

let trace_report_cmd =
  let path_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"NDJSON trace file (schema rbb.trace/1).")
  in
  let no_plot_t =
    Arg.(value & flag & info [ "no-plot" ] ~doc:"Skip the max-load plot.")
  in
  let follow_t =
    Arg.(
      value & flag
      & info [ "follow" ]
          ~doc:
            "Fold the trace with torn-tail tolerant incremental reads \
             until its writer goes idle, then report.  Traces written by \
             $(b,rbb simulate) appear only when the run ends.")
  in
  let doc =
    "Summarise a recorded NDJSON trace: observable extrema, legitimacy \
     dwell/excursion statistics, convergence rounds, Lemma 2 quarter-empty \
     violations, span counts, and a max-load plot."
  in
  Cmd.v (Cmd.info "trace-report" ~doc)
    Term.(const trace_report $ path_t $ no_plot_t $ follow_t)

(* serve / submit / slam ----------------------------------------------------- *)

let socket_t =
  let doc = "Unix-domain socket path of the daemon." in
  Arg.(
    value
    & opt string "rbb-serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc)

let job_engine_t =
  let doc = "Job engine: $(b,balls) (per-ball) or $(b,counts) (count-based)." in
  Arg.(
    value
    & opt engine_conv Engine.Balls
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let serve socket state_dir workers queue_depth checkpoint_every max_frame
    failpoint_specs =
  Rbb_serve.Daemon.run
    {
      Rbb_serve.Daemon.socket;
      state_dir;
      workers;
      queue_depth;
      checkpoint_every;
      max_frame;
      log = Some stdout;
      io_failpoints = failpoints_of failpoint_specs;
    }

let serve_cmd =
  let state_dir_t =
    let doc =
      "State directory: job specs, checkpoints, results, the event log and \
       the daemon's exclusive lock live here.  A restarted daemon resumes \
       every unfinished job it finds."
    in
    Arg.(
      value & opt string "rbb-serve.state"
      & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let workers_t =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"K" ~doc:"Worker domains.")
  in
  let queue_depth_t =
    Arg.(
      value & opt int 16
      & info [ "queue-depth" ] ~docv:"D"
          ~doc:"Admission bound: submits beyond $(docv) queued jobs are \
                rejected with a retry-after hint.")
  in
  let checkpoint_every_t =
    Arg.(
      value & opt int 256
      & info [ "checkpoint-every" ] ~docv:"C"
          ~doc:"Rounds between checkpoint publications per running job.")
  in
  let max_frame_t =
    Arg.(
      value
      & opt int Rbb_serve.Protocol.default_max_frame
      & info [ "max-frame" ] ~docv:"B" ~doc:"Protocol frame payload limit.")
  in
  let serve_failpoint_t =
    Arg.(
      value & opt_all string []
      & info [ "failpoint" ] ~docv:"SPEC"
          ~doc:
            "Arm an I/O failpoint in the daemon's storage layer \
             (repeatable; chaos testing): $(b,NAME@round=K,fails=F) or \
             $(b,NAME@p=P,seed=S) with NAME one of $(b,io.write), \
             $(b,io.fsync), $(b,io.rename), $(b,io.lock).  The round \
             coordinate counts faultable operations since startup.")
  in
  let doc =
    "Run the crash-safe simulation daemon: accepts rbb.job/1 jobs over a \
     Unix-domain socket, checkpoints every running job, streams lifecycle \
     events to subscribers, and resumes unfinished jobs after a crash."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket_t $ state_dir_t $ workers_t $ queue_depth_t
      $ checkpoint_every_t $ max_frame_t $ serve_failpoint_t)

let submit socket n balls rounds seed init_name engine deadline wait status_of
    result_of stats metrics shutdown =
  (* A metrics exposition can exceed the default frame limit, so the
     scraping path connects with a roomier one. *)
  let max_frame =
    if metrics then 1 lsl 22 else Rbb_serve.Protocol.default_max_frame
  in
  let client = Rbb_serve.Client.connect ~socket ~max_frame () in
  Fun.protect
    ~finally:(fun () -> Rbb_serve.Client.close client)
    (fun () ->
      match (status_of, result_of, stats, metrics, shutdown) with
      | Some id, _, _, _, _ -> (
          match Rbb_serve.Client.request client (Rbb_serve.Protocol.Status id) with
          | Rbb_serve.Protocol.Job_status { state; round; _ } ->
              Printf.printf "%s %s round=%d\n" id state round
          | Rbb_serve.Protocol.Error_reply { code; message } ->
              failwith (Printf.sprintf "%s (%s)" message code)
          | _ -> failwith "unexpected response")
      | None, Some id, _, _, _ ->
          print_endline (Rbb_serve.Client.await_result client ~id)
      | None, None, true, _, _ ->
          print_endline (Rbb_sim.Jsonl.obj (Rbb_serve.Client.stats client))
      | None, None, false, true, _ ->
          print_string (Rbb_serve.Client.metrics client)
      | None, None, false, false, true ->
          Rbb_serve.Client.shutdown client;
          print_endline "shutdown requested"
      | None, None, false, false, false -> (
          let m = Option.value ~default:n balls in
          let spec =
            {
              Rbb_serve.Protocol.n;
              m;
              rounds;
              seed;
              init = init_default init_name ~n ~m;
              engine;
              deadline_s = Option.value ~default:infinity deadline;
            }
          in
          match Rbb_serve.Client.submit client spec with
          | `Rejected retry_after_ms ->
              Printf.printf "rejected retry_after_ms=%d\n" retry_after_ms
          | `Accepted id ->
              Printf.printf "accepted %s\n" id;
              if wait then
                print_endline (Rbb_serve.Client.await_result client ~id)))

let submit_cmd =
  let rounds_t =
    Arg.(
      value & opt int 1000
      & info [ "rounds" ] ~docv:"T" ~doc:"Rounds the job runs.")
  in
  let wait_t =
    Arg.(
      value & flag
      & info [ "wait" ]
          ~doc:"Block until the job finishes and print its result document.")
  in
  let deadline_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"S"
          ~doc:
            "Wall-clock budget in seconds, measured from dispatch to a \
             worker; the daemon's watchdog fails the job durably once it \
             expires.  Default: no deadline.")
  in
  let status_t =
    Arg.(
      value & opt (some string) None
      & info [ "status" ] ~docv:"ID" ~doc:"Query a job's status instead.")
  in
  let result_t =
    Arg.(
      value & opt (some string) None
      & info [ "result" ] ~docv:"ID"
          ~doc:"Fetch a job's result document instead (waits for it).")
  in
  let stats_t =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print the daemon's measured statistics instead.")
  in
  let metrics_t =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Scrape the daemon's Prometheus text exposition instead.")
  in
  let shutdown_t =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the daemon to drain and exit instead.")
  in
  let doc =
    "Submit a job to a running $(b,rbb serve) daemon (or query it: \
     $(b,--status), $(b,--result), $(b,--stats), $(b,--metrics), \
     $(b,--shutdown))."
  in
  Cmd.v (Cmd.info "submit" ~doc)
    Term.(
      const submit $ socket_t $ n_t $ balls_t $ rounds_t $ seed_t $ init_t
      $ job_engine_t $ deadline_t $ wait_t $ status_t $ result_t $ stats_t
      $ metrics_t $ shutdown_t)

let slam socket jobs rate rho calibrate n rounds seed init_name engine workers
    json_path =
  let r =
    Rbb_serve.Slam.run
      {
        Rbb_serve.Slam.socket;
        jobs;
        rate;
        rho_target = rho;
        calibrate;
        spec =
          {
            Rbb_serve.Protocol.n;
            m = n;
            rounds;
            seed;
            init = init_default init_name ~n ~m:n;
            engine;
            deadline_s = infinity;
          };
        arrival_seed = seed;
        workers;
      }
  in
  Printf.printf
    "offered %d jobs: %d accepted, %d rejected, %d completed, %d failed\n\
     window               : %.2f s (throughput %.2f jobs/s)\n\
     measured rates       : lambda = %.3f /s, mu = %.3f /s, rho = %.3f\n\
     measured waiting     : mean %.4f s (sojourn p50 %.4f s, p99 %.4f s)\n\
     M/M/%d predicted wait : %.4f s (relative error %.2f)\n"
    r.Rbb_serve.Slam.offered r.Rbb_serve.Slam.accepted
    r.Rbb_serve.Slam.rejected r.Rbb_serve.Slam.completed
    r.Rbb_serve.Slam.failed r.Rbb_serve.Slam.duration_s
    r.Rbb_serve.Slam.throughput_per_s r.Rbb_serve.Slam.lambda_hat_per_s
    r.Rbb_serve.Slam.mu_hat_per_s r.Rbb_serve.Slam.utilization
    r.Rbb_serve.Slam.wait_mean_s r.Rbb_serve.Slam.sojourn_p50_s
    r.Rbb_serve.Slam.sojourn_p99_s workers r.Rbb_serve.Slam.mmc_wait_s
    r.Rbb_serve.Slam.wait_rel_error;
  match json_path with
  | None -> ()
  | Some path ->
      Rbb_sim.Fileio.write_atomic ~path (fun oc ->
          output_string oc (Rbb_sim.Jsonl.obj (Rbb_serve.Slam.to_fields r));
          output_char oc '\n');
      Printf.printf "wrote %s\n" path

let slam_cmd =
  let jobs_t =
    Arg.(
      value & opt int 50
      & info [ "jobs" ] ~docv:"J" ~doc:"Poisson arrivals to offer.")
  in
  let rate_t =
    Arg.(
      value & opt float 0.
      & info [ "rate" ] ~docv:"L"
          ~doc:"Target arrival rate, jobs/s (overrides $(b,--rho)).")
  in
  let rho_t =
    Arg.(
      value & opt float 0.6
      & info [ "rho" ] ~docv:"R"
          ~doc:"Target utilization; the rate is derived from calibrated \
                service times.")
  in
  let calibrate_t =
    Arg.(
      value & opt int 3
      & info [ "calibrate" ] ~docv:"K"
          ~doc:"Sequential calibration jobs to estimate service time.")
  in
  let rounds_t =
    Arg.(
      value & opt int 1000
      & info [ "rounds" ] ~docv:"T" ~doc:"Rounds per job.")
  in
  let workers_t =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"K"
          ~doc:"The daemon's worker count (the M/M/c model's c).")
  in
  let json_t =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Write the measurements as JSON.")
  in
  let doc =
    "Slam a running daemon with open-loop Poisson job arrivals and compare \
     the measured waiting time against the M/M/c prediction at the measured \
     arrival and service rates."
  in
  Cmd.v (Cmd.info "slam" ~doc)
    Term.(
      const slam $ socket_t $ jobs_t $ rate_t $ rho_t $ calibrate_t $ n_t
      $ rounds_t $ seed_t $ init_t $ job_engine_t $ workers_t $ json_t)

(* chaos --------------------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let chaos dir cycles jobs rounds workers seed fault_p min_faults
    recovery_bound json_path keep =
  let dir =
    match dir with
    | Some d -> d
    | None ->
        let d = Filename.temp_file "rbb_chaos" "" in
        Sys.remove d;
        Unix.mkdir d 0o755;
        d
  in
  let cfg =
    {
      (Rbb_serve.Chaos.default_config ~dir) with
      Rbb_serve.Chaos.cycles;
      max_cycles = max (3 * cycles) 12;
      jobs_per_cycle = jobs;
      rounds;
      workers;
      seed;
      io_fault_p = fault_p;
      min_faults;
      recovery_bound_s = recovery_bound;
      log = Some stdout;
    }
  in
  let r = Rbb_serve.Chaos.run cfg in
  Printf.printf
    "chaos   : %d cycle(s): %d kill(s), %d corruption(s), %d injected I/O \
     fault(s) — %d fault(s) total\n\
     jobs    : %d acked = %d done + %d durably failed + %d LOST\n\
     identity: %d result(s) checked, %d violation(s)\n\
     recovery: %d restart(s), mean %.3f s, p99 %.3f s (bound %.1f s: %s)\n\
     evidence: %d quarantined file(s) under %s\n"
    r.Rbb_serve.Chaos.cycles_run r.Rbb_serve.Chaos.kills
    r.Rbb_serve.Chaos.corruptions r.Rbb_serve.Chaos.io_faults
    r.Rbb_serve.Chaos.faults_total r.Rbb_serve.Chaos.jobs_acked
    r.Rbb_serve.Chaos.jobs_done r.Rbb_serve.Chaos.jobs_failed
    r.Rbb_serve.Chaos.acked_jobs_lost r.Rbb_serve.Chaos.identity_checked
    r.Rbb_serve.Chaos.identity_violations
    (Array.length r.Rbb_serve.Chaos.recovery_s)
    (Array.fold_left ( +. ) 0. r.Rbb_serve.Chaos.recovery_s
     /. float_of_int (max 1 (Array.length r.Rbb_serve.Chaos.recovery_s)))
    (Rbb_stats.Quantile.quantile r.Rbb_serve.Chaos.recovery_s 0.99)
    r.Rbb_serve.Chaos.recovery_bound_s
    (if r.Rbb_serve.Chaos.recovery_ok then "ok" else "BLOWN")
    r.Rbb_serve.Chaos.quarantined_files
    (Filename.concat (Filename.concat dir "state") "quarantine");
  (match json_path with
  | None -> ()
  | Some path ->
      Rbb_sim.Fileio.write_atomic ~path (fun oc ->
          output_string oc (Rbb_sim.Jsonl.obj (Rbb_serve.Chaos.to_fields r));
          output_char oc '\n');
      Printf.printf "wrote %s\n" path);
  if not keep then (try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ());
  if not (Rbb_serve.Chaos.passed r) then exit 1

let chaos_cmd =
  let dir_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Scratch directory (default: a fresh temp dir).")
  in
  let cycles_t =
    Arg.(
      value & opt int 4
      & info [ "cycles" ] ~docv:"C" ~doc:"Kill/corrupt/restart cycles.")
  in
  let jobs_t =
    Arg.(
      value & opt int 6
      & info [ "jobs" ] ~docv:"J" ~doc:"Jobs submitted per cycle.")
  in
  let rounds_t =
    Arg.(
      value & opt int 4000
      & info [ "rounds" ] ~docv:"T" ~doc:"Rounds per job.")
  in
  let workers_t =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"K" ~doc:"Daemon worker domains.")
  in
  let seed_chaos_t =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"S"
          ~doc:"Campaign seed: job specs, kill delays, corruption targets \
                and failpoint seeds all derive from it.")
  in
  let fault_p_t =
    Arg.(
      value & opt float 0.02
      & info [ "fault-p" ] ~docv:"P"
          ~doc:"Per-operation probability of each injected io.* fault.")
  in
  let min_faults_t =
    Arg.(
      value & opt int 0
      & info [ "min-faults" ] ~docv:"F"
          ~doc:"Keep cycling (up to 3x $(b,--cycles), at least 12) until \
                this many faults have landed.")
  in
  let recovery_bound_t =
    Arg.(
      value & opt float 30.
      & info [ "recovery-bound" ] ~docv:"S"
          ~doc:"Hard bound on every restart-to-ping recovery.")
  in
  let json_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write the campaign record (schema rbb.bench-chaos/1) here.")
  in
  let keep_t =
    Arg.(
      value & flag
      & info [ "keep" ]
          ~doc:"Keep the scratch directory (state, quarantine evidence) \
                instead of deleting it.")
  in
  let doc =
    "Run a chaos campaign against the serve daemon: seeded schedules of \
     kill -9, checkpoint/spec bit-flips and truncations, and injected I/O \
     faults under closed-loop load — then audit the durable record: no \
     acknowledged job lost, every result byte-identical to a clean re-run, \
     recovery bounded.  Exits nonzero if any invariant broke."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const chaos $ dir_t $ cycles_t $ jobs_t $ rounds_t $ workers_t
      $ seed_chaos_t $ fault_p_t $ min_faults_t $ recovery_bound_t $ json_t
      $ keep_t)

(* top ----------------------------------------------------------------------- *)

let top socket state_dir interval frames once =
  if interval <= 0. then invalid_arg "top: --interval must be positive";
  if frames < 0 then invalid_arg "top: --frames must be nonnegative";
  Rbb_serve.Top.run ?state_dir ~interval_s:interval ~frames ~once ~socket ()

let top_cmd =
  let state_dir_t =
    let doc =
      "The daemon's state directory; enables the per-job progress table \
       (tails its events.ndjson)."
    in
    Arg.(
      value & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let interval_t =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"S" ~doc:"Seconds between frames.")
  in
  let frames_t =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"K"
          ~doc:"Stop after $(docv) frames (0 = run until interrupted).")
  in
  let once_t =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print a single frame without clearing the screen and exit \
                (the scriptable mode).")
  in
  let doc =
    "Live dashboard over a running $(b,rbb serve) daemon: queue depth, \
     estimated load, throughput, job sojourn quantiles from the scraped \
     metrics next to the M/M/c predicted wait, and per-job progress."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      const top $ socket_t $ state_dir_t $ interval_t $ frames_t $ once_t)

(* mixing -------------------------------------------------------------------- *)

let mixing n m epsilon =
  let chain = Rbb_markov.Chain.create ~n ~m in
  let pi = Rbb_markov.Chain.stationary chain in
  Printf.printf "exact chain n=%d m=%d (%d states), stationary E[M] = %.4f\n" n m
    (Rbb_markov.Chain.num_states chain)
    (Rbb_markov.Chain.expected_max_load chain pi);
  let worst_t, worst_cfg = Rbb_markov.Mixing.worst_init_mixing_time ~epsilon chain ~pi in
  Printf.printf "worst-start mixing time (TV < %.2f): %d rounds, from [%s]\n" epsilon
    worst_t
    (String.concat "; " (Array.to_list (Array.map string_of_int worst_cfg)));
  let pile = Array.make n 0 in
  pile.(0) <- m;
  let curve = Rbb_markov.Mixing.tv_curve chain ~init:pile ~rounds:(4 * n) ~pi in
  print_endline "TV from the one-pile start:";
  Array.iteri
    (fun t d -> if t <= 10 || t mod n = 0 then Printf.printf "  t = %3d: %.6f\n" t d)
    curve

let mixing_cmd =
  let n_small =
    Arg.(value & opt int 4 & info [ "n"; "bins" ] ~docv:"N" ~doc:"Bins (small).")
  in
  let m_small =
    Arg.(value & opt int 4 & info [ "m"; "balls" ] ~docv:"M" ~doc:"Balls.")
  in
  let eps_t =
    Arg.(value & opt float 0.25 & info [ "epsilon" ] ~docv:"E" ~doc:"Mixing threshold.")
  in
  let doc = "Exact mixing-time analysis of the small chain." in
  Cmd.v (Cmd.info "mixing" ~doc) Term.(const mixing $ n_small $ m_small $ eps_t)

(* main ------------------------------------------------------------------- *)

let () =
  let doc = "self-stabilizing repeated balls-into-bins: simulation and analysis" in
  let info = Cmd.info "rbb" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let group =
    Cmd.group ~default info
      [
        simulate_cmd; tetris_cmd; converge_cmd; cover_cmd; adversary_cmd;
        recover_cmd; markov_cmd; sweep_cmd; trace_cmd; trace_report_cmd;
        mixing_cmd; rumor_cmd; ij_cmd; profile_cmd; spectral_cmd;
        serve_cmd; submit_cmd; slam_cmd; top_cmd; chaos_cmd;
      ]
  in
  match Cmd.eval_value ~catch:false group with
  | Ok (`Ok () | `Help | `Version) -> exit 0
  | Error `Parse -> exit 124
  | Error (`Term | `Exn) -> exit 125
  | exception (Invalid_argument msg | Failure msg) ->
      Printf.eprintf "rbb: error: %s\n" msg;
      exit 2

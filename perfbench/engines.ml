(* The simulation layers, measured from outside: the counts engine
   (Counts_process), its 2-domain twin (Sharded_counts), the per-ball
   engine (Process), checkpoint save and resume (Checkpoint, Integrity,
   Fileio) and convergence from a pile.  Untraced runs time public calls
   only; traced runs also read the phase timers the engines already
   feed to a Telemetry sink.

   The work is cut into interleaved chunks — some counts rounds, as
   many 2-domain rounds, some per-ball rounds, now and then a checkpoint
   cycle or a convergence — so that every metric samples the whole run.
   Every chunk first rewinds the three engines to their state after
   warm-up, so every chunk replays the same rounds: the same work, at
   thirty points spread over the run.  From a pile a round costs more
   as the pile spreads; without the rewind every low sample would come
   from the first chunk, and so from whatever speed the box had then. *)

open Measure
module Rng = Rbb_prng.Rng
module Config = Rbb_core.Config
module Counts = Rbb_core.Counts_process
module Process = Rbb_core.Process
module Sharded_counts = Rbb_sim.Sharded_counts
module Telemetry = Rbb_sim.Telemetry
module Checkpoint = Rbb_sim.Checkpoint

type start = Uniform | Pile

let config start n =
  match start with
  | Uniform -> Config.uniform ~n
  | Pile -> Config.all_in_one ~n ~m:n ()

type sizes = {
  counts_n : int;
  counts_start : start;
  counts_warmup : int;
  counts_rounds : int;  (** timed rounds of each counts engine per chunk *)
  d2_call : int;  (** rounds per 2-domain run call *)
  balls_n : int;
  balls_start : start;
  balls_warmup : int;
  balls_rounds : int;  (** timed per-ball rounds per chunk *)
  saves : int;  (** checkpoint cycles: capture + save, load + restore *)
  converge_n : int;
}

type engines = {
  mutable counts : Counts.t;
  mutable sharded : Sharded_counts.t;
  mutable balls : Process.t;
  counts0 : Checkpoint.snapshot;  (** the engines after warm-up *)
  sharded0 : Checkpoint.snapshot;
  balls0 : Checkpoint.snapshot;
  tel : Telemetry.t;  (** {!Telemetry.noop} unless traced *)
}

(* Both counts engines start from the same rng state, so their
   trajectories must stay bit-identical.  Warm-up is untimed. *)
let setup ~seed ~trace s =
  let tel = if trace then Telemetry.create () else Telemetry.noop in
  let init = config s.counts_start s.counts_n in
  let counts = Counts.create ~rng:(Rng.create ~seed ()) ~init () in
  let sharded =
    Sharded_counts.create ~telemetry:tel ~domains:2 ~rng:(Rng.create ~seed ())
      ~init ()
  in
  Counts.run counts ~rounds:s.counts_warmup;
  Sharded_counts.run sharded ~rounds:s.counts_warmup;
  let balls =
    Process.create
      ~rng:(Rng.create ~seed:(Int64.succ seed) ())
      ~init:(config s.balls_start s.balls_n)
      ()
  in
  Process.run balls ~rounds:s.balls_warmup;
  {
    counts;
    sharded;
    balls;
    counts0 = Checkpoint.capture_counts counts;
    sharded0 = Checkpoint.capture_sharded_counts sharded;
    balls0 = Checkpoint.capture_process balls;
    tel;
  }

(* Back to the state after warm-up; restores consume no randomness, so
   the rounds that follow are the same every time.  The old engines'
   garbage is collected here, not during the timed rounds. *)
let rewind e =
  e.counts <- Checkpoint.to_counts e.counts0;
  e.sharded <- Checkpoint.to_sharded_counts ~telemetry:e.tel ~domains:2 e.sharded0;
  e.balls <- Checkpoint.to_process e.balls0;
  Gc.full_major ()

(* Events of chunk [k] when [total] events spread evenly over [chunks]. *)
let share ~total ~chunks k = ((k + 1) * total / chunks) - (k * total / chunks)

(* Same round and same loads, compared bin by bin without allocating. *)
let same_state ~n ~round_a ~round_b load_a load_b =
  round_a = round_b
  &&
  let rec go u = u = n || (load_a u = load_b u && go (u + 1)) in
  go 0

let same_counts a b =
  same_state ~n:(Counts.n a) ~round_a:(Counts.round a) ~round_b:(Counts.round b)
    (Counts.load a) (Counts.load b)

let conserved config n = Config.balls config = n

(* Theorem 1's worst case: all n balls in one bin, run to legitimacy.
   The budget is about five times what legitimacy takes (1.65 n rounds). *)
let converge ~n seed =
  let c =
    Counts.create ~rng:(Rng.create ~seed ()) ~init:(Config.all_in_one ~n ~m:n ()) ()
  in
  let r, ms = timed (fun () -> Counts.run_until_legitimate c ~max_rounds:(8 * n)) in
  gate "converged engine conserves balls" (conserved (Counts.config c) n);
  (r, ms)

let chunks = 30

let measure ~dir ~trace ~converge_seeds s e =
  let probe = Telemetry.probe e.tel in
  let timers0 = Telemetry.timers e.tel in
  let plain = Chunked.create () and probed = Chunked.create () in
  let sharded = Samples.create () and balls = Chunked.create () in
  let empty = ref 0. and counts_done = ref 0 in
  let capture = Samples.create () and save = Samples.create () in
  let save_total = Samples.create () in
  let load = Samples.create () and restore = Samples.create () in
  let resume_total = Samples.create () in
  let resumed = ref None and storage_failed = ref 0 in
  let replayed = ref None in
  let converge_s = Samples.create () and converge_rounds = Samples.create () in
  let converge_failed = ref 0 in
  let path = Filename.concat dir "state.ckpt" in
  (* Traced runs alternate blocks of 8 probed and plain counts rounds,
     so the probe's cost is measured on the same state: trace_overhead. *)
  let counts_round () =
    let traced = trace && !counts_done / 8 mod 2 = 1 in
    let ms =
      time_ms (fun () ->
          if traced then Counts.run ~probe e.counts ~rounds:1
          else Counts.step e.counts)
    in
    Chunked.add (if traced then probed else plain) ms;
    incr counts_done;
    empty :=
      !empty +. (float_of_int (Counts.empty_bins e.counts) /. float_of_int s.counts_n)
  in
  (* One run call per [d2_call] rounds: a 2-domain run call spawns its
     domains, and a call of a few small rounds would time mostly that.
     A call is fast only while both domains have a core, so the figure
     is the fastest call rather than a chunk's median. *)
  let sharded_rounds () =
    let left = ref s.counts_rounds in
    while !left > 0 do
      let r = min s.d2_call !left in
      Samples.add sharded
        (time_ms (fun () -> Sharded_counts.run e.sharded ~rounds:r) /. float_of_int r);
      left := !left - r
    done
  in
  let balls_round () =
    Chunked.add balls
      (time_ms (fun () ->
           if trace then Process.run ~probe e.balls ~rounds:1
           else Process.step e.balls))
  in
  (* The counts engine's state, saved and resumed: the restart cost of
     a crashed run. *)
  let checkpoint_cycle () =
    (* A cycle allocates several copies of the state; starting each
       one from a collected heap keeps the major collector's phase, and
       so the share of its work a save happens to pay, the same every
       time. *)
    Gc.full_major ();
    let snap, c_ms = timed (fun () -> Checkpoint.capture_counts e.counts) in
    let s_ms = time_ms (fun () -> Checkpoint.save ~path snap) in
    Samples.add capture c_ms;
    Samples.add save s_ms;
    Samples.add save_total (c_ms +. s_ms);
    match timed (fun () -> Checkpoint.load ~path ()) with
    | Error err, _ ->
        incr storage_failed;
        gate ("checkpoint loads back: " ^ err) false
    | Ok snap, l_ms ->
        let r, r_ms = timed (fun () -> Checkpoint.to_counts snap) in
        Samples.add load l_ms;
        Samples.add restore r_ms;
        Samples.add resume_total (l_ms +. r_ms);
        gate "resumed engine equals the saved one" (same_counts r e.counts);
        resumed := Some r
  in
  let seeds = Array.of_list converge_seeds and next_seed = ref 0 in
  let converge_next () =
    let seed = seeds.(!next_seed) in
    incr next_seed;
    match converge ~n:s.converge_n seed with
    | Some r, ms ->
        Samples.add converge_s (ms /. 1e3);
        Samples.add converge_rounds (float_of_int r)
    | None, _ ->
        incr converge_failed;
        gate (Printf.sprintf "seed %Ld becomes legitimate within 8n rounds" seed) false
  in
  for k = 0 to chunks - 1 do
    let times total f =
      for _ = 1 to share ~total ~chunks k do
        f ()
      done
    in
    rewind e;
    for _ = 1 to s.counts_rounds do
      counts_round ()
    done;
    (match !replayed with
    | None -> replayed := Some e.counts
    | Some first -> gate "every chunk replays the same rounds" (same_counts first e.counts));
    sharded_rounds ();
    for _ = 1 to s.balls_rounds do
      balls_round ()
    done;
    List.iter Chunked.close [ plain; probed; balls ];
    times s.saves checkpoint_cycle;
    times (Array.length seeds) converge_next
  done;
  (* Gates on the final states. *)
  let n = s.counts_n in
  gate "2-domain Sharded_counts is bit-identical to Counts_process"
    (same_state ~n ~round_a:(Counts.round e.counts)
       ~round_b:(Sharded_counts.round e.sharded) (Counts.load e.counts)
       (Sharded_counts.load e.sharded));
  gate "Counts_process conserves balls" (conserved (Counts.config e.counts) n);
  gate "Sharded_counts conserves balls"
    (conserved (Sharded_counts.config e.sharded) n);
  gate "Process conserves balls" (conserved (Process.config e.balls) s.balls_n);
  (match !resumed with
  | None -> ()
  | Some r ->
      (* The last resumed engine catches up with the uninterrupted one,
         then both run 3 more rounds. *)
      Counts.run r ~rounds:(Counts.round e.counts - Counts.round r);
      gate "resumed engine tracks the uninterrupted one" (same_counts r e.counts);
      Counts.run e.counts ~rounds:3;
      Counts.run r ~rounds:3;
      gate "resumed engine stays identical over 3 more rounds"
        (same_counts r e.counts);
      gate "resumed engine conserves balls" (conserved (Counts.config r) n));
  (* Per-layer figures. *)
  let timer_delta name =
    let calls0, ns0 =
      Option.value ~default:(0, 0L) (List.assoc_opt name timers0)
    in
    let calls, ns = Telemetry.timer e.tel name in
    (calls - calls0, Int64.to_float (Int64.sub ns ns0) /. 1e6)
  in
  let per_call name =
    let calls, ms = timer_delta name in
    if calls = 0 then nan else ms /. float_of_int calls
  in
  let residual parts total = (List.fold_left ( +. ) 0. parts /. total) -. 1. in
  let counts_ms = Chunked.fastest plain and sharded_ms = Samples.lowest sharded in
  let release = per_call "counts.release" and place = per_call "counts.place" in
  (* The 2-domain timers gain one sum per worker per run call, so per
     round and worker is the total over workers times rounds. *)
  let per_worker_round name =
    let _, ms = timer_delta name in
    if trace then ms /. float_of_int (2 * s.counts_rounds * chunks) else nan
  in
  let sh_release = per_worker_round "counts_sharded.release"
  and sh_place = per_worker_round "counts_sharded.place"
  and sh_barrier = per_worker_round "counts_sharded.barrier_wait" in
  let launch = per_call "process.launch" and settle = per_call "process.settle" in
  let storage_layer =
    if not trace then []
    else begin
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let crc =
        repeat 5 (fun () ->
            time_ms (fun () -> ignore (Rbb_sim.Integrity.string bytes)))
      in
      let copy = path ^ ".copy" in
      let write =
        repeat 5 (fun () ->
            time_ms (fun () ->
                Rbb_sim.Fileio.write_atomic ~path:copy (fun oc ->
                    output_string oc bytes)))
      in
      let crc = Samples.median crc and write = Samples.median write in
      let capture = Samples.median capture in
      let encode = Samples.median save -. crc -. write in
      [
        m "ckpt.bytes" "bytes" (float_of_int (String.length bytes));
        m "ckpt.capture_ms" "ms" capture;
        m "ckpt.encode_ms" "ms" encode;
        m "ckpt.crc_ms" "ms" crc;
        m "ckpt.write_ms" "ms" write;
        m "ckpt.save_residual" "ratio"
          (residual [ capture; encode; crc; write ] (Samples.median save_total));
        m "ckpt.load_ms" "ms" (Samples.median load);
        m "ckpt.restore_ms" "ms" (Samples.median restore);
      ]
    end
  in
  {
    e2e =
      [
        m "counts_round_ms" "ms" counts_ms;
        m "counts_d2_round_ms" "ms" sharded_ms;
        m "balls_round_ms" "ms" (Chunked.fastest balls);
        m "ckpt_save_ms" "ms" (Samples.lowest save_total);
        m "resume_ms" "ms" (Samples.lowest resume_total);
        m "converge_s" "s" (Samples.lowest converge_s);
      ];
    layer =
      [
        m "counts.release_ms" "ms" release;
        m "counts.place_ms" "ms" place;
        m "counts.residual" "ratio"
          (residual [ release; place ] (Samples.mean probed.all));
        m "counts.empty_frac" "ratio" (!empty /. float_of_int !counts_done);
        m "counts.ns_per_bin" "ns" (counts_ms *. 1e6 /. float_of_int n);
        (* Computed, not measured: a steady round zero-fills arrivals,
           then settle reads arrivals and loads and writes loads back,
           8 bytes per int. *)
        m "counts.bytes_per_round" "bytes" (float_of_int (32 * n));
        m "sharded.release_ms" "ms" sh_release;
        m "sharded.place_ms" "ms" sh_place;
        m "sharded.barrier_wait_ms" "ms" sh_barrier;
        m "sharded.residual" "ratio"
          (residual [ sh_release; sh_place; sh_barrier ] (Samples.mean sharded));
        m "sharded.speedup" "ratio" (Chunked.fastest probed /. sharded_ms);
        m "process.launch_ms" "ms" launch;
        m "process.settle_ms" "ms" settle;
        m "process.residual" "ratio"
          (residual [ launch; settle ] (Samples.mean balls.all));
        m "trace_overhead" "ratio" (Chunked.fastest probed /. counts_ms);
      ]
      @ storage_layer
      @ [ m "converge.rounds" "count" (Samples.median converge_rounds) ];
    attempted =
      (((2 * s.counts_rounds) + s.balls_rounds) * chunks)
      + (2 * s.saves) + Array.length seeds;
    failed = !storage_failed + !converge_failed;
  }

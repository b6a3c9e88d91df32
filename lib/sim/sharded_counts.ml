open Rbb_core

(* Domain-parallel counterpart of Counts_process, paired with it the way
   Sharded is paired with Process: same randomness law, bit-identical
   trajectories, parallelism changes wall-clock only.

   The exchange between shards is a (source block, destination block)
   count matrix instead of per-ball messages: phase A has each source
   block scan its loads slice and split its released total over
   destination blocks into its private matrix row; after a barrier,
   phase B has each destination block column-sum the matrix, place its
   arrival total down to bins, and settle its slice in place.  Rows and
   bin slices are owned by exactly one worker per phase, so the only
   shared mutable state between barriers is the matrix, written
   row-exclusively in A and read-only in B. *)

type t = {
  rng : Rbb_prng.Rng.t;  (* the creation stream, as in Sharded *)
  engine : Rbb_prng.Rng.engine;
  master : int64;
  capacity : int;
  loads : int array;
  arrivals : int array;  (* scratch; block slices overwritten in phase B *)
  matrix : int array array;  (* matrix.(src).(dst): row-exclusive in phase A *)
  m : int;
  blocks : int;
  domains : int;
  workers : int;  (* min domains blocks *)
  pools : Rbb_prng.Multinomial.t array;  (* one bit pool per worker *)
  parts : (int * int) array;  (* per-worker (max_load, empty) reduce input *)
  telemetry : Telemetry.t;
  tracer : Tracer.t;
  mutable round : int;
  mutable max_load : int;
  mutable empty : int;
}

let make ~telemetry ~tracer ~capacity ~domains ~rng ~master ~round ~init ~who =
  if capacity < 1 then invalid_arg (who ^ ": capacity < 1");
  let loads = Config.loads init in
  let bins = Array.length loads in
  let domains =
    match domains with Some d -> d | None -> Parallel.default_domains ()
  in
  if domains < 1 then invalid_arg (who ^ ": domains < 1");
  let blocks = Process.shard_count ~bins in
  let workers = Stdlib.min domains blocks in
  {
    rng;
    engine = Rbb_prng.Rng.engine rng;
    master;
    capacity;
    loads;
    arrivals = Array.make bins 0;
    matrix = Array.init blocks (fun _ -> Array.make blocks 0);
    m = Config.balls init;
    blocks;
    domains;
    workers;
    pools = Array.init workers (fun _ -> Rbb_prng.Multinomial.create rng);
    parts = Array.make workers (0, 0);
    telemetry;
    tracer;
    round;
    max_load = Config.max_load init;
    empty = Config.empty_bins init;
  }

let create ?(telemetry = Telemetry.noop) ?(tracer = Tracer.noop)
    ?(capacity = 1) ?domains ~rng ~init () =
  (* The same single draw Counts_process.create (and Process.create)
     makes: same rng state in, same master key out. *)
  let master = Process.shard_master rng in
  make ~telemetry ~tracer ~capacity ~domains ~rng ~master ~round:0 ~init
    ~who:"Sharded_counts.create"

let restore ?(telemetry = Telemetry.noop) ?(tracer = Tracer.noop)
    ?(capacity = 1) ?domains ~rng ~master ~round ~init () =
  if round < 0 then invalid_arg "Sharded_counts.restore: round < 0";
  make ~telemetry ~tracer ~capacity ~domains ~rng ~master ~round ~init
    ~who:"Sharded_counts.restore"

let n t = Array.length t.loads
let balls t = t.m
let round t = t.round
let domains t = t.domains
let max_load t = t.max_load
let empty_bins t = t.empty
let telemetry t = t.telemetry

let load t u =
  if u < 0 || u >= n t then invalid_arg "Sharded_counts.load: out of range";
  t.loads.(u)

let config t = Config.of_array t.loads

let set_config t q =
  if Config.n q <> n t then
    invalid_arg "Sharded_counts.set_config: bin count differs";
  if Config.balls q <> t.m then
    invalid_arg "Sharded_counts.set_config: ball count differs";
  Array.blit (Config.unsafe_loads q) 0 t.loads 0 (n t);
  t.max_load <- Config.max_load q;
  t.empty <- Config.empty_bins q

(* The contiguous block range worker [w] owns (same for both phases). *)
let block_range t w =
  (w * t.blocks / t.workers, (w + 1) * t.blocks / t.workers)

(* Phase A for worker [w]: every owned source block scans its loads
   slice for the released total and splits it over destination blocks
   into its private matrix row.  All randomness comes from the block's
   release stream, so worker assignment cannot change a draw.  Returns
   the number of blocks processed (for the telemetry counter). *)
let release_phase t ~rnd w =
  let pool = t.pools.(w) in
  let b_lo, b_hi = block_range t w in
  for b = b_lo to b_hi - 1 do
    let row = t.matrix.(b) in
    Array.fill row 0 t.blocks 0;
    ignore
      (Counts_process.release_block ~pool ~engine:t.engine ~master:t.master
         ~round:rnd ~loads:t.loads ~capacity:t.capacity ~block:b ~into:row)
  done;
  b_hi - b_lo

(* Phase B for worker [w]: every owned destination block column-sums
   the matrix, places its arrival total over its bins, and settles its
   slice in place; returns the worker's (max_load, empty) part. *)
let place_phase t ~rnd w =
  let pool = t.pools.(w) in
  let bins = n t in
  let b_lo, b_hi = block_range t w in
  let max_l = ref 0 and empty = ref 0 in
  for d = b_lo to b_hi - 1 do
    let count = ref 0 in
    for b = 0 to t.blocks - 1 do
      count := !count + Array.unsafe_get (Array.unsafe_get t.matrix b) d
    done;
    Counts_process.place_block ~pool ~engine:t.engine ~master:t.master
      ~round:rnd ~bins ~arrivals:t.arrivals ~block:d ~count:!count;
    let lo, hi = Process.shard_bounds ~bins ~shard:d in
    let ml, e =
      Process.step_settle ~loads:t.loads ~arrivals:t.arrivals
        ~capacity:t.capacity ~lo ~hi
    in
    if ml > !max_l then max_l := ml;
    empty := !empty + e
  done;
  (!max_l, !empty)

let reduce_parts t =
  let max_l = ref 0 and empty = ref 0 in
  Array.iter
    (fun (m, e) ->
      if m > !max_l then max_l := m;
      empty := !empty + e)
    t.parts;
  t.max_load <- !max_l;
  t.empty <- !empty

let run_inline t ~rounds =
  let tel = t.telemetry in
  let tr = t.tracer in
  let tel_on = Telemetry.enabled tel in
  let tr_on = Tracer.enabled tr in
  let timed = tel_on || tr_on in
  let now () =
    if tel_on then Telemetry.now tel else if tr_on then Tracer.now tr else 0L
  in
  let blocks_done = ref 0 in
  for _ = 1 to rounds do
    let rnd = t.round in
    let t0 = if timed then now () else 0L in
    for w = 0 to t.workers - 1 do
      blocks_done := !blocks_done + release_phase t ~rnd w
    done;
    let t1 = if timed then now () else 0L in
    for w = 0 to t.workers - 1 do
      t.parts.(w) <- place_phase t ~rnd w
    done;
    reduce_parts t;
    t.round <- t.round + 1;
    if timed then begin
      let t2 = now () in
      if tel_on then begin
        Telemetry.timer_add tel "counts_sharded.release" (Int64.sub t1 t0);
        Telemetry.timer_add tel "counts_sharded.place" (Int64.sub t2 t1);
        Telemetry.record_latency tel (Int64.sub t2 t0)
      end;
      if tr_on then begin
        Tracer.span tr ~name:"counts_sharded.release" ~worker:0 ~round:t.round
          ~t0 ~t1;
        Tracer.span tr ~name:"counts_sharded.place" ~worker:0 ~round:t.round
          ~t0:t1 ~t1:t2;
        Tracer.observe tr ~round:t.round ~max_load:t.max_load
          ~empty_bins:t.empty ~balls:t.m
      end
    end
  done;
  if tel_on then begin
    Telemetry.add tel "counts_sharded.rounds" rounds;
    Telemetry.add tel "counts_sharded.release.blocks" !blocks_done
  end

let run_pooled t ~rounds =
  (* One spawn per worker for the whole run, two barriers per round, as
     in Sharded.run_pooled; phases here have no failure handling (the
     counts engine has no failpoint surface), which keeps the loop to
     the two rendezvous.  Telemetry accumulates in per-worker locals
     flushed once after the loop; worker 0 records latency and the
     per-round observable (race-free after the second barrier, before
     its next first barrier). *)
  let barrier = Parallel.Barrier.create t.workers in
  let r0 = t.round in
  let tel = t.telemetry in
  let tr = t.tracer in
  let tel_on = Telemetry.enabled tel in
  let tr_on = Tracer.enabled tr in
  let timed = tel_on || tr_on in
  let work w () =
    let now () =
      if tel_on then Telemetry.now tel else if tr_on then Tracer.now tr else 0L
    in
    let tick r t0 t1 = r := Int64.add !r (Int64.sub t1 t0) in
    let release_ns = ref 0L and place_ns = ref 0L and barrier_ns = ref 0L in
    let blocks_done = ref 0 in
    for rnd = r0 to r0 + rounds - 1 do
      let r = rnd + 1 in
      let t0 = now () in
      blocks_done := !blocks_done + release_phase t ~rnd w;
      let t1 = now () in
      if tr_on then
        Tracer.span tr ~name:"counts_sharded.release" ~worker:w ~round:r ~t0
          ~t1;
      Parallel.Barrier.wait barrier;
      let t2 = now () in
      t.parts.(w) <- place_phase t ~rnd w;
      let t3 = now () in
      if tr_on then
        Tracer.span tr ~name:"counts_sharded.place" ~worker:w ~round:r ~t0:t2
          ~t1:t3;
      Parallel.Barrier.wait barrier;
      let t4 = now () in
      tick release_ns t0 t1;
      tick place_ns t2 t3;
      tick barrier_ns t1 t2;
      tick barrier_ns t3 t4;
      if timed && w = 0 then Telemetry.record_latency tel (Int64.sub t4 t0);
      if tr_on && w = 0 then begin
        let max_l = ref 0 and empty = ref 0 in
        Array.iter
          (fun (m, e) ->
            if m > !max_l then max_l := m;
            empty := !empty + e)
          t.parts;
        Tracer.observe tr ~round:r ~max_load:!max_l ~empty_bins:!empty
          ~balls:t.m
      end
    done;
    if tel_on then begin
      Telemetry.timer_add tel "counts_sharded.release" !release_ns;
      Telemetry.timer_add tel "counts_sharded.place" !place_ns;
      Telemetry.timer_add tel "counts_sharded.barrier_wait" !barrier_ns;
      Telemetry.add tel "counts_sharded.release.blocks" !blocks_done
    end
  in
  List.iter Domain.join (List.init t.workers (fun w -> Domain.spawn (work w)));
  reduce_parts t;
  t.round <- r0 + rounds;
  if tel_on then Telemetry.add tel "counts_sharded.rounds" rounds

let run t ~rounds =
  if rounds < 0 then invalid_arg "Sharded_counts.run: rounds < 0";
  if rounds > 0 then
    if t.workers = 1 then run_inline t ~rounds else run_pooled t ~rounds

let step t = run t ~rounds:1

let engine t =
  {
    Engine.kind = Counts;
    n = n t;
    balls = t.m;
    rng = t.rng;
    step = (fun () -> step t);
    round = (fun () -> t.round);
    max_load = (fun () -> t.max_load);
    empty_bins = (fun () -> t.empty);
    config = (fun () -> config t);
    set_config = set_config t;
    master = t.master;
    d_choices = 1;
    capacity = t.capacity;
    weighted = false;
  }

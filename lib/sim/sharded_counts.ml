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
  probe : Probe.t;
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
    probe = Probe.compose (Telemetry.probe telemetry) (Tracer.probe tracer);
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
   release stream, so worker assignment cannot change a draw. *)
let release_phase t ~round w =
  let pool = t.pools.(w) in
  let b_lo, b_hi = block_range t w in
  for b = b_lo to b_hi - 1 do
    let row = t.matrix.(b) in
    Array.fill row 0 t.blocks 0;
    ignore
      (Counts_process.release_block ~pool ~engine:t.engine ~master:t.master
         ~round ~loads:t.loads ~capacity:t.capacity ~block:b ~into:row)
  done

(* Phase B for worker [w]: every owned destination block column-sums
   the matrix, places its arrival total over its bins, and settles its
   slice in place, leaving the worker's (max_load, empty) part. *)
let place_phase t ~round w =
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
      ~round ~bins ~arrivals:t.arrivals ~block:d ~count:!count;
    let lo, hi = Process.shard_bounds ~bins ~shard:d in
    let ml, e =
      Process.step_settle ~loads:t.loads ~arrivals:t.arrivals
        ~capacity:t.capacity ~lo ~hi
    in
    if ml > !max_l then max_l := ml;
    empty := !empty + e
  done;
  t.parts.(w) <- (!max_l, !empty)

let reduce parts =
  Array.fold_left
    (fun (max_l, empty) (m, e) -> (Stdlib.max max_l m, empty + e))
    (0, 0) parts

(* Observables of a completed round: [parts] is final after the round's
   last barrier, and the next round's release stage does not touch it. *)
let observe t ~round =
  let max_load, empty_bins = reduce t.parts in
  t.probe.on_round ~round ~max_load ~empty_bins ~balls:t.m

let run t ~rounds =
  if rounds < 0 then invalid_arg "Sharded_counts.run: rounds < 0";
  if rounds > 0 then begin
    let phase name run = { Parallel.name; workers = t.workers; run } in
    match
      Parallel.rounds ~probe:t.probe ~family:"counts_sharded" ~domains:t.domains
        ~round:t.round ~rounds ~observe:(observe t)
        [
          [ phase "counts_sharded.release" (release_phase t) ];
          [ phase "counts_sharded.place" (place_phase t) ];
        ]
    with
    | Some (_, _, exn) -> raise exn
    | None ->
        t.round <- t.round + rounds;
        let max_load, empty = reduce t.parts in
        t.max_load <- max_load;
        t.empty <- empty;
        t.probe.add "counts_sharded.rounds" rounds;
        t.probe.add "counts_sharded.release.blocks" (rounds * t.blocks)
  end

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

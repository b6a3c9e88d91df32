type t = {
  rng : Rbb_prng.Rng.t;
  master : int64;  (* keys the per-(round, block) release/arrival streams *)
  capacity : int;
  loads : int array;
  arrivals : int array;  (* reused scratch buffer, valid after each round *)
  block_in : int array;  (* per-destination-block arrival totals *)
  block_out : int array;  (* per-block released balls of the NEXT round *)
  mutable block_out_valid : bool;  (* false after create/restore/set_config *)
  pool : Rbb_prng.Multinomial.t;
  m : int;
  mutable round : int;
  mutable max_load : int;
  mutable empty : int;
}

(* Blocks are exactly the per-ball engine's randomness shards: 4096
   contiguous bins.  The counts law keys one release stream per source
   block and one arrival stream per destination block off the same
   (master, round, shard) derivation, with arrival streams offset by the
   block count so the two families never collide. *)
let block_bits = 12
let () = assert (1 lsl block_bits = Process.shard_size)

let create ?(capacity = 1) ~rng ~init () =
  if capacity < 1 then invalid_arg "Counts_process.create: capacity < 1";
  let loads = Config.loads init in
  let master = Process.shard_master rng in
  {
    rng;
    master;
    capacity;
    loads;
    arrivals = Array.make (Array.length loads) 0;
    block_in = Array.make (Process.shard_count ~bins:(Array.length loads)) 0;
    block_out = Array.make (Process.shard_count ~bins:(Array.length loads)) 0;
    block_out_valid = false;
    pool = Rbb_prng.Multinomial.create rng;
    m = Config.balls init;
    round = 0;
    max_load = Config.max_load init;
    empty = Config.empty_bins init;
  }

let restore ?(capacity = 1) ~rng ~master ~round ~init () =
  if capacity < 1 then invalid_arg "Counts_process.restore: capacity < 1";
  if round < 0 then invalid_arg "Counts_process.restore: round < 0";
  let loads = Config.loads init in
  {
    rng;
    master;
    capacity;
    loads;
    arrivals = Array.make (Array.length loads) 0;
    block_in = Array.make (Process.shard_count ~bins:(Array.length loads)) 0;
    block_out = Array.make (Process.shard_count ~bins:(Array.length loads)) 0;
    block_out_valid = false;
    pool = Rbb_prng.Multinomial.create rng;
    m = Config.balls init;
    round;
    max_load = Config.max_load init;
    empty = Config.empty_bins init;
  }

let n t = Array.length t.loads
let balls t = t.m
let round t = t.round

let load t u =
  if u < 0 || u >= Array.length t.loads then
    invalid_arg "Counts_process.load: out of range";
  t.loads.(u)

let max_load t = t.max_load
let empty_bins t = t.empty

let last_arrivals t u =
  if u < 0 || u >= Array.length t.arrivals then
    invalid_arg "Counts_process.last_arrivals: out of range";
  if t.round = 0 then 0 else t.arrivals.(u)

let config t = Config.of_array t.loads

let set_config t q =
  if Config.n q <> Array.length t.loads then
    invalid_arg "Counts_process.set_config: bin count differs";
  if Config.balls q <> t.m then
    invalid_arg "Counts_process.set_config: ball count differs";
  Array.blit (Config.unsafe_loads q) 0 t.loads 0 (Array.length t.loads);
  t.max_load <- Config.max_load q;
  t.empty <- Config.empty_bins q;
  t.block_out_valid <- false

(* Phase 1 kernel: release the balls of one source block and account
   their destinations per destination block.  Reads [loads] without
   mutating it; all randomness comes from the block's release stream
   [(master, round, block)], so any engine walking the blocks in any
   order draws the same counts. *)
let release_block ~pool ~engine ~master ~round ~loads ~capacity ~block ~into =
  let bins = Array.length loads in
  let lo, hi = Process.shard_bounds ~bins ~shard:block in
  let count = ref 0 in
  for u = lo to hi - 1 do
    (* Branchless [min load capacity]: see Process.step_settle_into. *)
    let l = Array.unsafe_get loads u in
    let d = l - capacity in
    count := !count + capacity + (d asr 62 land d)
  done;
  if !count > 0 then begin
    Rbb_prng.Multinomial.reset pool
      (Rbb_prng.Stream.for_shard ~engine ~master ~round ~shard:block ());
    Rbb_prng.Multinomial.split_blocks pool ~count:!count ~bins ~block_bits ~into
  end;
  !count

(* Phase 2 kernel (first half): place one destination block's [count]
   arrivals uniformly over its bins, overwriting the block's slice of
   [arrivals].  Draws from the block's arrival stream
   [(master, round, blocks + block)]. *)
let place_block ~pool ~engine ~master ~round ~bins ~arrivals ~block ~count =
  let lo, hi = Process.shard_bounds ~bins ~shard:block in
  Array.fill arrivals lo (hi - lo) 0;
  if count > 0 then begin
    let blocks = Process.shard_count ~bins in
    Rbb_prng.Multinomial.reset pool
      (Rbb_prng.Stream.for_shard ~engine ~master ~round ~shard:(blocks + block) ());
    Rbb_prng.Multinomial.split_bins pool ~count ~width:(hi - lo) ~into:arrivals
      ~off:lo
  end

(* Per-block released-ball totals for the next round.  Recomputed by a
   full scan only after create/restore/set_config; steady-state rounds
   refresh the totals inside [settle_block] while the slice is in cache,
   which removes one whole pass over [loads] per round. *)
let scan_block_out t =
  let bins = Array.length t.loads in
  let blocks = Process.shard_count ~bins in
  let capacity = t.capacity in
  for b = 0 to blocks - 1 do
    let lo, hi = Process.shard_bounds ~bins ~shard:b in
    let count = ref 0 in
    for u = lo to hi - 1 do
      let l = Array.unsafe_get t.loads u in
      let d = l - capacity in
      count := !count + capacity + (d asr 62 land d)
    done;
    t.block_out.(b) <- !count
  done;
  t.block_out_valid <- true

(* Process.step_settle fused with the next round's release scan:
   returns [(max_load, empty, released_next)] for the slice.  Caller
   guarantees the slice is in range (it comes from shard_bounds). *)
let settle_block ~loads ~arrivals ~capacity ~lo ~hi =
  let max_l = ref 0 and empty = ref 0 and out = ref 0 in
  for u = lo to hi - 1 do
    let q = Array.unsafe_get loads u in
    let d = q - capacity in
    let rel = capacity + (d asr 62 land d) in
    let q' = q - rel + Array.unsafe_get arrivals u in
    Array.unsafe_set loads u q';
    if q' > !max_l then max_l := q';
    empty := !empty + 1 - ((-q') lsr 62);
    let d' = q' - capacity in
    out := !out + capacity + (d' asr 62 land d')
  done;
  (!max_l, !empty, !out)

(* Phase 1: split every source block's released total over destination
   blocks, one release stream per block. *)
let release t =
  let bins = Array.length t.loads in
  let blocks = Process.shard_count ~bins in
  if not t.block_out_valid then scan_block_out t;
  Array.fill t.block_in 0 blocks 0;
  let engine = Rbb_prng.Rng.engine t.rng in
  for b = 0 to blocks - 1 do
    let count = t.block_out.(b) in
    if count > 0 then begin
      Rbb_prng.Multinomial.reset t.pool
        (Rbb_prng.Stream.for_shard ~engine ~master:t.master ~round:t.round
           ~shard:b ());
      Rbb_prng.Multinomial.split_blocks t.pool ~count ~bins ~block_bits
        ~into:t.block_in
    end
  done

(* Phase 2: place every destination block's arrivals over its bins and
   settle the slice, refreshing next round's release totals while the
   slice is in cache. *)
let place t =
  let bins = Array.length t.loads in
  let engine = Rbb_prng.Rng.engine t.rng in
  let max_l = ref 0 and empty = ref 0 in
  for b = 0 to Process.shard_count ~bins - 1 do
    place_block ~pool:t.pool ~engine ~master:t.master ~round:t.round ~bins
      ~arrivals:t.arrivals ~block:b ~count:t.block_in.(b);
    let lo, hi = Process.shard_bounds ~bins ~shard:b in
    let ml, e, out =
      settle_block ~loads:t.loads ~arrivals:t.arrivals ~capacity:t.capacity
        ~lo ~hi
    in
    t.block_out.(b) <- out;
    if ml > !max_l then max_l := ml;
    empty := !empty + e
  done;
  t.max_load <- !max_l;
  t.empty <- !empty;
  t.round <- t.round + 1

let step t =
  release t;
  place t

(* [step] with per-phase probe timing and tracing around the same two
   phases; see Process.step_timed for the pattern. *)
let step_timed t ~(probe : Probe.t) =
  let t0 = probe.now () in
  release t;
  let t1 = probe.now () in
  place t;
  let t2 = probe.now () in
  probe.timer_add "counts.release" (Int64.sub t1 t0);
  probe.timer_add "counts.place" (Int64.sub t2 t1);
  probe.latency (Int64.sub t2 t0);
  probe.add "counts.rounds" 1;
  probe.add "counts.release.blocks" (Process.shard_count ~bins:(n t));
  if probe.tracing then begin
    probe.on_span ~name:"counts.release" ~worker:0 ~round:t.round ~t0 ~t1;
    probe.on_span ~name:"counts.place" ~worker:0 ~round:t.round ~t0:t1 ~t1:t2;
    probe.on_round ~round:t.round ~max_load:t.max_load ~empty_bins:t.empty
      ~balls:t.m
  end

let run ?(probe = Probe.noop) t ~rounds =
  if rounds < 0 then invalid_arg "Counts_process.run: rounds < 0";
  if Probe.live probe then begin
    let t0 = probe.Probe.now () in
    for _ = 1 to rounds do
      step_timed t ~probe
    done;
    probe.Probe.timer_add "counts.run" (Int64.sub (probe.Probe.now ()) t0)
  end
  else
    for _ = 1 to rounds do
      step t
    done

let engine ?(probe = Probe.noop) t =
  {
    Engine.kind = Counts;
    n = n t;
    balls = t.m;
    rng = t.rng;
    step = (fun () -> run ~probe t ~rounds:1);
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

let run_until_legitimate ?beta t ~max_rounds =
  Engine.run_until_legitimate ?beta (engine t) ~max_rounds

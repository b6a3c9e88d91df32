type t = {
  rng : Rbb_prng.Rng.t;
  master : int64;  (* keys the per-(round, shard) launch streams *)
  d : int;
  weights : Rbb_prng.Alias.t option;  (* non-uniform destination law *)
  capacity : int;  (* balls released per bin per round *)
  loads : int array;
  arrivals : int array;  (* reused scratch buffer *)
  m : int;
  mutable round : int;
  mutable max_load : int;
  mutable empty : int;
}

(* Randomness sharding.  Each round, the launch phase draws from one
   independent stream per contiguous block of [shard_size] bins, keyed
   by (master, round, shard).  The block size is a fixed constant of
   the process law — never a function of how many domains or scheduling
   shards a parallel engine uses — so every engine that walks the
   blocks in any order produces the same configuration trajectory. *)
let shard_size = 4096

let shard_count ~bins =
  if bins <= 0 then invalid_arg "Process.shard_count: bins <= 0";
  (bins + shard_size - 1) / shard_size

let shard_bounds ~bins ~shard =
  if shard < 0 || shard >= shard_count ~bins then
    invalid_arg "Process.shard_bounds: shard out of range";
  let lo = shard * shard_size in
  (lo, Stdlib.min bins (lo + shard_size))

let shard_master rng = Rbb_prng.Splitmix64.mix (Rbb_prng.Rng.next_u64 rng)

let create ?(d_choices = 1) ?weights ?(capacity = 1) ~rng ~init () =
  if d_choices < 1 then invalid_arg "Process.create: d_choices < 1";
  if capacity < 1 then invalid_arg "Process.create: capacity < 1";
  let loads = Config.loads init in
  let weights =
    match weights with
    | None -> None
    | Some w ->
        if d_choices > 1 then
          invalid_arg "Process.create: weights and d_choices cannot be combined";
        if Array.length w <> Array.length loads then
          invalid_arg "Process.create: weights length differs from bin count";
        Some (Rbb_prng.Alias.create w)
  in
  let master = shard_master rng in
  {
    rng;
    master;
    d = d_choices;
    weights;
    capacity;
    loads;
    arrivals = Array.make (Array.length loads) 0;
    m = Config.balls init;
    round = 0;
    max_load = Config.max_load init;
    empty = Config.empty_bins init;
  }

(* Rebuild a process mid-trajectory: same fields as [create], but the
   master key and round counter come from a checkpoint instead of being
   drawn/zeroed, so no randomness is consumed.  Combined with a
   [Rbb_prng.Rng.of_snapshot] generator this reproduces the state of a
   process that ran [round] rounds, bit for bit. *)
let restore ?(d_choices = 1) ?(capacity = 1) ~rng ~master ~round ~init () =
  if d_choices < 1 then invalid_arg "Process.restore: d_choices < 1";
  if capacity < 1 then invalid_arg "Process.restore: capacity < 1";
  if round < 0 then invalid_arg "Process.restore: round < 0";
  let loads = Config.loads init in
  {
    rng;
    master;
    d = d_choices;
    weights = None;
    capacity;
    loads;
    arrivals = Array.make (Array.length loads) 0;
    m = Config.balls init;
    round;
    max_load = Config.max_load init;
    empty = Config.empty_bins init;
  }

let n t = Array.length t.loads
let balls t = t.m
let round t = t.round
let rng t = t.rng

let load t u =
  if u < 0 || u >= Array.length t.loads then invalid_arg "Process.load: out of range";
  t.loads.(u)

let max_load t = t.max_load
let empty_bins t = t.empty

let last_arrivals t u =
  if u < 0 || u >= Array.length t.arrivals then
    invalid_arg "Process.last_arrivals: out of range";
  if t.round = 0 then 0 else t.arrivals.(u)
let config t = Config.of_array t.loads

let set_config t q =
  if Config.n q <> Array.length t.loads then
    invalid_arg "Process.set_config: bin count differs";
  if Config.balls q <> t.m then
    invalid_arg "Process.set_config: ball count differs";
  Array.blit (Config.unsafe_loads q) 0 t.loads 0 (Array.length t.loads);
  t.max_load <- Config.max_load q;
  t.empty <- Config.empty_bins q

(* Destination of one re-assigned ball: uniform for d = 1 (or weighted
   when a bias is installed), least loaded of d independent uniform
   picks otherwise (ties to the first drawn).  Phase 1 never mutates
   [loads], so the d-choices comparison always sees the pre-round
   configuration no matter which shard or engine draws it. *)
let draw_destination ~rng ~loads ~d ~alias =
  match alias with
  | Some a -> Rbb_prng.Alias.draw a rng
  | None ->
      if d = 1 then Rbb_prng.Rng.int_below rng (Array.length loads)
      else begin
        let best = ref (Rbb_prng.Rng.int_below rng (Array.length loads)) in
        for _ = 2 to d do
          let v = Rbb_prng.Rng.int_below rng (Array.length loads) in
          if loads.(v) < loads.(!best) then best := v
        done;
        !best
      end

let destination t =
  draw_destination ~rng:t.rng ~loads:t.loads ~d:t.d ~alias:t.weights

let step_launch ~rng ~loads ~arrivals ~capacity ~d ?alias ~lo ~hi () =
  for u = lo to hi - 1 do
    let k = Stdlib.min loads.(u) capacity in
    for _ = 1 to k do
      let v = draw_destination ~rng ~loads ~d ~alias in
      arrivals.(v) <- arrivals.(v) + 1
    done
  done

let step_settle_into ~src ~dst ~arrivals ~capacity ~lo ~hi =
  (* Validate the slice once, then run unchecked: per-element bounds
     checks cost more than the arithmetic on this pure streaming pass. *)
  if lo < 0 || hi < lo || hi > Array.length src || hi > Array.length dst
     || hi > Array.length arrivals
  then invalid_arg "Process.step_settle_into: slice out of bounds";
  let max_l = ref 0 and empty = ref 0 in
  for u = lo to hi - 1 do
    let q = Array.unsafe_get src u in
    (* Branchless [min q capacity] and empty-bin count: whether a bin is
       empty is close to a coin flip in steady state, so data-dependent
       branches here mispredict constantly. *)
    let d = q - capacity in
    let rel = capacity + (d asr 62 land d) in
    let q' = q - rel + Array.unsafe_get arrivals u in
    Array.unsafe_set dst u q';
    if q' > !max_l then max_l := q';
    empty := !empty + 1 - ((-q') lsr 62)
  done;
  (!max_l, !empty)

let step_settle ~loads ~arrivals ~capacity ~lo ~hi =
  step_settle_into ~src:loads ~dst:loads ~arrivals ~capacity ~lo ~hi

(* Phase 1: each non-empty bin launches up to [capacity] balls, one
   derived stream per randomness shard. *)
let launch t =
  let bins = Array.length t.loads in
  Array.fill t.arrivals 0 bins 0;
  let engine = Rbb_prng.Rng.engine t.rng in
  for s = 0 to shard_count ~bins - 1 do
    let lo, hi = shard_bounds ~bins ~shard:s in
    let rng =
      Rbb_prng.Stream.for_shard ~engine ~master:t.master ~round:t.round ~shard:s ()
    in
    step_launch ~rng ~loads:t.loads ~arrivals:t.arrivals ~capacity:t.capacity
      ~d:t.d ?alias:t.weights ~lo ~hi ()
  done

(* Phase 2: apply departures and arrivals; refresh the incremental
   max-load and empty-bin counters in the same pass. *)
let settle t =
  let max_l, empty =
    step_settle ~loads:t.loads ~arrivals:t.arrivals ~capacity:t.capacity ~lo:0
      ~hi:(Array.length t.loads)
  in
  t.max_load <- max_l;
  t.empty <- empty;
  t.round <- t.round + 1

let step t =
  launch t;
  settle t

(* [step] with per-phase probe timing and tracing around the same two
   phases, so the uninstrumented [step] reads no clock at all; [run]
   picks this variant only when the probe is live. *)
let step_timed t ~(probe : Probe.t) =
  let t0 = probe.now () in
  launch t;
  let t1 = probe.now () in
  settle t;
  let t2 = probe.now () in
  probe.timer_add "process.launch" (Int64.sub t1 t0);
  probe.timer_add "process.settle" (Int64.sub t2 t1);
  probe.latency (Int64.sub t2 t0);
  probe.add "process.rounds" 1;
  probe.add "process.launch.blocks" (shard_count ~bins:(n t));
  if probe.tracing then begin
    probe.on_span ~name:"process.launch" ~worker:0 ~round:t.round ~t0 ~t1;
    probe.on_span ~name:"process.settle" ~worker:0 ~round:t.round ~t0:t1 ~t1:t2;
    probe.on_round ~round:t.round ~max_load:t.max_load ~empty_bins:t.empty
      ~balls:t.m
  end

let run ?(probe = Probe.noop) t ~rounds =
  if rounds < 0 then invalid_arg "Process.run: rounds < 0";
  if Probe.live probe then begin
    let t0 = probe.Probe.now () in
    for _ = 1 to rounds do
      step_timed t ~probe
    done;
    probe.Probe.timer_add "process.run" (Int64.sub (probe.Probe.now ()) t0)
  end
  else
    for _ = 1 to rounds do
      step t
    done

let engine ?(probe = Probe.noop) t =
  {
    Engine.kind = Balls;
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
    d_choices = t.d;
    capacity = t.capacity;
    weighted = t.weights <> None;
  }

let run_until t ~max_rounds ~stop =
  Engine.run_until (engine t) ~max_rounds ~stop:(fun _ -> stop t)

let run_until_legitimate ?beta t ~max_rounds =
  Engine.run_until_legitimate ?beta (engine t) ~max_rounds

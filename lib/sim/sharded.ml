open Rbb_core

(* Restartable-phase design.  Every phase of a round is a pure function
   of state committed before the phase started:

   - launch reads the current load buffer and overwrites one
     worker-private arrival buffer (drawing from stateless
     per-(master, round, block) streams);
   - merge overwrites the shared [merged] array slice-by-slice from the
     arrival buffers;
   - settle reads the current load buffer and [merged] and overwrites
     the *other* parity load buffer ([lds.(round land 1)] is current,
     [lds.((round + 1) land 1)] is written).

   Nothing mutates in place, so a failed slice can simply be executed
   again — the basis for supervised retry — and an abandoned round
   leaves the committed configuration untouched — the basis for
   graceful degradation and for crash-consistent failure states.  The
   parity trick also means committing a round is just advancing the
   round counter: no copy, no third barrier. *)

type t = {
  rng : Rbb_prng.Rng.t;
      (* the creation stream: the master key was drawn from it, and the
         adversary / checkpoint layers continue it, so faulted and
         resumed trajectories match the sequential engine's draw for
         draw *)
  engine : Rbb_prng.Rng.engine;
  master : int64;
  d : int;
  alias : Rbb_prng.Alias.t option;
  capacity : int;
  lds : int array array;  (* parity pair: current = lds.(round land 1) *)
  merged : int array;  (* summed arrivals, overwritten every round *)
  m : int;
  shards : int;
  domains : int;
  launchers : int;  (* phase-1 workers = min domains shards *)
  settlers : int;  (* phase-2 workers = min domains bins *)
  bufs : int array array;  (* one full-width arrival buffer per launcher *)
  parts : (int * int) array;  (* per-settler (max_load, empty) reduce input *)
  probe : Probe.t;
  tracer : Tracer.t;  (* fault records, which the probe does not carry *)
  failpoints : Failpoint.t;
  supervisor : Supervisor.t;
  mutable degraded : bool;
  mutable round : int;
  mutable max_load : int;
  mutable empty : int;
}

let make ~telemetry ~tracer ~failpoints ~supervisor ~d_choices ~weights
    ~capacity ~shards ~domains ~rng ~master ~round ~init ~who =
  if d_choices < 1 then invalid_arg (who ^ ": d_choices < 1");
  if capacity < 1 then invalid_arg (who ^ ": capacity < 1");
  let loads = Config.loads init in
  let bins = Array.length loads in
  let domains =
    match domains with Some d -> d | None -> Parallel.default_domains ()
  in
  if domains < 1 then invalid_arg (who ^ ": domains < 1");
  let shards = match shards with Some k -> k | None -> domains in
  if shards < 1 then invalid_arg (who ^ ": shards < 1");
  let alias =
    match weights with
    | None -> None
    | Some w ->
        if d_choices > 1 then
          invalid_arg (who ^ ": weights and d_choices cannot be combined");
        if Array.length w <> bins then
          invalid_arg (who ^ ": weights length differs from bin count");
        Some (Rbb_prng.Alias.create w)
  in
  let launchers = Stdlib.min domains shards in
  let settlers = Stdlib.min domains bins in
  let lds =
    let other = Array.make bins 0 in
    (* current parity slot gets the initial configuration *)
    if round land 1 = 0 then [| loads; other |] else [| other; loads |]
  in
  (* Splice fault reporting onto the caller's supervisor: every failed
     attempt becomes a trace fault record and telemetry counters,
     whether it is retried or gives up. *)
  let supervisor =
    Supervisor.with_on_event supervisor (fun (e : Supervisor.event) ->
        Telemetry.incr telemetry "sharded.faults";
        if e.giving_up then Telemetry.incr telemetry "sharded.fault.giving_up"
        else Telemetry.incr telemetry "sharded.retries";
        Tracer.fault tracer ~name:e.name ~round:e.round ~shard:e.shard
          ~attempt:e.attempt
          ~detail:
            (if e.giving_up then Printf.sprintf "giving up: %s" e.error
             else Printf.sprintf "%s; retry backoff=%Ldns" e.error e.backoff_ns))
  in
  {
    rng;
    engine = Rbb_prng.Rng.engine rng;
    master;
    d = d_choices;
    alias;
    capacity;
    lds;
    merged = Array.make bins 0;
    m = Config.balls init;
    shards;
    domains;
    launchers;
    settlers;
    bufs = Array.init launchers (fun _ -> Array.make bins 0);
    parts = Array.make settlers (0, 0);
    probe = Probe.compose (Telemetry.probe telemetry) (Tracer.probe tracer);
    tracer;
    failpoints;
    supervisor;
    degraded = false;
    round;
    max_load = Config.max_load init;
    empty = Config.empty_bins init;
  }

let create ?(telemetry = Telemetry.noop) ?(tracer = Tracer.noop)
    ?(failpoints = Failpoint.noop) ?(supervisor = Supervisor.noop)
    ?(d_choices = 1) ?weights ?(capacity = 1) ?shards ?domains ~rng ~init () =
  (* Exactly the draw Process.create makes: same rng state in, same
     master key out, hence bit-identical trajectories. *)
  let master = Process.shard_master rng in
  make ~telemetry ~tracer ~failpoints ~supervisor ~d_choices ~weights ~capacity
    ~shards ~domains ~rng ~master ~round:0 ~init ~who:"Sharded.create"

let restore ?(telemetry = Telemetry.noop) ?(tracer = Tracer.noop)
    ?(failpoints = Failpoint.noop) ?(supervisor = Supervisor.noop)
    ?(d_choices = 1) ?(capacity = 1) ?shards ?domains ~rng ~master ~round ~init
    () =
  if round < 0 then invalid_arg "Sharded.restore: round < 0";
  make ~telemetry ~tracer ~failpoints ~supervisor ~d_choices ~weights:None
    ~capacity ~shards ~domains ~rng ~master ~round ~init ~who:"Sharded.restore"

let loads t = t.lds.(t.round land 1)
let n t = Array.length t.merged
let balls t = t.m
let round t = t.round
let shards t = t.shards
let domains t = t.domains
let max_load t = t.max_load
let empty_bins t = t.empty
let degraded t = t.degraded

let load t u =
  if u < 0 || u >= n t then invalid_arg "Sharded.load: out of range";
  (loads t).(u)

let config t = Config.of_array (loads t)

let set_config t q =
  if Config.n q <> n t then invalid_arg "Sharded.set_config: bin count differs";
  if Config.balls q <> t.m then
    invalid_arg "Sharded.set_config: ball count differs";
  Array.blit (Config.unsafe_loads q) 0 (loads t) 0 (n t);
  t.max_load <- Config.max_load q;
  t.empty <- Config.empty_bins q

(* O(n) aggregate recomputation, for states reached through a failure
   (where the incremental per-slice reduce was abandoned). *)
let refresh_aggregates t =
  let max_l = ref 0 and empty = ref 0 in
  Array.iter
    (fun q ->
      if q > !max_l then max_l := q;
      if q = 0 then incr empty)
    (loads t);
  t.max_load <- !max_l;
  t.empty <- !empty

(* Phase 1 for worker [w] of round [rnd]: scheduling shard [j] launches
   the logical randomness blocks [j*blocks/shards, (j+1)*blocks/shards);
   each block draws from its own (master, round, block) stream, so
   neither the shard count nor the worker that runs it can change a
   single draw.  Arrivals scatter into the worker-private buffer, which
   is zeroed first — the phase is restartable. *)
let launch_phase t ~rnd w =
  let bins = n t in
  let blocks = Process.shard_count ~bins in
  let src = t.lds.(rnd land 1) in
  let buf = t.bufs.(w) in
  Array.fill buf 0 bins 0;
  let j = ref w in
  while !j < t.shards do
    let b_lo = !j * blocks / t.shards and b_hi = (!j + 1) * blocks / t.shards in
    for b = b_lo to b_hi - 1 do
      let lo, hi = Process.shard_bounds ~bins ~shard:b in
      let rng =
        Rbb_prng.Stream.for_shard ~engine:t.engine ~master:t.master ~round:rnd
          ~shard:b ()
      in
      Process.step_launch ~rng ~loads:src ~arrivals:buf ~capacity:t.capacity
        ~d:t.d ?alias:t.alias ~lo ~hi ()
    done;
    j := !j + t.launchers
  done

(* The bin range settle-worker [w] owns. *)
let settle_slice_bounds t w =
  let bins = n t in
  (w * bins / t.settlers, (w + 1) * bins / t.settlers)

(* Phase 2a for settle-worker [w]'s bins: overwrite [merged] with the
   sum of the per-launcher arrival buffers.  Workers own disjoint
   slices and the write is a pure overwrite, so the phase is race-free
   and restartable. *)
let merge_phase t w =
  let lo, hi = settle_slice_bounds t w in
  let acc = t.merged in
  Array.blit t.bufs.(0) lo acc lo (hi - lo);
  for b = 1 to t.launchers - 1 do
    let other = t.bufs.(b) in
    for u = lo to hi - 1 do
      acc.(u) <- acc.(u) + other.(u)
    done
  done

(* Phase 2b for settle-worker [w]'s bins: settle from the committed
   parity buffer into the other one, leaving the slice's
   (max_load, empty) for the reduce. *)
let settle_phase t ~rnd w =
  let lo, hi = settle_slice_bounds t w in
  t.parts.(w) <-
    Process.step_settle_into ~src:t.lds.(rnd land 1)
      ~dst:t.lds.((rnd + 1) land 1)
      ~arrivals:t.merged ~capacity:t.capacity ~lo ~hi

let reduce parts =
  Array.fold_left
    (fun (max_l, empty) (m, e) -> (Stdlib.max max_l m, empty + e))
    (0, 0) parts

(* Guarded phase execution: the failpoint fires at phase entry (so an
   injected fault never does partial work), the supervisor retries the
   whole pure phase.  Failpoints are bypassed once the engine has
   degraded — the degraded run must make progress. *)
let guarded t name workers body =
  let run ~round:rnd w =
    let r = rnd + 1 in
    Supervisor.supervise t.supervisor ~name ~round:r ~shard:w (fun ~attempt ->
        if not t.degraded then
          Failpoint.trip t.failpoints ~name ~round:r ~shard:w ~attempt;
        body ~rnd w)
  in
  { Parallel.name; workers; run }

let stages t =
  [
    [ guarded t "sharded.launch" t.launchers (launch_phase t) ];
    [
      guarded t "sharded.merge" t.settlers (fun ~rnd:_ w -> merge_phase t w);
      guarded t "sharded.settle" t.settlers (settle_phase t);
    ];
  ]

(* Observables of a completed round: after its last barrier every
   slice's (max_load, empty) is final in [parts], and the launch stage
   of the next round does not touch them. *)
let observe t ~round =
  let max_load, empty_bins = reduce t.parts in
  t.probe.on_round ~round ~max_load ~empty_bins ~balls:t.m

let pass t ~domains ~target =
  Parallel.rounds ~probe:t.probe ~family:"sharded" ~domains ~round:t.round
    ~rounds:(target - t.round) ~observe:(observe t) (stages t)

(* Rounds before a failure at round [rf] (0-based) committed normally,
   and round [rf]'s committed configuration is still intact in the
   parity buffer.  Unsupervised, the engine stops there and re-raises.
   Supervised, it degrades: the rest of the call runs again on one
   domain with failpoints bypassed (so a deterministic every-round
   fault cannot wedge the fallback too); the trajectory is unchanged
   because every phase is deterministic in (master, round). *)
let run t ~rounds =
  if rounds < 0 then invalid_arg "Sharded.run: rounds < 0";
  if rounds > 0 then begin
    let r0 = t.round and target = t.round + rounds in
    let failure =
      match pass t ~domains:t.domains ~target with
      | Some (rf, w, exn) when Supervisor.enabled t.supervisor ->
          t.round <- rf;
          t.degraded <- true;
          t.probe.add "sharded.degraded" 1;
          Tracer.fault t.tracer ~name:"sharded.degraded" ~round:(rf + 1)
            ~shard:w ~attempt:0
            ~detail:
              (Printf.sprintf "degraded to sequential engine: %s"
                 (Printexc.to_string exn));
          pass t ~domains:1 ~target
      | failure -> failure
    in
    (match failure with
    | None ->
        t.round <- target;
        let max_load, empty = reduce t.parts in
        t.max_load <- max_load;
        t.empty <- empty
    | Some (rf, _, _) ->
        t.round <- rf;
        refresh_aggregates t);
    let committed = t.round - r0 in
    t.probe.add "sharded.rounds" committed;
    t.probe.add "sharded.launch.blocks"
      (committed * Process.shard_count ~bins:(n t));
    Option.iter (fun (_, _, exn) -> raise exn) failure
  end

let step t = run t ~rounds:1

let engine t =
  {
    Engine.kind = Balls;
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
    d_choices = t.d;
    capacity = t.capacity;
    weighted = t.alias <> None;
  }

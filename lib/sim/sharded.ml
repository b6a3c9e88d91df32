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
  telemetry : Telemetry.t;
  tracer : Tracer.t;
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
  let lds =
    let other = Array.make bins 0 in
    (* current parity slot gets the initial configuration *)
    if round land 1 = 0 then [| loads; other |] else [| other; loads |]
  in
  let telemetry_sink = telemetry in
  let tracer_sink = tracer in
  (* Splice fault reporting onto the caller's supervisor: every failed
     attempt becomes a trace fault record and telemetry counters,
     whether it is retried or gives up. *)
  let supervisor =
    Supervisor.with_on_event supervisor (fun (e : Supervisor.event) ->
        Telemetry.incr telemetry_sink "sharded.faults";
        if e.giving_up then Telemetry.incr telemetry_sink "sharded.fault.giving_up"
        else Telemetry.incr telemetry_sink "sharded.retries";
        Tracer.fault tracer_sink ~name:e.name ~round:e.round ~shard:e.shard
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
    settlers = Stdlib.min domains bins;
    bufs = Array.init launchers (fun _ -> Array.make bins 0);
    telemetry;
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
   is zeroed first — the phase is restartable.  Returns the number of
   blocks actually launched, so telemetry counters reflect real work
   done rather than a formula. *)
let launch_phase t ~src ~rnd w =
  let bins = n t in
  let blocks = Process.shard_count ~bins in
  let buf = t.bufs.(w) in
  Array.fill buf 0 bins 0;
  let launched = ref 0 in
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
        ~d:t.d ?alias:t.alias ~lo ~hi ();
      incr launched
    done;
    j := !j + t.launchers
  done;
  !launched

(* The bin range settle-worker [w] owns. *)
let settle_slice_bounds t w =
  let bins = n t in
  (w * bins / t.settlers, (w + 1) * bins / t.settlers)

(* Phase 2a for bins [lo, hi): overwrite [merged] with the sum of the
   per-launcher arrival buffers.  Workers own disjoint slices and the
   write is a pure overwrite, so the phase is race-free and
   restartable. *)
let merge_slice t ~lo ~hi =
  let acc = t.merged in
  Array.blit t.bufs.(0) lo acc lo (hi - lo);
  for b = 1 to t.launchers - 1 do
    let other = t.bufs.(b) in
    for u = lo to hi - 1 do
      acc.(u) <- acc.(u) + other.(u)
    done
  done

(* Phase 2b for bins [lo, hi): settle from the committed parity buffer
   into the other one, returning the slice's (max_load, empty) for the
   reduce. *)
let settle_slice t ~src ~dst ~lo ~hi =
  Process.step_settle_into ~src ~dst ~arrivals:t.merged ~capacity:t.capacity
    ~lo ~hi

let reduce_parts t parts =
  let max_l = ref 0 and empty = ref 0 in
  Array.iter
    (fun (m, e) ->
      if m > !max_l then max_l := m;
      empty := !empty + e)
    parts;
  t.max_load <- !max_l;
  t.empty <- !empty

(* Guarded phase execution: the failpoint fires at phase entry (so an
   injected fault never does partial work), the supervisor retries the
   whole pure phase.  Failpoints are bypassed once the engine has
   degraded — the degraded run must make progress. *)
let guarded t ~name ~rnd ~shard f =
  let r = rnd + 1 in
  Supervisor.supervise t.supervisor ~name ~round:r ~shard (fun ~attempt ->
      if not t.degraded then
        Failpoint.trip t.failpoints ~name ~round:r ~shard ~attempt;
      f ())

(* Deterministic failure slot: the smallest (round, worker) failure
   wins, whatever order the domains fail in. *)
let record_failure slot ~rnd ~index exn =
  let rec go () =
    match Atomic.get slot with
    | Some (r, j, _) when (r, j) <= (rnd, index) -> ()
    | cur ->
        if not (Atomic.compare_and_set slot cur (Some (rnd, index, exn))) then
          go ()
  in
  go ()

let workers t = Stdlib.max t.launchers t.settlers

let run_inline t ~rounds =
  let parts = Array.make t.settlers (0, 0) in
  let tel = t.telemetry in
  let tr = t.tracer in
  let tel_on = Telemetry.enabled tel in
  let tr_on = Tracer.enabled tr in
  let timed = tel_on || tr_on in
  let now () =
    if tel_on then Telemetry.now tel else if tr_on then Tracer.now tr else 0L
  in
  let blocks = ref 0 in
  for _ = 1 to rounds do
    let rnd = t.round in
    let src = t.lds.(rnd land 1) and dst = t.lds.((rnd + 1) land 1) in
    let t0 = if timed then now () else 0L in
    for w = 0 to t.launchers - 1 do
      blocks :=
        !blocks
        + guarded t ~name:"sharded.launch" ~rnd ~shard:w (fun () ->
              launch_phase t ~src ~rnd w)
    done;
    let t1 = if timed then now () else 0L in
    for w = 0 to t.settlers - 1 do
      let lo, hi = settle_slice_bounds t w in
      guarded t ~name:"sharded.merge" ~rnd ~shard:w (fun () ->
          merge_slice t ~lo ~hi)
    done;
    let t2 = if timed then now () else 0L in
    for w = 0 to t.settlers - 1 do
      let lo, hi = settle_slice_bounds t w in
      parts.(w) <-
        guarded t ~name:"sharded.settle" ~rnd ~shard:w (fun () ->
            settle_slice t ~src ~dst ~lo ~hi)
    done;
    reduce_parts t parts;
    t.round <- t.round + 1;
    if timed then begin
      let t3 = now () in
      if tel_on then begin
        Telemetry.timer_add tel "sharded.launch" (Int64.sub t1 t0);
        Telemetry.timer_add tel "sharded.merge" (Int64.sub t2 t1);
        Telemetry.timer_add tel "sharded.settle" (Int64.sub t3 t2);
        Telemetry.record_latency tel (Int64.sub t3 t0)
      end;
      if tr_on then begin
        Tracer.span tr ~name:"sharded.launch" ~worker:0 ~round:t.round ~t0 ~t1;
        Tracer.span tr ~name:"sharded.merge" ~worker:0 ~round:t.round ~t0:t1
          ~t1:t2;
        Tracer.span tr ~name:"sharded.settle" ~worker:0 ~round:t.round ~t0:t2
          ~t1:t3;
        Tracer.observe tr ~round:t.round ~max_load:t.max_load
          ~empty_bins:t.empty ~balls:t.m
      end
    end
  done;
  if tel_on then begin
    Telemetry.add tel "sharded.rounds" rounds;
    Telemetry.add tel "sharded.launch.blocks" !blocks
  end

(* After a retry budget is exhausted at round [rf] (0-based), the
   committed configuration of round [rf] is still intact in the parity
   buffer, so the engine falls back to the sequential inline path for
   the remaining rounds rather than crashing — the trajectory is
   unchanged because every phase is deterministic in (master, round).
   Failpoints are bypassed from here on (the degraded flag), so a
   deterministic every-round fault cannot wedge the fallback too. *)
let degrade_and_finish t ~rf ~w ~exn ~target_round =
  t.round <- rf;
  refresh_aggregates t;
  t.degraded <- true;
  Telemetry.incr t.telemetry "sharded.degraded";
  Tracer.fault t.tracer ~name:"sharded.degraded" ~round:(rf + 1) ~shard:w
    ~attempt:0
    ~detail:
      (Printf.sprintf "degraded to sequential engine: %s"
         (Printexc.to_string exn));
  run_inline t ~rounds:(target_round - rf)

let run_pooled t ~rounds =
  (* One spawn per worker for the whole run; rounds are separated by
     barriers, not by fresh domains, so the per-round overhead is two
     rendezvous instead of 2w spawns.  A worker that raises keeps
     attending the barriers (skipping its phase work) so its peers never
     deadlock; after the join the smallest (round, worker) failure
     either degrades the engine (supervised) or is re-raised with the
     engine rolled back to its last committed round.

     Telemetry: each worker accumulates its per-phase nanoseconds in
     locals and flushes them once after the loop, so an active sink
     costs two clock reads per phase per round and zero lock traffic on
     the rounds themselves; worker 0 additionally records the per-round
     latency.  With the noop sink the clock reads collapse to
     constants. *)
  let w_count = workers t in
  let barrier = Parallel.Barrier.create w_count in
  let failure = Atomic.make None in
  let parts = Array.make t.settlers (0, 0) in
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
    let launch_ns = ref 0L and merge_ns = ref 0L and settle_ns = ref 0L in
    let barrier_ns = ref 0L in
    let blocks = ref 0 in
    for rnd = r0 to r0 + rounds - 1 do
      (* Completed-round number, matching Process/Tetris tracing. *)
      let r = rnd + 1 in
      let src = t.lds.(rnd land 1) and dst = t.lds.((rnd + 1) land 1) in
      let t0 = now () in
      (try
         if w < t.launchers && Atomic.get failure = None then
           blocks :=
             !blocks
             + guarded t ~name:"sharded.launch" ~rnd ~shard:w (fun () ->
                   launch_phase t ~src ~rnd w)
       with exn -> record_failure failure ~rnd ~index:w exn);
      let t1 = now () in
      if tr_on && w < t.launchers then
        Tracer.span tr ~name:"sharded.launch" ~worker:w ~round:r ~t0 ~t1;
      Parallel.Barrier.wait barrier;
      let t2 = now () in
      (try
         if w < t.settlers && Atomic.get failure = None then begin
           let lo, hi = settle_slice_bounds t w in
           guarded t ~name:"sharded.merge" ~rnd ~shard:w (fun () ->
               merge_slice t ~lo ~hi);
           let tm = now () in
           tick merge_ns t2 tm;
           if tr_on then
             Tracer.span tr ~name:"sharded.merge" ~worker:w ~round:r ~t0:t2
               ~t1:tm;
           parts.(w) <-
             guarded t ~name:"sharded.settle" ~rnd ~shard:w (fun () ->
                 settle_slice t ~src ~dst ~lo ~hi);
           let ts = now () in
           tick settle_ns tm ts;
           if tr_on then
             Tracer.span tr ~name:"sharded.settle" ~worker:w ~round:r ~t0:tm
               ~t1:ts
         end
       with exn -> record_failure failure ~rnd ~index:w exn);
      let t3 = now () in
      Parallel.Barrier.wait barrier;
      let t4 = now () in
      tick launch_ns t0 t1;
      tick barrier_ns t1 t2;
      tick barrier_ns t3 t4;
      if tr_on then
        Tracer.span tr ~name:"sharded.barrier" ~worker:w ~round:r ~t0:t3 ~t1:t4;
      if timed && w = 0 then Telemetry.record_latency tel (Int64.sub t4 t0);
      (* Per-round observables: after the second barrier every slice's
         (max_load, empty) for this round is final in [parts], and the
         next round cannot overwrite them until this worker passes the
         next first barrier — so worker 0 may read them race-free here. *)
      if tr_on && w = 0 && Atomic.get failure = None then begin
        let max_l = ref 0 and empty = ref 0 in
        Array.iter
          (fun (m, e) ->
            if m > !max_l then max_l := m;
            empty := !empty + e)
          parts;
        Tracer.observe tr ~round:r ~max_load:!max_l ~empty_bins:!empty
          ~balls:t.m
      end
    done;
    if tel_on then begin
      Telemetry.timer_add tel "sharded.launch" !launch_ns;
      Telemetry.timer_add tel "sharded.merge" !merge_ns;
      Telemetry.timer_add tel "sharded.settle" !settle_ns;
      Telemetry.timer_add tel "sharded.barrier_wait" !barrier_ns;
      Telemetry.add tel "sharded.launch.blocks" !blocks
    end
  in
  List.iter Domain.join (List.init w_count (fun w -> Domain.spawn (work w)));
  match Atomic.get failure with
  | Some (rf, w, exn) ->
      (* Rounds before [rf] committed normally; account them before
         degrading or raising so telemetry totals stay resume-exact. *)
      if tel_on then Telemetry.add tel "sharded.rounds" (rf - r0);
      if Supervisor.enabled t.supervisor then
        degrade_and_finish t ~rf ~w ~exn ~target_round:(r0 + rounds)
      else begin
        (* Unsupervised: re-raise, but leave the engine crash-consistent
           at its last committed round instead of in an unspecified
           state. *)
        t.round <- rf;
        refresh_aggregates t;
        raise exn
      end
  | None ->
      reduce_parts t parts;
      t.round <- r0 + rounds;
      if tel_on then Telemetry.add tel "sharded.rounds" rounds

let run t ~rounds =
  if rounds < 0 then invalid_arg "Sharded.run: rounds < 0";
  if rounds > 0 then
    if workers t = 1 then run_inline t ~rounds else run_pooled t ~rounds

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

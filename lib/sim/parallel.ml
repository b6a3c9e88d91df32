let default_domains () = Stdlib.max 1 (Domain.recommended_domain_count () - 1)

module Barrier = struct
  (* Generation-counting barrier on Mutex/Condition: blocking rather
     than spinning, so oversubscribed configurations (more domains than
     cores) yield the processor instead of burning their timeslice. *)
  type t = {
    lock : Mutex.t;
    arrived : Condition.t;
    parties : int;
    mutable count : int;
    mutable generation : int;
  }

  let create parties =
    if parties < 1 then invalid_arg "Parallel.Barrier.create: parties < 1";
    {
      lock = Mutex.create ();
      arrived = Condition.create ();
      parties;
      count = 0;
      generation = 0;
    }

  let wait b =
    Mutex.lock b.lock;
    let generation = b.generation in
    b.count <- b.count + 1;
    if b.count = b.parties then begin
      b.count <- 0;
      b.generation <- generation + 1;
      Condition.broadcast b.arrived
    end
    else
      while b.generation = generation do
        Condition.wait b.arrived b.lock
      done;
    Mutex.unlock b.lock
end

(* Deterministic failure slot: keep the exception with the smallest
   key, whatever order the domains happen to fail in. *)
let record_failure slot key exn =
  let rec go () =
    match Atomic.get slot with
    | Some (k, _) when k <= key -> ()
    | cur ->
        if not (Atomic.compare_and_set slot cur (Some (key, exn))) then go ()
  in
  go ()

type phase = { name : string; workers : int; run : round:int -> int -> unit }

let rounds ~(probe : Rbb_core.Probe.t) ~family ~domains ~round ~rounds ~observe
    stages =
  if domains < 1 then invalid_arg "Parallel.rounds: domains < 1";
  if rounds < 0 then invalid_arg "Parallel.rounds: rounds < 0";
  let workers =
    List.fold_left (List.fold_left (fun w p -> Stdlib.max w p.workers)) 0 stages
  in
  let stages = Array.of_list (List.map Array.of_list stages) in
  let domains = Stdlib.min domains workers in
  if rounds = 0 || domains = 0 then None
  else begin
    (* Keyed (round, stage, worker).  A stage is skipped once an
       {e earlier} stage failed; a failure inside the running stage
       never stops its other workers, so the set of raisers — hence the
       reported one — does not depend on how the domains interleave.
       Every skipped stage still ends at its barrier: no domain leaves
       the rendezvous its peers are waiting at. *)
    let failure = Atomic.make None in
    let failed_before rnd stage =
      match Atomic.get failure with
      | Some ((r, s, _), _) -> (r, s) < (rnd, stage)
      | None -> false
    in
    let last = Array.length stages - 1 in
    let timed = Rbb_core.Probe.live probe in
    let now () = if timed then probe.now () else 0L in
    let barrier = Barrier.create domains in
    (* Domain [d] plays workers d, d + domains, ...; its phase and
       barrier times accumulate in locals flushed once per call. *)
    let play d () =
      let ns = Array.map (fun st -> Array.make (Array.length st) 0L) stages in
      let barrier_ns = ref 0L in
      for rnd = round to round + rounds - 1 do
        (* Spans carry the completed-round number, as the sequential
           engines' do. *)
        let r = rnd + 1 in
        let start = now () in
        Array.iteri
          (fun s stage ->
            if not (failed_before rnd s) then
              Array.iteri
                (fun i p ->
                  let w = ref d and t0 = ref (now ()) in
                  while !w < p.workers do
                    (try p.run ~round:rnd !w
                     with exn -> record_failure failure (rnd, s, !w) exn);
                    let t1 = now () in
                    ns.(s).(i) <- Int64.add ns.(s).(i) (Int64.sub t1 !t0);
                    if probe.tracing then
                      probe.on_span ~name:p.name ~worker:!w ~round:r ~t0:!t0 ~t1;
                    t0 := t1;
                    w := !w + domains
                  done)
                stage;
            if domains > 1 then begin
              let t0 = now () in
              Barrier.wait barrier;
              let t1 = now () in
              barrier_ns := Int64.add !barrier_ns (Int64.sub t1 t0);
              if probe.tracing && s = last then
                probe.on_span ~name:(family ^ ".barrier") ~worker:d ~round:r ~t0
                  ~t1
            end)
          stages;
        (* After the round's last barrier a failure of round [rnd] is
           visible to every domain, and a peer already running round
           [rnd + 1] cannot make this test true. *)
        if d = 0 && not (failed_before rnd (last + 1)) then begin
          if probe.enabled then probe.latency (Int64.sub (now ()) start);
          if probe.tracing then observe ~round:r
        end
      done;
      if probe.enabled then begin
        Array.iteri
          (fun s stage ->
            Array.iteri (fun i p -> probe.timer_add p.name ns.(s).(i)) stage)
          stages;
        if domains > 1 then probe.timer_add (family ^ ".barrier_wait") !barrier_ns
      end
    in
    if domains = 1 then play 0 ()
    else List.iter Domain.join (List.init domains (fun d -> Domain.spawn (play d)));
    Option.map (fun ((r, _, w), exn) -> (r, w, exn)) (Atomic.get failure)
  end

let map_domains ?(telemetry = Telemetry.noop) ?domains ~tasks f =
  let domains = match domains with Some d -> d | None -> default_domains () in
  if domains < 1 then invalid_arg "Parallel.map_domains: domains < 1";
  if tasks < 0 then invalid_arg "Parallel.map_domains: negative tasks";
  if tasks = 0 then [||]
  else begin
    let results = Array.make tasks None in
    let failure = Atomic.make None in
    let workers = Stdlib.min domains tasks in
    let timed = Telemetry.enabled telemetry in
    (* Worker [w] owns tasks w, w + workers, ...: the assignment depends
       only on the task index and [workers], and every task writes its
       own slot, so the result array is domain-schedule independent. *)
    let work w () =
      let t0 = if timed then Telemetry.now telemetry else 0L in
      let executed = ref 0 in
      let i = ref w in
      while !i < tasks do
        (match f !i with
        | v -> results.(!i) <- Some v
        | exception exn -> record_failure failure !i exn);
        incr executed;
        i := !i + workers
      done;
      if timed then begin
        Telemetry.add telemetry
          (Printf.sprintf "parallel.worker%d.tasks" w)
          !executed;
        Telemetry.timer_add telemetry
          (Printf.sprintf "parallel.worker%d.wall" w)
          (Int64.sub (Telemetry.now telemetry) t0)
      end
    in
    if workers = 1 then work 0 ()
    else List.iter Domain.join (List.init workers (fun w -> Domain.spawn (work w)));
    if timed then Telemetry.add telemetry "parallel.tasks" tasks;
    (match Atomic.get failure with
    | Some (_, exn) -> raise exn
    | None -> ());
    Array.map
      (function Some v -> v | None -> failwith "Parallel.map_domains: missing result")
      results
  end

let try_run ?telemetry ?engine ?domains ~base_seed ~trials f =
  if trials < 0 then invalid_arg "Parallel.run: negative trials";
  let seeds = Replicate.seeds ~base:base_seed ~count:trials in
  map_domains ?telemetry ?domains ~tasks:trials (fun i ->
      let rng = Rbb_prng.Rng.create ?engine ~seed:seeds.(i) () in
      match f rng with v -> Ok v | exception exn -> Error exn)

let run ?telemetry ?engine ?domains ~base_seed ~trials f =
  let results = try_run ?telemetry ?engine ?domains ~base_seed ~trials f in
  (* Array.iter visits slots left to right, so the raised exception is
     always the failing trial with the smallest index. *)
  Array.iter (function Error exn -> raise exn | Ok _ -> ()) results;
  Array.map (function Ok v -> v | Error _ -> assert false) results

let run_floats ?telemetry ?engine ?domains ~base_seed ~trials f =
  Rbb_stats.Summary.of_array (run ?telemetry ?engine ?domains ~base_seed ~trials f)

open Rbb_core

(* Every engine's [create] is its [restore] at round 0 with a master
   key freshly drawn from the creation rng (Process.shard_master), so
   one builder over the restore functions serves both entry points. *)
let build ?(telemetry = Telemetry.noop) ?(tracer = Tracer.noop)
    ?(failpoints = Failpoint.noop) ?supervisor ?(shards = 1) ?(domains = 1)
    ~(kind : Engine.kind) ~d_choices ~capacity ~rng ~master ~round ~init () =
  let parallel = shards > 1 || domains > 1 || Failpoint.enabled failpoints in
  let probe = Probe.compose (Telemetry.probe telemetry) (Tracer.probe tracer) in
  match kind with
  | Balls when parallel ->
      Sharded.engine
        (Sharded.restore ~telemetry ~tracer ~failpoints ?supervisor ~d_choices
           ~capacity ~shards ~domains ~rng ~master ~round ~init ())
  | Balls ->
      Process.engine ~probe
        (Process.restore ~d_choices ~capacity ~rng ~master ~round ~init ())
  | Counts ->
      if d_choices > 1 then
        invalid_arg
          "Engines: the counts engine supports uniform re-assignment only \
           (d_choices = 1)";
      if Failpoint.enabled failpoints then
        invalid_arg
          "Engines: failpoints guard the per-ball sharded engine; the counts \
           engine has no failpoint surface";
      if parallel then
        Sharded_counts.engine
          (Sharded_counts.restore ~telemetry ~tracer ~capacity ~domains ~rng
             ~master ~round ~init ())
      else
        Counts_process.engine ~probe
          (Counts_process.restore ~capacity ~rng ~master ~round ~init ())

let create ?telemetry ?tracer ?failpoints ?supervisor ?(d_choices = 1) ?shards
    ?domains ~kind ~rng ~init () =
  let master = Process.shard_master rng in
  build ?telemetry ?tracer ?failpoints ?supervisor ?shards ?domains ~kind
    ~d_choices ~capacity:1 ~rng ~master ~round:0 ~init ()

let restore ?(telemetry = Telemetry.noop) ?tracer ?failpoints ?supervisor
    ?shards ?domains (snap : Checkpoint.snapshot) =
  let engine =
    build ~telemetry ?tracer ?failpoints ?supervisor ?shards ?domains
      ~kind:snap.kind ~d_choices:snap.d_choices ~capacity:snap.capacity
      ~rng:(Rbb_prng.Rng.of_snapshot snap.rng)
      ~master:snap.master ~round:snap.round ~init:snap.config ()
  in
  List.iter (fun (name, v) -> Telemetry.add telemetry name v) snap.counters;
  engine

(* Counters / gauges / timers registry with deterministic JSON
   rendering.  All mutation goes through one mutex, so a sink can be
   shared by the worker domains of Sharded / Parallel; the noop sink
   short-circuits every operation to a single pattern match. *)

type timer = { mutable calls : int; mutable total_ns : int64 }

(* Power-of-two latency buckets: index 0 holds samples <= 0 ns, index
   i >= 1 holds samples in [2^(i-1), 2^i - 1]. *)
let buckets = 64

type sink = {
  clock : unit -> int64;
  lock : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  timers : (string, timer) Hashtbl.t;
  latency : int array;
  mutable latency_count : int;
}

type t = Noop | Active of sink

let noop = Noop

let create ?(clock = Monotonic_clock.now) () =
  Active
    {
      clock;
      lock = Mutex.create ();
      counters = Hashtbl.create 16;
      gauges = Hashtbl.create 16;
      timers = Hashtbl.create 16;
      latency = Array.make buckets 0;
      latency_count = 0;
    }

let enabled = function Noop -> false | Active _ -> true
let now = function Noop -> 0L | Active s -> s.clock ()

(* Mutators: the critical sections only touch hashtables and never
   raise, so plain lock/unlock (no Fun.protect allocation) is safe. *)

let add t name k =
  match t with
  | Noop -> ()
  | Active s ->
      Mutex.lock s.lock;
      (match Hashtbl.find_opt s.counters name with
      | Some r -> r := !r + k
      | None -> Hashtbl.add s.counters name (ref k));
      Mutex.unlock s.lock

let incr t name = add t name 1

let set_gauge t name v =
  match t with
  | Noop -> ()
  | Active s ->
      Mutex.lock s.lock;
      (match Hashtbl.find_opt s.gauges name with
      | Some r -> r := v
      | None -> Hashtbl.add s.gauges name (ref v));
      Mutex.unlock s.lock

let timer_add t name ns =
  match t with
  | Noop -> ()
  | Active s ->
      Mutex.lock s.lock;
      (match Hashtbl.find_opt s.timers name with
      | Some tm ->
          tm.calls <- tm.calls + 1;
          tm.total_ns <- Int64.add tm.total_ns ns
      | None -> Hashtbl.add s.timers name { calls = 1; total_ns = ns });
      Mutex.unlock s.lock

let span t name f =
  match t with
  | Noop -> f ()
  | Active s ->
      let t0 = s.clock () in
      Fun.protect
        ~finally:(fun () -> timer_add t name (Int64.sub (s.clock ()) t0))
        f

let bucket_of_ns ns =
  if Int64.compare ns 1L < 0 then 0
  else begin
    let rec go idx v =
      if Int64.compare v 1L <= 0 then idx
      else go (idx + 1) (Int64.shift_right_logical v 1)
    in
    Stdlib.min (buckets - 1) (go 1 ns)
  end

let record_latency t ns =
  match t with
  | Noop -> ()
  | Active s ->
      Mutex.lock s.lock;
      s.latency.(bucket_of_ns ns) <- s.latency.(bucket_of_ns ns) + 1;
      s.latency_count <- s.latency_count + 1;
      Mutex.unlock s.lock

(* Readers ----------------------------------------------------------- *)

let counter t name =
  match t with
  | Noop -> 0
  | Active s ->
      Mutex.lock s.lock;
      let v =
        match Hashtbl.find_opt s.counters name with Some r -> !r | None -> 0
      in
      Mutex.unlock s.lock;
      v

let gauge t name =
  match t with
  | Noop -> None
  | Active s ->
      Mutex.lock s.lock;
      let v = Option.map ( ! ) (Hashtbl.find_opt s.gauges name) in
      Mutex.unlock s.lock;
      v

let timer t name =
  match t with
  | Noop -> (0, 0L)
  | Active s ->
      Mutex.lock s.lock;
      let v =
        match Hashtbl.find_opt s.timers name with
        | Some tm -> (tm.calls, tm.total_ns)
        | None -> (0, 0L)
      in
      Mutex.unlock s.lock;
      v

let latency_count = function Noop -> 0 | Active s -> s.latency_count

let counters t =
  match t with
  | Noop -> []
  | Active s ->
      Mutex.lock s.lock;
      let kvs = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) s.counters [] in
      Mutex.unlock s.lock;
      List.sort (fun (a, _) (b, _) -> String.compare a b) kvs

let gauges t =
  match t with
  | Noop -> []
  | Active s ->
      Mutex.lock s.lock;
      let kvs = Hashtbl.fold (fun k r acc -> (k, !r) :: acc) s.gauges [] in
      Mutex.unlock s.lock;
      List.sort (fun (a, _) (b, _) -> String.compare a b) kvs

let timers t =
  match t with
  | Noop -> []
  | Active s ->
      Mutex.lock s.lock;
      let kvs =
        Hashtbl.fold
          (fun k tm acc -> (k, (tm.calls, tm.total_ns)) :: acc)
          s.timers []
      in
      Mutex.unlock s.lock;
      List.sort (fun (a, _) (b, _) -> String.compare a b) kvs

(* JSON rendering ----------------------------------------------------- *)

let sorted_keys tbl =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let render_section b ~name ~keys ~render_value =
  Buffer.add_string b (Printf.sprintf "  \"%s\": {" name);
  (match keys with
  | [] -> Buffer.add_string b "}"
  | keys ->
      Buffer.add_string b "\n";
      List.iteri
        (fun i k ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b
            (Printf.sprintf "    \"%s\": %s" (Jsonl.escape k) (render_value k)))
        keys;
      Buffer.add_string b "\n  }")

let to_json_string t =
  match t with
  | Noop ->
      "{\n  \"schema\": \"rbb.telemetry/1\",\n  \"counters\": {},\n\
      \  \"gauges\": {},\n  \"timers\": {},\n\
      \  \"round_latency_ns\": { \"count\": 0, \"buckets\": [] }\n}"
  | Active s ->
      Mutex.lock s.lock;
      let b = Buffer.create 1024 in
      Buffer.add_string b "{\n  \"schema\": \"rbb.telemetry/1\",\n";
      render_section b ~name:"counters" ~keys:(sorted_keys s.counters)
        ~render_value:(fun k ->
          string_of_int !(Hashtbl.find s.counters k));
      Buffer.add_string b ",\n";
      render_section b ~name:"gauges" ~keys:(sorted_keys s.gauges)
        ~render_value:(fun k ->
          Jsonl.float_repr !(Hashtbl.find s.gauges k));
      Buffer.add_string b ",\n";
      render_section b ~name:"timers" ~keys:(sorted_keys s.timers)
        ~render_value:(fun k ->
          let tm = Hashtbl.find s.timers k in
          Printf.sprintf "{ \"calls\": %d, \"total_ns\": %Ld }" tm.calls
            tm.total_ns);
      Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf "  \"round_latency_ns\": {\n    \"count\": %d,\n\
                        \    \"buckets\": ["
           s.latency_count);
      let first = ref true in
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            if not !first then Buffer.add_string b ",";
            first := false;
            let le = if i = 0 then 0L else Int64.sub (Int64.shift_left 1L i) 1L in
            Buffer.add_string b
              (Printf.sprintf "\n      { \"le\": %Ld, \"count\": %d }" le c)
          end)
        s.latency;
      if not !first then Buffer.add_string b "\n    ";
      Buffer.add_string b "]\n  }\n}";
      Mutex.unlock s.lock;
      Buffer.contents b

let write_json t ~path =
  Fileio.write_atomic ~path (fun oc ->
      output_string oc (to_json_string t);
      output_char oc '\n')

(* One-line document holding only the deterministic slice of the
   registry: counters are seed-stable and restored across a resume
   (see {!counters}), so this string is byte-identical between a
   resumed job and one that never crashed — which is what lets it be
   embedded in pinned result files. *)
let counters_json t =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"counters\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" (Jsonl.escape k) v))
    (counters t);
  Buffer.add_string b "},\"schema\":\"rbb.telemetry-counters/1\"}";
  Buffer.contents b

(* Bridge to the core engines' instrumentation interface. *)
let probe t =
  match t with
  | Noop -> Rbb_core.Probe.noop
  | Active s ->
      {
        Rbb_core.Probe.noop with
        enabled = true;
        now = s.clock;
        add = (fun name k -> add t name k);
        timer_add = (fun name ns -> timer_add t name ns);
        latency = (fun ns -> record_latency t ns);
      }

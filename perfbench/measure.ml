(* Clock, sample sets, quantiles, gates and the JSON lines the benchmark
   prints.  Everything here is outside the measured code. *)

let now () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e6

(* [timed f] is [(f (), wall-clock milliseconds)]. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)

let time_ms f = snd (timed f)

(* A growable set of float samples. *)
module Samples = struct
  type t = { mutable xs : float array; mutable len : int }

  let create () = { xs = Array.make 64 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.xs then begin
      let ys = Array.make (2 * t.len) 0. in
      Array.blit t.xs 0 ys 0 t.len;
      t.xs <- ys
    end;
    t.xs.(t.len) <- x;
    t.len <- t.len + 1

  let count t = t.len
  let to_array t = Array.sub t.xs 0 t.len

  (* Type-7 quantile (linear interpolation between order statistics);
     NaN on an empty set, so a missing sample shows in the output
     instead of raising. *)
  let quantile t q =
    if t.len = 0 then nan
    else begin
      let a = to_array t in
      Array.sort Float.compare a;
      let h = q *. float_of_int (t.len - 1) in
      let lo = truncate h in
      let hi = min (lo + 1) (t.len - 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))
    end

  let median t = quantile t 0.5

  let lowest t = quantile t 0.

  let mean t =
    if t.len = 0 then nan
    else Array.fold_left ( +. ) 0. (to_array t) /. float_of_int t.len
end

(* Samples taken in chunks of a run.  A chunk's median shrugs off the
   odd preempted sample; [fastest], the lowest of the chunks' medians,
   is the chunk that ran while the box was at its fastest. *)
module Chunked = struct
  type t = { all : Samples.t; mutable cur : Samples.t; medians : Samples.t }

  let create () =
    { all = Samples.create (); cur = Samples.create (); medians = Samples.create () }

  let add t x =
    Samples.add t.all x;
    Samples.add t.cur x

  (* Ends the current chunk; a chunk without samples adds nothing. *)
  let close t =
    if Samples.count t.cur > 0 then begin
      Samples.add t.medians (Samples.median t.cur);
      t.cur <- Samples.create ()
    end

  let fastest t = Samples.lowest t.medians
end

(* [repeat k f] collects [k] samples of [f ()]. *)
let repeat k f =
  let s = Samples.create () in
  for _ = 1 to k do
    Samples.add s (f ())
  done;
  s

(* Correctness gates: every failure is reported on stderr and turns the
   run's [correct] field false. *)
let gate_failures = ref []

let gate name ok =
  if not ok then begin
    Printf.eprintf "perfbench: GATE FAILED: %s\n%!" name;
    gate_failures := name :: !gate_failures
  end

let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "perfbench: %s\n%!" s) fmt

(* Metrics as measured, in output order. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What one phase of a run reports. *)
type result = {
  e2e : metric list;  (** printed by untraced runs *)
  layer : metric list;  (** printed by traced runs *)
  attempted : int;
  failed : int;
}

let json_float x = if Float.is_finite x then Printf.sprintf "%.12g" x else "null"

let json_string s = "\"" ^ Rbb_sim.Jsonl.escape s ^ "\""

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
             (json_float m.value) (json_string m.unit_))
         ms)
  ^ "}"

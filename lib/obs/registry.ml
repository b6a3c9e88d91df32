(* Process-wide labeled metrics registry: counters, gauges and
   log-bucketed histograms keyed by (name, sorted label set).  Same
   discipline as Telemetry: one mutex serialises all mutation, the noop
   registry short-circuits every operation to a single pattern match,
   and snapshots are deterministically ordered so renderings can be
   pinned by golden tests. *)

type labels = (string * string) list

let canonical labels =
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg (Printf.sprintf "Registry: duplicate label %S" a)
        else check rest
    | _ -> ()
  in
  check sorted;
  sorted

(* Histogram geometry: HDR-style log buckets, [sub] sub-buckets per
   octave over [2^e_min, 2^e_max).  Bucket 0 holds v <= 2^e_min (and
   every nonpositive value); the last bucket is the overflow.  With 16
   sub-buckets an octave, adjacent bounds are 2^(1/16) ~ 4.4% apart, so
   an interpolated quantile is within ~5% of the exact sample quantile
   — comfortably inside the rel-err <= 0.1 gate the slam comparison
   runs under.  All histograms share the geometry, which is what makes
   them mergeable by plain bucket-wise addition. *)

let sub = 16
let e_min = -30. (* 2^-30 s ~ 0.93 ns: below clock resolution *)
let e_max = 20. (* 2^20 s ~ 12 days *)
let nbuckets = 2 + (sub * int_of_float (e_max -. e_min))

let bound_of_bucket i =
  (* Upper bound of bucket [i]; the overflow bucket's is +inf. *)
  if i >= nbuckets - 1 then infinity
  else Float.pow 2. (e_min +. (float_of_int i /. float_of_int sub))

let bucket_of_value v =
  if not (v > bound_of_bucket 0) then 0
  else if Float.is_nan v then 0
  else
    let idx =
      1 + int_of_float (Float.floor (float_of_int sub *. (Float.log2 v -. e_min)))
    in
    let idx = if v <= bound_of_bucket (idx - 1) then idx - 1 else idx in
    Stdlib.max 1 (Stdlib.min (nbuckets - 1) idx)

type hist = { counts : int array; mutable total : int; mutable sum : float }

type kind = Kcounter | Kgauge | Khist

type series =
  | Counter of float ref
  | Gauge of float ref
  | Hist of hist

type sink = {
  clock : unit -> int64;
  lock : Mutex.t;
  series : (string * labels, series) Hashtbl.t;
  kinds : (string, kind) Hashtbl.t;
  help_texts : (string, string) Hashtbl.t;
}

type t = Noop | Active of sink

let noop = Noop

let create ?(clock = Monotonic_clock.now) () =
  Active
    {
      clock;
      lock = Mutex.create ();
      series = Hashtbl.create 32;
      kinds = Hashtbl.create 32;
      help_texts = Hashtbl.create 32;
    }

let enabled = function Noop -> false | Active _ -> true

let kind_name = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khist -> "histogram"

(* Callers hold the lock. *)
let find_series s ~name ~labels ~kind ~make =
  (match Hashtbl.find_opt s.kinds name with
  | None -> Hashtbl.add s.kinds name kind
  | Some k when k = kind -> ()
  | Some k ->
      Mutex.unlock s.lock;
      invalid_arg
        (Printf.sprintf "Registry: metric %S is a %s, not a %s" name
           (kind_name k) (kind_name kind)));
  match Hashtbl.find_opt s.series (name, labels) with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.add s.series (name, labels) v;
      v

let help t ~name text =
  match t with
  | Noop -> ()
  | Active s ->
      Mutex.lock s.lock;
      Hashtbl.replace s.help_texts name text;
      Mutex.unlock s.lock

let add t ?(labels = []) name v =
  match t with
  | Noop -> ()
  | Active s ->
      if not (v >= 0.) then
        invalid_arg
          (Printf.sprintf "Registry.add: counter %S increment must be >= 0"
             name);
      let labels = canonical labels in
      Mutex.lock s.lock;
      (match
         find_series s ~name ~labels ~kind:Kcounter ~make:(fun () ->
             Counter (ref 0.))
       with
      | Counter r -> r := !r +. v
      | Gauge _ | Hist _ -> assert false);
      Mutex.unlock s.lock

let incr t ?labels name = add t ?labels name 1.

let set_counter t ?(labels = []) name v =
  match t with
  | Noop -> ()
  | Active s ->
      let labels = canonical labels in
      Mutex.lock s.lock;
      (match
         find_series s ~name ~labels ~kind:Kcounter ~make:(fun () ->
             Counter (ref 0.))
       with
      | Counter r -> r := v
      | Gauge _ | Hist _ -> assert false);
      Mutex.unlock s.lock

let set_gauge t ?(labels = []) name v =
  match t with
  | Noop -> ()
  | Active s ->
      let labels = canonical labels in
      Mutex.lock s.lock;
      (match
         find_series s ~name ~labels ~kind:Kgauge ~make:(fun () ->
             Gauge (ref 0.))
       with
      | Gauge r -> r := v
      | Counter _ | Hist _ -> assert false);
      Mutex.unlock s.lock

let observe t ?(labels = []) name v =
  match t with
  | Noop -> ()
  | Active s ->
      let labels = canonical labels in
      Mutex.lock s.lock;
      (match
         find_series s ~name ~labels ~kind:Khist ~make:(fun () ->
             Hist { counts = Array.make nbuckets 0; total = 0; sum = 0. })
       with
      | Hist h ->
          let b = bucket_of_value v in
          h.counts.(b) <- h.counts.(b) + 1;
          h.total <- h.total + 1;
          h.sum <- h.sum +. v
      | Counter _ | Gauge _ -> assert false);
      Mutex.unlock s.lock

(* Readers ------------------------------------------------------------ *)

let with_series t ?(labels = []) name ~default f =
  match t with
  | Noop -> default
  | Active s ->
      let labels = canonical labels in
      Mutex.lock s.lock;
      let v =
        match Hashtbl.find_opt s.series (name, labels) with
        | None -> default
        | Some sr -> f sr
      in
      Mutex.unlock s.lock;
      v

let counter_value t ?labels name =
  with_series t ?labels name ~default:0. (function
    | Counter r -> !r
    | Gauge _ | Hist _ -> 0.)

let gauge_value t ?labels name =
  with_series t ?labels name ~default:None (function
    | Gauge r -> Some !r
    | Counter _ | Hist _ -> None)

let hist_count t ?labels name =
  with_series t ?labels name ~default:0 (function
    | Hist h -> h.total
    | Counter _ | Gauge _ -> 0)

let hist_sum t ?labels name =
  with_series t ?labels name ~default:0. (function
    | Hist h -> h.sum
    | Counter _ | Gauge _ -> 0.)

let reset_histograms t =
  match t with
  | Noop -> ()
  | Active s ->
      Mutex.lock s.lock;
      Hashtbl.iter
        (fun _ sr ->
          match sr with
          | Hist h ->
              Array.fill h.counts 0 nbuckets 0;
              h.total <- 0;
              h.sum <- 0.
          | Counter _ | Gauge _ -> ())
        s.series;
      Mutex.unlock s.lock

(* Snapshots ---------------------------------------------------------- *)

type histogram = {
  buckets : (float * int) list;  (* (le, cumulative count), le ascending *)
  sum : float;
  count : int;
}

type value = Vcounter of float | Vgauge of float | Vhistogram of histogram

type snapshot = {
  families : (string * (labels * value) list) list;
  helps : (string * string) list;
}

(* Emit a bucket when its own count is nonzero, plus its immediate
   predecessor bound: the predecessor pins the bucket's lower edge in
   the exposition, so a reader interpolating between published bounds
   never spans more than one true bucket width. *)
let hist_snapshot h =
  let keep = Array.make nbuckets false in
  for i = 0 to nbuckets - 1 do
    if h.counts.(i) > 0 then begin
      keep.(i) <- true;
      if i > 0 then keep.(i - 1) <- true
    end
  done;
  let buckets = ref [] in
  let cum = ref 0 in
  for i = 0 to nbuckets - 2 do
    cum := !cum + h.counts.(i);
    if keep.(i) then buckets := (bound_of_bucket i, !cum) :: !buckets
  done;
  { buckets = List.rev !buckets; sum = h.sum; count = h.total }

let compare_labels a b =
  compare (List.map (fun (k, v) -> (k, v)) a) (List.map (fun (k, v) -> (k, v)) b)

let snapshot t =
  match t with
  | Noop -> { families = []; helps = [] }
  | Active s ->
      Mutex.lock s.lock;
      let by_name = Hashtbl.create 32 in
      Hashtbl.iter
        (fun (name, labels) sr ->
          let v =
            match sr with
            | Counter r -> Vcounter !r
            | Gauge r -> Vgauge !r
            | Hist h -> Vhistogram (hist_snapshot h)
          in
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt by_name name)
          in
          Hashtbl.replace by_name name ((labels, v) :: prev))
        s.series;
      let families =
        Hashtbl.fold
          (fun name series acc ->
            (name, List.sort (fun (a, _) (b, _) -> compare_labels a b) series)
            :: acc)
          by_name []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let helps =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.help_texts []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      Mutex.unlock s.lock;
      { families; helps }

(* Merging: the shared geometry makes this bucket-wise addition over
   the published cumulative lists.  Used by tests and by readers that
   aggregate scraped histograms from several processes. *)
let merge_histogram a b =
  let deltas buckets =
    let rec go prev = function
      | [] -> []
      | (le, cum) :: rest -> (le, cum - prev) :: go cum rest
    in
    go 0 buckets
  in
  let rec merge xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> rest
    | (lx, cx) :: tx, (ly, cy) :: ty ->
        if lx < ly then (lx, cx) :: merge tx ys
        else if ly < lx then (ly, cy) :: merge xs ty
        else (lx, cx + cy) :: merge tx ty
  in
  let merged = merge (deltas a.buckets) (deltas b.buckets) in
  let _, buckets =
    List.fold_left
      (fun (cum, acc) (le, d) -> (cum + d, (le, cum + d) :: acc))
      (0, []) merged
  in
  {
    buckets = List.rev buckets;
    sum = a.sum +. b.sum;
    count = a.count + b.count;
  }

(* Quantile over a published cumulative bucket list (what a scraper
   has): Prometheus's histogram_quantile, linear within the span
   between consecutive published bounds. *)
let quantile_of_buckets buckets q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Registry.quantile_of_buckets: q not in [0,1]";
  match List.rev buckets with
  | [] -> None
  | (_, count) :: _ when count = 0 -> None
  | (last_le, count) :: _ ->
      let target = q *. float_of_int count in
      let rec scan prev_le prev_cum = function
        | [] -> Some last_le
        | (le, cum) :: rest ->
            if float_of_int cum >= target && cum > prev_cum then
              let within =
                (target -. float_of_int prev_cum)
                /. float_of_int (cum - prev_cum)
              in
              if Float.is_finite le then
                Some (prev_le +. (within *. (le -. prev_le)))
              else Some prev_le
            else scan le cum rest
      in
      scan 0. 0 buckets

(* In-process quantiles read the published buckets closed by
   (+Inf, count), exactly as Prometheus.scraped_quantile does, so a
   reader and a scraper of the same buckets agree. *)
let histogram_quantile h q =
  quantile_of_buckets (h.buckets @ [ (Float.infinity, h.count) ]) q

let quantile t ?labels name q =
  (* Checked before with_series takes the lock: nothing may raise
     while it is held. *)
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Registry.quantile: q not in [0,1]";
  Option.bind
    (with_series t ?labels name ~default:None (function
      | Hist h -> Some (hist_snapshot h)
      | Counter _ | Gauge _ -> None))
    (fun h -> histogram_quantile h q)

(* Every series of a family summed bucket-wise: the shared geometry
   makes the merge an addition of count arrays. *)
let family_histogram t name =
  match t with
  | Noop -> None
  | Active s ->
      let m = { counts = Array.make nbuckets 0; total = 0; sum = 0. } in
      Mutex.lock s.lock;
      Hashtbl.iter
        (fun (n, _) sr ->
          match sr with
          | Hist h when String.equal n name ->
              Array.iteri (fun i c -> m.counts.(i) <- m.counts.(i) + c)
                h.counts;
              m.total <- m.total + h.total;
              m.sum <- m.sum +. h.sum
          | Counter _ | Gauge _ | Hist _ -> ())
        s.series;
      Mutex.unlock s.lock;
      if m.total = 0 then None else Some (hist_snapshot m)

(* Bridge to the engines --------------------------------------------- *)

(* Raw instrument names ("process.rounds") keep their dots inside the
   registry; the Prometheus renderer sanitises on the way out. *)

let probe ?(labels = []) ?threshold t =
  match t with
  | Noop -> Rbb_core.Probe.noop
  | Active s ->
      let labels = canonical labels in
      (* Legitimacy tracking state: transitions are detected against
         the previous observed round, first observation sets the
         baseline — the same convention as Tracer. *)
      let prev_legit = ref None in
      let on_round ~round ~max_load ~empty_bins ~balls =
        incr t ~labels "rbb_rounds_total";
        set_gauge t ~labels "rbb_round" (float_of_int round);
        set_gauge t ~labels "rbb_max_load" (float_of_int max_load);
        set_gauge t ~labels "rbb_empty_bins" (float_of_int empty_bins);
        set_gauge t ~labels "rbb_balls" (float_of_int balls);
        match threshold with
        | None -> ()
        | Some thr ->
            let legit = max_load <= thr in
            set_gauge t ~labels "rbb_legitimacy_threshold" (float_of_int thr);
            set_gauge t ~labels "rbb_legitimate" (if legit then 1. else 0.);
            incr t ~labels
              (if legit then "rbb_legitimacy_dwell_rounds_total"
               else "rbb_legitimacy_excursion_rounds_total");
            (match (!prev_legit, legit) with
            | Some false, true -> incr t ~labels "rbb_legitimacy_enters_total"
            | Some true, false -> incr t ~labels "rbb_legitimacy_exits_total"
            | _ -> ());
            prev_legit := Some legit
      in
      {
        Rbb_core.Probe.noop with
        enabled = true;
        tracing = true;
        now = s.clock;
        add =
          (fun name k -> add t ~labels (name ^ "_total") (float_of_int k));
        timer_add =
          (fun name ns ->
            add t ~labels (name ^ "_seconds_total")
              (Int64.to_float ns /. 1e9);
            incr t ~labels (name ^ "_calls_total"));
        latency =
          (fun ns ->
            observe t ~labels "rbb_round_seconds" (Int64.to_float ns /. 1e9));
        on_round;
      }

(* Re-export a Telemetry sink's registers.  Set-semantics (absolute
   values) so the import is idempotent: a repeated import does not
   double count, and an engine whose probe already accumulated the same
   instruments lands on identical totals. *)
let import_telemetry ?labels t tel =
  if enabled t && Rbb_sim.Telemetry.enabled tel then begin
    List.iter
      (fun (name, v) ->
        set_counter t ?labels (name ^ "_total") (float_of_int v))
      (Rbb_sim.Telemetry.counters tel);
    List.iter
      (fun (name, v) -> set_gauge t ?labels name v)
      (Rbb_sim.Telemetry.gauges tel);
    List.iter
      (fun (name, (calls, total_ns)) ->
        set_counter t ?labels (name ^ "_seconds_total")
          (Int64.to_float total_ns /. 1e9);
        set_counter t ?labels (name ^ "_calls_total") (float_of_int calls))
      (Rbb_sim.Telemetry.timers tel)
  end

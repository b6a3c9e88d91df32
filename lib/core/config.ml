type t = { loads : int array; m : int }

let of_array loads =
  if Array.length loads = 0 then invalid_arg "Config.of_array: no bins";
  let m = ref 0 in
  Array.iter
    (fun q ->
      if q < 0 then invalid_arg "Config.of_array: negative load";
      m := !m + q)
    loads;
  { loads = Array.copy loads; m = !m }

let uniform ~n =
  if n <= 0 then invalid_arg "Config.uniform: n <= 0";
  { loads = Array.make n 1; m = n }

let all_in_one ?(bin = 0) ~n ~m () =
  if n <= 0 then invalid_arg "Config.all_in_one: n <= 0";
  if m < 0 then invalid_arg "Config.all_in_one: m < 0";
  if bin < 0 || bin >= n then invalid_arg "Config.all_in_one: bin out of range";
  let loads = Array.make n 0 in
  loads.(bin) <- m;
  { loads; m }

let balanced ~n ~m =
  if n <= 0 then invalid_arg "Config.balanced: n <= 0";
  if m < 0 then invalid_arg "Config.balanced: m < 0";
  let base = m / n and extra = m mod n in
  { loads = Array.init n (fun u -> if u < extra then base + 1 else base); m }

let random rng ~n ~m =
  if n <= 0 then invalid_arg "Config.random: n <= 0";
  if m < 0 then invalid_arg "Config.random: m < 0";
  let loads = Array.make n 0 in
  for _ = 1 to m do
    let u = Rbb_prng.Rng.int_below rng n in
    loads.(u) <- loads.(u) + 1
  done;
  { loads; m }

let n t = Array.length t.loads
let balls t = t.m

let load t u =
  if u < 0 || u >= Array.length t.loads then
    invalid_arg "Config.load: bin out of range";
  t.loads.(u)

(* Plain loops: both run on every engine's create and restore, over
   all n bins. *)
let max_load t =
  let m = ref 0 in
  for u = 0 to Array.length t.loads - 1 do
    let q = t.loads.(u) in
    if q > !m then m := q
  done;
  !m

let empty_bins t =
  let e = ref 0 in
  for u = 0 to Array.length t.loads - 1 do
    if t.loads.(u) = 0 then incr e
  done;
  !e

let nonempty_bins t = n t - empty_bins t

let legitimacy_threshold ?(beta = 4.0) ?m bins =
  if bins <= 0 then invalid_arg "Config.legitimacy_threshold: n <= 0";
  if (not (Float.is_finite beta)) || beta <= 0.0 then
    invalid_arg "Config.legitimacy_threshold: beta must be finite and positive";
  (* Los & Sauerwald: max load is Θ((m/n) log n) once m ≥ n, so the
     cut-off scales by max(1, m/n); at m = n the factor is exactly 1.0
     and the value matches the historical n-only form bit for bit. *)
  let ratio =
    match m with
    | None -> 1.0
    | Some m ->
        if m < 0 then invalid_arg "Config.legitimacy_threshold: m < 0";
        Stdlib.max 1.0 (float_of_int m /. float_of_int bins)
  in
  Stdlib.max 1
    (int_of_float (Float.ceil (beta *. ratio *. Float.log (float_of_int bins))))

let is_legitimate ?beta t =
  max_load t <= legitimacy_threshold ?beta ~m:t.m (n t)

let loads t = Array.copy t.loads
let unsafe_loads t = t.loads

let load_histogram t =
  let h = Rbb_stats.Histogram.Int_hist.create () in
  Array.iter (fun q -> Rbb_stats.Histogram.Int_hist.add h q) t.loads;
  h

let equal a b = a.m = b.m && a.loads = b.loads
let copy t = { loads = Array.copy t.loads; m = t.m }

let pp ppf t =
  Format.fprintf ppf "@[<h>[";
  Array.iteri
    (fun u q -> if u = 0 then Format.fprintf ppf "%d" q else Format.fprintf ppf "; %d" q)
    t.loads;
  Format.fprintf ppf "] (m=%d, max=%d, empty=%d)@]" t.m (max_load t) (empty_bins t)

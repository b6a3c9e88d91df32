type engine = Xoshiro | Pcg | Splitmix

type state =
  | Sx of Xoshiro256.t
  | Sp of Pcg32.t
  | Ss of Splitmix64.t

type t = { state : state; engine : engine; seed : int64 }

let create ?(engine = Xoshiro) ~seed () =
  let state =
    match engine with
    | Xoshiro -> Sx (Xoshiro256.create ~seed)
    | Pcg -> Sp (Pcg32.create ~seed)
    | Splitmix -> Ss (Splitmix64.create ~seed)
  in
  { state; engine; seed }

let engine t = t.engine
let seed t = t.seed

let copy t =
  let state =
    match t.state with
    | Sx g -> Sx (Xoshiro256.copy g)
    | Sp g -> Sp (Pcg32.copy g)
    | Ss g -> Ss (Splitmix64.copy g)
  in
  { t with state }

type snapshot = { snap_engine : engine; snap_seed : int64; words : int64 array }

let snapshot t =
  let words =
    match t.state with
    | Sx g -> Xoshiro256.state g
    | Sp g -> Pcg32.state g
    | Ss g -> Splitmix64.state g
  in
  { snap_engine = t.engine; snap_seed = t.seed; words }

let of_snapshot s =
  let state =
    match s.snap_engine with
    | Xoshiro -> Sx (Xoshiro256.of_state s.words)
    | Pcg -> Sp (Pcg32.of_state s.words)
    | Splitmix -> Ss (Splitmix64.of_state s.words)
  in
  { state; engine = s.snap_engine; seed = s.snap_seed }

let next_u64 t =
  match t.state with
  | Sx g -> Xoshiro256.next_u64 g
  | Sp g -> Pcg32.next_u64 g
  | Ss g -> Splitmix64.next_u64 g

let fill_int62 t a ~pos ~len =
  match t.state with
  | Sx g -> Xoshiro256.fill_int62 g a ~pos ~len
  | Sp g -> Pcg32.fill_int62 g a ~pos ~len
  | Ss g -> Splitmix64.fill_int62 g a ~pos ~len

let split t =
  match t.state with
  | Sx g ->
      (* Jumped copy: non-overlapping for 2^128 draws; then scramble the
         parent so repeated splits give distinct children. *)
      let child = Xoshiro256.copy g in
      Xoshiro256.jump child;
      ignore (Xoshiro256.next_u64 g);
      { state = Sx child; engine = Xoshiro; seed = Splitmix64.mix t.seed }
  | Sp _ | Ss _ ->
      let child_seed = Splitmix64.mix (next_u64 t) in
      create ~engine:t.engine ~seed:child_seed ()

let bits30 t = Int64.to_int (Int64.shift_right_logical (next_u64 t) 34)

(* Smallest all-ones mask covering [n - 1], for [n >= 2].  A bounded
   draw keeps the top 62 bits of a word under this mask and rejects
   values [>= n]: unbiased, with at most one expected retry.
   [int_below] and [scatter_below] both draw by this definition. *)
let mask_below n =
  let m = n - 1 in
  let m = m lor (m lsr 1) in
  let m = m lor (m lsr 2) in
  let m = m lor (m lsr 4) in
  let m = m lor (m lsr 8) in
  let m = m lor (m lsr 16) in
  m lor (m lsr 32)

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: bound must be positive";
  if n = 1 then 0
  else begin
    let mask = mask_below n in
    let rec draw () =
      let v = Int64.to_int (Int64.shift_right_logical (next_u64 t) 2) land mask in
      if v < n then v else draw ()
    in
    draw ()
  end

let scatter_below t ~bound ~count ~into =
  if bound <= 0 then invalid_arg "Rng.scatter_below: bound must be positive";
  if count < 0 then invalid_arg "Rng.scatter_below: count < 0";
  if Array.length into < bound then
    invalid_arg "Rng.scatter_below: into is shorter than bound";
  if bound = 1 then into.(0) <- into.(0) + count
  else
    match t.state with
    | Sx g -> Xoshiro256.scatter_below g ~mask:(mask_below bound) ~bound ~count ~into
    | Sp _ | Ss _ ->
        for _ = 1 to count do
          let v = int_below t bound in
          Array.unsafe_set into v (Array.unsafe_get into v + 1)
        done

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int_below t (hi - lo + 1)

let float_unit t =
  (* 53 high bits of the draw, scaled by 2^-53: uniform on [0,1). *)
  let bits = Int64.shift_right_logical (next_u64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let bool t = Int64.logand (next_u64 t) 1L = 1L

let engine_name = function
  | Xoshiro -> "xoshiro256**"
  | Pcg -> "pcg32"
  | Splitmix -> "splitmix64"

let engine_of_name = function
  | "xoshiro256**" -> Some Xoshiro
  | "pcg32" -> Some Pcg
  | "splitmix64" -> Some Splitmix
  | _ -> None

let pp ppf t = Format.fprintf ppf "%s(seed=%Ld)" (engine_name t.engine) t.seed

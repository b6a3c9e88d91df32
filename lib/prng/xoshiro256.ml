type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
}

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let create ~seed =
  let sm = Splitmix64.create ~seed in
  let s0 = Splitmix64.next_u64 sm in
  let s1 = Splitmix64.next_u64 sm in
  let s2 = Splitmix64.next_u64 sm in
  let s3 = Splitmix64.next_u64 sm in
  (* An all-zero state is a fixed point of the transition; SplitMix64 can
     only produce it with probability 2^-256, but guard anyway. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    { s0 = 1L; s1 = 2L; s2 = 3L; s3 = 4L }
  else { s0; s1; s2; s3 }

let copy g = { s0 = g.s0; s1 = g.s1; s2 = g.s2; s3 = g.s3 }

let state g = [| g.s0; g.s1; g.s2; g.s3 |]

let of_state s =
  if Array.length s <> 4 then
    invalid_arg "Xoshiro256.of_state: expected 4 state words";
  if s.(0) = 0L && s.(1) = 0L && s.(2) = 0L && s.(3) = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state is invalid";
  { s0 = s.(0); s1 = s.(1); s2 = s.(2); s3 = s.(3) }

let next_u64 g =
  let open Int64 in
  let result = mul (rotl (mul g.s1 5L) 7) 9L in
  let t = shift_left g.s1 17 in
  g.s2 <- logxor g.s2 g.s0;
  g.s3 <- logxor g.s3 g.s1;
  g.s1 <- logxor g.s1 g.s2;
  g.s0 <- logxor g.s0 g.s3;
  g.s2 <- logxor g.s2 t;
  g.s3 <- rotl g.s3 45;
  result

let fill_int62 g a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Xoshiro256.fill_int62: range out of bounds";
  (* Keeping the whole batch inside one function lets the compiler keep
     the four state words in unboxed registers: ~10x faster than [len]
     calls to [next_u64] through the mutable record fields. *)
  let s0 = ref g.s0 and s1 = ref g.s1 and s2 = ref g.s2 and s3 = ref g.s3 in
  for i = pos to pos + len - 1 do
    let result = Int64.mul (rotl (Int64.mul !s1 5L) 7) 9L in
    let t = Int64.shift_left !s1 17 in
    s2 := Int64.logxor !s2 !s0;
    s3 := Int64.logxor !s3 !s1;
    s1 := Int64.logxor !s1 !s2;
    s0 := Int64.logxor !s0 !s3;
    s2 := Int64.logxor !s2 t;
    s3 := rotl !s3 45;
    Array.unsafe_set a i (Int64.to_int result land max_int)
  done;
  g.s0 <- !s0;
  g.s1 <- !s1;
  g.s2 <- !s2;
  g.s3 <- !s3

let scatter_below g ~mask ~bound ~count ~into =
  if bound <= 0 || Array.length into < bound then
    invalid_arg "Xoshiro256.scatter_below: bound <= 0 or into too short";
  (* One loop with the state in registers, as in [fill_int62]. *)
  let s0 = ref g.s0 and s1 = ref g.s1 and s2 = ref g.s2 and s3 = ref g.s3 in
  let left = ref count in
  while !left > 0 do
    let result = Int64.mul (rotl (Int64.mul !s1 5L) 7) 9L in
    let t = Int64.shift_left !s1 17 in
    s2 := Int64.logxor !s2 !s0;
    s3 := Int64.logxor !s3 !s1;
    s1 := Int64.logxor !s1 !s2;
    s0 := Int64.logxor !s0 !s3;
    s2 := Int64.logxor !s2 t;
    s3 := rotl !s3 45;
    let v = Int64.to_int (Int64.shift_right_logical result 2) land mask in
    if v < bound then begin
      Array.unsafe_set into v (Array.unsafe_get into v + 1);
      decr left
    end
  done;
  g.s0 <- !s0;
  g.s1 <- !s1;
  g.s2 <- !s2;
  g.s3 <- !s3

(* Jump polynomial coefficients from the reference implementation
   (xoshiro256plusplus.c / xoshiro256starstar.c, same state transition). *)
let jump_coeffs =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL;
     0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump g =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun coeff ->
      for b = 0 to 63 do
        if Int64.logand coeff (Int64.shift_left 1L b) <> 0L then begin
          s0 := Int64.logxor !s0 g.s0;
          s1 := Int64.logxor !s1 g.s1;
          s2 := Int64.logxor !s2 g.s2;
          s3 := Int64.logxor !s3 g.s3
        end;
        ignore (next_u64 g)
      done)
    jump_coeffs;
  g.s0 <- !s0;
  g.s1 <- !s1;
  g.s2 <- !s2;
  g.s3 <- !s3

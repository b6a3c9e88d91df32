(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8 on
   native ints.  The running state carries the conventional pre/post-XOR
   with 0xFFFFFFFF internally, so [start] is all-ones and [digest]
   applies the final complement.

   tables.(k * 256 + b) is the CRC of byte b followed by k zero bytes,
   so one step folds eight input bytes with eight lookups: each byte
   (the first four XORed with the state) goes through the table
   numbered by how many bytes of the step follow it.  A tail shorter
   than eight bytes goes one byte per step through tables.(0 .. 255). *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for b = 0 to 255 do
    let c = ref b in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(b) <- !c
  done;
  for k = 1 to 7 do
    for b = 0 to 255 do
      let prev = t.(((k - 1) * 256) + b) in
      t.((k * 256) + b) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

type t = int

let start = 0xFFFFFFFF

(* Table k at the low byte of [i]: k < 8 and the byte < 256, so the
   lookup cannot leave [tables]. *)
let[@inline] tab k i = Array.unsafe_get tables ((k lsl 8) lor (i land 0xFF))
let[@inline] step crc byte = (crc lsr 8) lxor tab 0 (crc lxor byte)

let feed_char crc c = step crc (Char.code c)

let feed crc s =
  let crc = ref crc and i = ref 0 in
  let stop = String.length s in
  while !i + 8 <= stop do
    let lo = !crc lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    crc :=
      tab 7 lo
      lxor tab 6 (lo lsr 8)
      lxor tab 5 (lo lsr 16)
      lxor tab 4 (lo lsr 24)
      lxor tab 3 hi
      lxor tab 2 (hi lsr 8)
      lxor tab 1 (hi lsr 16)
      lxor tab 0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    crc := step !crc (Char.code (String.unsafe_get s !i));
    incr i
  done;
  !crc

let digest crc = Int32.of_int (crc lxor 0xFFFFFFFF)
let to_hex crc = Printf.sprintf "%08x" (crc lxor 0xFFFFFFFF)
let string s = digest (feed start s)

let equal_hex crc hex =
  String.equal (to_hex crc) (String.lowercase_ascii hex)

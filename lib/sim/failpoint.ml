(* Named fault-injection points.  A failpoint set is threaded through
   the phase-structured engines; at each guarded phase the engine asks
   whether the point fires for the current (round, shard, attempt) and,
   if so, raises [Injected] — exercising exactly the retry / degrade
   machinery a real fault (OOM, preempted domain, flaky node) would.

   Firing is a pure function of the spec and the coordinates: a
   deterministic trigger names the coordinates outright, a
   probabilistic one hashes them under a seed.  Either way a retried
   attempt re-evaluates deterministically, so supervised runs are
   reproducible fault-for-fault. *)

type trigger =
  | At of { round : int option; shard : int option; fails : int }
  | Prob of { p : float; seed : int64 }

type spec = { name : string; trigger : trigger }

type t = Noop | Active of spec list

exception
  Injected of { name : string; round : int; shard : int; attempt : int }

let () =
  Printexc.register_printer (function
    | Injected { name; round; shard; attempt } ->
        Some
          (Printf.sprintf "Failpoint.Injected(%s, round=%d, shard=%d, attempt=%d)"
             name round shard attempt)
    | _ -> None)

let noop = Noop
let of_specs = function [] -> Noop | specs -> Active specs
let enabled = function Noop -> false | Active _ -> true

(* The points the engines and the I/O shim actually guard; the CLI
   rejects anything else so a typo cannot silently inject nothing.
   For the io.* points (guarded inside Fileio) the coordinates are
   reinterpreted: "round" is the 0-based index of the faultable
   operation since the shim was armed, shard and attempt are 0. *)
let known_names =
  [
    "sharded.launch";
    "sharded.merge";
    "sharded.settle";
    "io.write";
    "io.fsync";
    "io.rename";
    "io.lock";
  ]

(* FNV-1a, 64-bit: a stable string hash that does not depend on
   OCaml's seeded [Hashtbl.hash], so probabilistic firing decisions
   are identical across builds and platforms. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let mix = Rbb_prng.Splitmix64.mix

(* Uniform [0,1) from the coordinates: one avalanche round per mixed-in
   word.  Each (name, round, shard, attempt) maps to an independent
   decision, so a retried attempt draws fresh luck — deterministically. *)
let hash_unit ~seed ~name ~round ~shard ~attempt =
  let h = mix (Int64.logxor seed (fnv1a name)) in
  let h = mix (Int64.logxor h (Int64.of_int round)) in
  let h = mix (Int64.logxor h (Int64.of_int ((shard lsl 24) lxor attempt))) in
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

let spec_fires spec ~round ~shard ~attempt =
  match spec.trigger with
  | At { round = r; shard = s; fails } ->
      (match r with None -> true | Some r -> r = round)
      && (match s with None -> true | Some s -> s = shard)
      && attempt < fails
  | Prob { p; seed } ->
      hash_unit ~seed ~name:spec.name ~round ~shard ~attempt < p

let fires t ~name ~round ~shard ~attempt =
  match t with
  | Noop -> false
  | Active specs ->
      List.exists
        (fun spec ->
          String.equal spec.name name && spec_fires spec ~round ~shard ~attempt)
        specs

let trip t ~name ~round ~shard ~attempt =
  if fires t ~name ~round ~shard ~attempt then
    raise (Injected { name; round; shard; attempt })

let to_string { name; trigger } =
  match trigger with
  | At { round; shard; fails } ->
      let field k = function None -> [] | Some v -> [ Printf.sprintf "%s=%d" k v ] in
      let fields =
        field "round" round @ field "shard" shard
        @ if fails <> 1 then [ Printf.sprintf "fails=%d" fails ] else []
      in
      if fields = [] then name
      else Printf.sprintf "%s@%s" name (String.concat "," fields)
  | Prob { p; seed } ->
      Printf.sprintf "%s@p=%s,seed=%Ld" name (Jsonl.float_repr p) seed

(* Spec syntax: NAME, NAME@round=R[,shard=S][,fails=K], or
   NAME@p=P[,seed=S].  Errors are prose (no exceptions) so the CLI can
   print them verbatim and cram tests can pin them. *)
let parse str =
  let ( let* ) = Result.bind in
  let name, fields =
    match String.index_opt str '@' with
    | None -> (str, [])
    | Some i ->
        ( String.sub str 0 i,
          String.split_on_char ','
            (String.sub str (i + 1) (String.length str - i - 1)) )
  in
  if name = "" then Error "failpoint: empty name"
  else
    let parse_field acc field =
      let* round, shard, fails, p, seed = acc in
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "failpoint: expected key=value, got %S" field)
      | Some i ->
          let k = String.sub field 0 i in
          let v = String.sub field (i + 1) (String.length field - i - 1) in
          let int_v () =
            match int_of_string_opt v with
            | Some n when n >= 0 -> Ok n
            | _ ->
                Error
                  (Printf.sprintf "failpoint: %s expects a non-negative integer, got %S"
                     k v)
          in
          (match k with
          | "round" ->
              let* n = int_v () in
              Ok (Some n, shard, fails, p, seed)
          | "shard" ->
              let* n = int_v () in
              Ok (round, Some n, fails, p, seed)
          | "fails" ->
              let* n = int_v () in
              if n < 1 then Error "failpoint: fails expects an integer >= 1"
              else Ok (round, shard, Some n, p, seed)
          | "p" -> (
              match float_of_string_opt v with
              | Some x when x >= 0. && x <= 1. -> Ok (round, shard, fails, Some x, seed)
              | _ ->
                  Error
                    (Printf.sprintf "failpoint: p expects a float in [0, 1], got %S" v))
          | "seed" -> (
              match Int64.of_string_opt v with
              | Some s -> Ok (round, shard, fails, p, Some s)
              | None ->
                  Error (Printf.sprintf "failpoint: seed expects an integer, got %S" v))
          | _ -> Error (Printf.sprintf "failpoint: unknown key %S" k))
    in
    let* round, shard, fails, p, seed =
      List.fold_left parse_field (Ok (None, None, None, None, None)) fields
    in
    match p with
    | Some p ->
        if round <> None || shard <> None || fails <> None then
          Error "failpoint: p cannot be combined with round/shard/fails"
        else
          Ok { name; trigger = Prob { p; seed = Option.value seed ~default:0L } }
    | None ->
        if seed <> None then Error "failpoint: seed requires p"
        else
          Ok
            {
              name;
              trigger =
                At { round; shard; fails = Option.value fails ~default:1 };
            }

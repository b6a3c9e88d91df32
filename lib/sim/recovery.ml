open Rbb_core

(* Recovery-time measurement: how many rounds does the process need to
   re-enter the legitimate band after a §4.1 transient fault?  Theorem 1
   says O(n) rounds w.h.p. from any configuration — including the
   adversarial ones — so recovery-round counts are compared against the
   bin count.  The measurement is engine-generic (Engine.t): the same
   episode schedule runs on Process or Sharded and, from the same
   creation rng state, produces identical series. *)

type episode = {
  fault_round : int;  (* completed rounds when the fault was applied *)
  spike_max_load : int;  (* max load right after the perturbation *)
  recovery_rounds : int option;  (* None: not relegitimized in budget *)
}

type t = {
  n : int;
  balls : int;
  beta : float;
  threshold : int;
  action : string;
  episodes : episode list;
}

let action_name : Adversary.action -> string = function
  | Pile_into bin -> Printf.sprintf "pile_into(%d)" bin
  | Reshuffle -> "reshuffle"
  | Rotate k -> Printf.sprintf "rotate(%d)" k

(* Step until max_load <= threshold, at most [cap] rounds; returns the
   number of rounds taken. *)
let rounds_to_legit (e : Engine.t) ~threshold ~cap =
  if e.max_load () <= threshold then Some 0
  else begin
    let rec go k =
      if k >= cap then None
      else begin
        e.step ();
        if e.max_load () <= threshold then Some (k + 1) else go (k + 1)
      end
    in
    go 0
  end

let measure ?(beta = 4.0) ~action ~episodes ~max_recovery (e : Engine.t) =
  if episodes < 1 then invalid_arg "Recovery.measure: episodes < 1";
  if max_recovery < 1 then invalid_arg "Recovery.measure: max_recovery < 1";
  (* The threshold must reflect the engine's actual ball count: with
     m ≫ n the max load can never drop below ⌈m/n⌉, so an n-only
     threshold would make every episode falsely report failure. *)
  let threshold = Config.legitimacy_threshold ~beta ~m:e.balls e.n in
  (* Settle into the legitimate band first, so every episode starts from
     a legitimate configuration and measures pure fault recovery. *)
  ignore (rounds_to_legit e ~threshold ~cap:max_recovery);
  let rounds = ref 0 in
  let eps =
    List.init episodes (fun _ ->
        e.set_config (Adversary.perturb action e.rng (e.config ()));
        let spike = e.max_load () in
        let recovered = rounds_to_legit e ~threshold ~cap:max_recovery in
        (match recovered with
        | Some k -> rounds := !rounds + k
        | None -> rounds := !rounds + max_recovery);
        {
          fault_round = !rounds;
          spike_max_load = spike;
          recovery_rounds = recovered;
        })
  in
  {
    n = e.n;
    balls = e.balls;
    beta;
    threshold;
    action = action_name action;
    episodes = eps;
  }

(* Deterministic JSON rendering (fixed field order = sorted keys, Jsonl
   number formats): for a fixed seed the document is byte-stable, so
   docs can pin small-n numbers. *)
let to_json t =
  let b = Buffer.create 1024 in
  let recovered =
    List.filter_map (fun e -> e.recovery_rounds) t.episodes
  in
  let mean =
    match recovered with
    | [] -> None
    | l ->
        Some
          (float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l))
  in
  let worst = List.fold_left (fun acc k -> Stdlib.max acc k) 0 recovered in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"action\": %S,\n" t.action);
  Buffer.add_string b (Printf.sprintf "  \"balls\": %d,\n" t.balls);
  Buffer.add_string b
    (Printf.sprintf "  \"beta\": %s,\n" (Jsonl.float_repr t.beta));
  Buffer.add_string b "  \"episodes\": [\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    { \"fault_round\": %d, \"recovered\": %b, \
            \"recovery_rounds\": %s, \"spike_max_load\": %d }"
           e.fault_round
           (e.recovery_rounds <> None)
           (match e.recovery_rounds with
           | Some k -> string_of_int k
           | None -> "null")
           e.spike_max_load))
    t.episodes;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b
    (Printf.sprintf "  \"mean_recovery_rounds\": %s,\n"
       (match mean with Some m -> Jsonl.float_repr m | None -> "null"));
  Buffer.add_string b
    (Printf.sprintf "  \"mean_recovery_over_n\": %s,\n"
       (match mean with
       | Some m -> Jsonl.float_repr (m /. float_of_int t.n)
       | None -> "null"));
  Buffer.add_string b (Printf.sprintf "  \"n\": %d,\n" t.n);
  Buffer.add_string b "  \"schema\": \"rbb.recovery/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"threshold\": %d,\n" t.threshold);
  Buffer.add_string b (Printf.sprintf "  \"worst_recovery_rounds\": %d\n" worst);
  Buffer.add_string b "}";
  Buffer.contents b

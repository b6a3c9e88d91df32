type action =
  | Pile_into of int
  | Reshuffle
  | Rotate of int

type schedule =
  | Never
  | Every of int
  | At_rounds of int list

let is_faulty_round s r =
  match s with
  | Never -> false
  | Every k ->
      if k < 1 then invalid_arg "Adversary.is_faulty_round: Every k with k < 1";
      r > 0 && r mod k = 0
  | At_rounds rs -> List.mem r rs

let perturb action rng q =
  let n = Config.n q and m = Config.balls q in
  match action with
  | Pile_into bin -> Config.all_in_one ~bin ~n ~m ()
  | Reshuffle -> Config.random rng ~n ~m
  | Rotate k ->
      let src = Config.unsafe_loads q in
      let shift = ((k mod n) + n) mod n in
      Config.of_array (Array.init n (fun u -> src.((u - shift + n) mod n)))

let run_with_faults ~schedule ~action ~rounds (e : Engine.t) =
  let metrics = Metrics.create ~n:e.n in
  for r = 1 to rounds do
    if is_faulty_round schedule r then
      e.set_config (perturb action e.rng (e.config ()));
    e.step ();
    Metrics.observe metrics ~max_load:(e.max_load ())
      ~empty_bins:(e.empty_bins ())
  done;
  metrics

type kind = Balls | Counts

let kind_name = function Balls -> "balls" | Counts -> "counts"

let kind_of_name = function
  | "balls" -> Some Balls
  | "counts" -> Some Counts
  | _ -> None

type t = {
  kind : kind;
  n : int;
  balls : int;
  rng : Rbb_prng.Rng.t;
  step : unit -> unit;
  round : unit -> int;
  max_load : unit -> int;
  empty_bins : unit -> int;
  config : unit -> Config.t;
  set_config : Config.t -> unit;
  master : int64;
  d_choices : int;
  capacity : int;
  weighted : bool;
}

let run_until e ~max_rounds ~stop =
  if max_rounds < 0 then invalid_arg "Engine.run_until: max_rounds < 0";
  let rec go k =
    if stop e then Some (e.round ())
    else if k >= max_rounds then None
    else begin
      e.step ();
      go (k + 1)
    end
  in
  go 0

let run_until_legitimate ?beta e ~max_rounds =
  let threshold = Config.legitimacy_threshold ?beta ~m:e.balls e.n in
  run_until e ~max_rounds ~stop:(fun e -> e.max_load () <= threshold)

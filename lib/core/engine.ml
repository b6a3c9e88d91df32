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

(** Prometheus text exposition format (v0.0.4) for {!Registry}.

    {!render} is deterministic over a {!Registry.snapshot} — families
    sorted by name, series by canonical labels, one [# TYPE] line per
    family and a [# HELP] line when registered — so golden tests can pin
    complete bodies.  Histograms follow the convention: cumulative
    [<name>_bucket{le="..."}] lines (only populated buckets plus each
    one's predecessor bound), a [le="+Inf"] bucket equal to the total
    count, then [<name>_sum] and [<name>_count].

    Metric and label names are sanitized to [[a-zA-Z0-9_:]] (dots in raw
    instrument names become underscores); label values escape
    backslash, double-quote and newline.

    The scrape-side helpers ({!parse_histogram}, {!sample_value},
    {!scraped_quantile}) parse only what {!render} emits — enough for
    [rbb top] and [bench obs] to recover quantiles from a scraped body
    without an external Prometheus. *)

val sanitize_name : string -> string
val escape_label_value : string -> string

val render_value : float -> string
(** Sample and [le] value rendering: [+Inf] / [-Inf] / [NaN] literally,
    integral floats without an exponent, anything else as [%.9g]. *)

val render : Registry.snapshot -> string
(** The full exposition body (each sample line newline-terminated). *)

val render_registry : Registry.t -> string
(** [render (Registry.snapshot t)]. *)

val write_file : Registry.t -> path:string -> unit
(** Atomically publish the exposition to [path]
    ({!Rbb_sim.Fileio.write_atomic}), conventionally [metrics.prom]. *)

(** {2 Scrape-side readers} *)

val parse_histogram :
  ?labels:(string * string) list -> string -> string -> (float * int) list
(** [parse_histogram ?labels body name]: the cumulative
    [(le, count)] buckets of [name]'s histogram series whose labels
    include [labels], summed bucket-wise over those series
    ({!Registry.merge_histogram}) and sorted by [le] (the [+Inf] bucket
    last).  [[]] when absent. *)

val sample_value :
  ?labels:(string * string) list -> string -> string -> float option
(** First sample of metric [name] whose labels include [labels]. *)

val scraped_quantile :
  ?labels:(string * string) list -> string -> string -> float -> float option
(** [scraped_quantile ?labels body name q]: quantile [q] recovered from
    the scraped bucket lines via {!Registry.quantile_of_buckets}. *)

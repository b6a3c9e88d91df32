(** Process-wide labeled metrics registry.

    Counters, gauges and log-bucketed (HDR-style) histograms keyed by
    [(name, label set)], with deterministic snapshots for the Prometheus
    exporter ({!Rbb_obs.Prometheus}).  The daemon keeps one registry per
    process (per-job wait/service/sojourn histograms, queue gauges), and
    engines feed one through {!probe} — the same pay-for-what-you-use
    discipline as {!Rbb_sim.Telemetry}: {!noop} reduces every operation
    to a single pattern match, guarded < 1.5x in [bench micro].

    {2 Labels}

    Label sets are canonicalized (sorted by key) on every call, so
    [\["a","1"; "b","2"\]] and [\["b","2"; "a","1"\]] address the same
    series; duplicate keys raise [Invalid_argument].  A metric name has
    one kind for the whole process — using an existing counter name as a
    gauge or histogram raises.

    {2 Histogram geometry}

    All histograms share one log-bucket layout: 16 sub-buckets per
    octave from 2^-30 s (~1 ns) to 2^20 s, so adjacent bucket bounds are
    2^(1/16) ~ 4.4% apart and interpolated quantiles carry < 5% relative
    error.  The shared geometry is what makes scraped histograms
    mergeable bucket-wise ({!merge_histogram}). *)

type t

type labels = (string * string) list
(** Label pairs; order-insensitive, duplicate keys rejected. *)

val noop : t
(** Inert registry: all operations are no-ops, all readers return their
    defaults, [enabled] is false. *)

val create : ?clock:(unit -> int64) -> unit -> t
(** A fresh active registry.  [clock] returns monotonic nanoseconds
    (default: the process-wide monotonic clock); it is the clock of
    {!probe}'s [now]. *)

val enabled : t -> bool

val help : t -> name:string -> string -> unit
(** Register a [# HELP] line for [name] in the exposition. *)

(** {2 Instruments} *)

val incr : t -> ?labels:labels -> string -> unit
val add : t -> ?labels:labels -> string -> float -> unit
(** Counter increment; negative increments raise [Invalid_argument]. *)

val set_counter : t -> ?labels:labels -> string -> float -> unit
(** Set a counter to an absolute value (for re-exporting totals that
    another registry already accumulated, e.g. {!import_telemetry});
    idempotent, unlike {!add}. *)

val set_gauge : t -> ?labels:labels -> string -> float -> unit

val observe : t -> ?labels:labels -> string -> float -> unit
(** Record one histogram observation (seconds, by convention). *)

(** {2 Readers} *)

val counter_value : t -> ?labels:labels -> string -> float
(** Current counter value (0 when absent or on {!noop}). *)

val gauge_value : t -> ?labels:labels -> string -> float option
val hist_count : t -> ?labels:labels -> string -> int
val hist_sum : t -> ?labels:labels -> string -> float

val quantile : t -> ?labels:labels -> string -> float -> float option
(** Quantile [q] in [0,1] of one series, read as {!histogram_quantile}
    of its snapshot; [None] when the histogram is absent or empty.
    @raise Invalid_argument when [q] is outside [0,1]. *)

val reset_histograms : t -> unit
(** Zero every histogram, leaving counters and gauges untouched.  The
    daemon calls this on [reset_stats] so a scrape after an [rbb slam]
    measurement window reflects only that window's jobs. *)

(** {2 Snapshots} *)

type histogram = {
  buckets : (float * int) list;
      (** [(le, cumulative count)] with [le] ascending; only buckets
          with observations plus each one's immediate predecessor bound
          are listed (the predecessor pins the lower edge, bounding
          interpolation error for readers of the exposition). *)
  sum : float;
  count : int;
}

type value = Vcounter of float | Vgauge of float | Vhistogram of histogram

type snapshot = {
  families : (string * (labels * value) list) list;
      (** Sorted by metric name; series within a family sorted by
          canonical labels.  Deterministic for a fixed sequence of
          updates, so renderings can be pinned by golden tests. *)
  helps : (string * string) list;
}

val snapshot : t -> snapshot

val merge_histogram : histogram -> histogram -> histogram
(** Bucket-wise sum of two snapshots sharing the registry geometry:
    [count]s and [sum]s add, quantiles of the merge equal quantiles of
    the concatenated observations within bucket resolution. *)

val quantile_of_buckets : (float * int) list -> float -> float option
(** Quantile from a published cumulative bucket list (what a scraper
    has), interpolating between consecutive published bounds — the
    client-side [histogram_quantile].  [None] on an empty histogram. *)

val histogram_quantile : histogram -> float -> float option
(** {!quantile_of_buckets} over [buckets] closed by [(+Inf, count)],
    the list a scraper parses from the exposition. *)

val family_histogram : t -> string -> histogram option
(** Every series of the histogram family [name] summed bucket-wise,
    whatever its labels; [None] when the family holds no observation
    (absent, or zeroed by {!reset_histograms}). *)

(** {2 Bridges} *)

val probe : ?labels:labels -> ?threshold:int -> t -> Rbb_core.Probe.t
(** A probe feeding this registry, for instrumenting core engines.
    Maintains [rbb_rounds_total], [rbb_round] / [rbb_max_load] /
    [rbb_empty_bins] / [rbb_balls] gauges and an [rbb_round_seconds]
    latency histogram, re-exports engine counters as [<name>_total] and
    timers as [<name>_seconds_total] / [<name>_calls_total].  With
    [?threshold] (the m-aware legitimacy bound) it also tracks
    legitimacy: an [rbb_legitimate] gauge, dwell/excursion round
    counters and enter/exit transition counters (first observation sets
    the baseline; no transition is counted for it, matching
    {!Rbb_sim.Tracer}).  [probe noop] is [Rbb_core.Probe.noop]. *)

val import_telemetry : ?labels:labels -> t -> Rbb_sim.Telemetry.t -> unit
(** Re-export a {!Rbb_sim.Telemetry} sink's counters, gauges and timers
    into this registry with set-semantics ([<name>_total],
    [<name>_seconds_total], [<name>_calls_total]) — idempotent, so a
    repeated import does not double count, and a live {!probe} that
    already accumulated the same instruments lands on identical
    totals. *)

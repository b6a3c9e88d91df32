(* Reader/analyzer for rbb.trace/1 NDJSON streams: folds a recorded
   trace back into summary statistics and a terminal rendering.  The
   max-load series is accumulated through the core Trace ring buffer, so
   reporting on a 10^7-round trace stays within a fixed memory budget. *)

type t = {
  header : (string * Jsonl.value) list option;
  n : int option;
  m : int option;  (* header ball count; absent on m = n traces *)
  threshold : int option;
  every : int option;
  observables : int;
  first_round : int option;
  last_round : int option;
  peak_max_load : int option;
  min_empty_fraction : float option;
  min_balls : int option;
  max_balls : int option;
  legit_observed : int;
  enters : int;
  exits : int;
  longest_excursion : int option;
  convergence : (int option * int) list;  (* (trial, round), file order *)
  quarter_violations : int;
  spans : (string * int) list;  (* name -> count, sorted by name *)
  skipped : int;
  truncated_tail : bool;
  series : Rbb_core.Trace.t;
}

type state = {
  mutable s_header : (string * Jsonl.value) list option;
  mutable s_n : int option;
  mutable s_m : int option;
  mutable s_threshold : int option;
  mutable s_every : int option;
  mutable s_observables : int;
  mutable s_first_round : int option;
  mutable s_last_round : int option;
  mutable s_peak : int option;
  mutable s_current : int option;  (* max load of the newest observable *)
  mutable s_min_empty_frac : float option;
  mutable s_min_balls : int option;
  mutable s_max_balls : int option;
  mutable s_legit_observed : int;
  mutable s_enters : int;
  mutable s_exits : int;
  mutable s_last_exit : int option;
  mutable s_longest_excursion : int option;
  mutable s_convergence : (int option * int) list;  (* reversed *)
  mutable s_quarter : int;
  s_spans : (string, int) Hashtbl.t;
  mutable s_skipped : int;
  mutable s_truncated_tail : bool;
  s_series : Rbb_core.Trace.t;
}

let fresh_state () =
  {
    s_header = None;
    s_n = None;
    s_m = None;
    s_threshold = None;
    s_every = None;
    s_observables = 0;
    s_first_round = None;
    s_last_round = None;
    s_peak = None;
    s_current = None;
    s_min_empty_frac = None;
    s_min_balls = None;
    s_max_balls = None;
    s_legit_observed = 0;
    s_enters = 0;
    s_exits = 0;
    s_last_exit = None;
    s_longest_excursion = None;
    s_convergence = [];
    s_quarter = 0;
    s_spans = Hashtbl.create 16;
    s_skipped = 0;
    s_truncated_tail = false;
    s_series = Rbb_core.Trace.create ();
  }

let opt_min o v = match o with None -> Some v | Some w -> Some (min w v)
let opt_max o v = match o with None -> Some v | Some w -> Some (max w v)

let feed st line =
  let skip () = st.s_skipped <- st.s_skipped + 1 in
  if String.trim line = "" then ()
  else
    match Jsonl.parse line with
    | None -> skip ()
    | Some fields -> (
        match Jsonl.find_string fields "type" with
        | Some "header" ->
            st.s_header <- Some fields;
            st.s_n <- Jsonl.find_int fields "n";
            st.s_m <- Jsonl.find_int fields "m";
            st.s_threshold <- Jsonl.find_int fields "threshold";
            st.s_every <- Jsonl.find_int fields "every"
        | Some "observable" -> (
            match
              ( Jsonl.find_int fields "round",
                Jsonl.find_int fields "max_load",
                Jsonl.find_int fields "empty_bins" )
            with
            | Some round, Some max_load, Some empty_bins ->
                st.s_observables <- st.s_observables + 1;
                if st.s_first_round = None then st.s_first_round <- Some round;
                st.s_last_round <- Some round;
                st.s_peak <- opt_max st.s_peak max_load;
                st.s_current <- Some max_load;
                (match st.s_n with
                | Some n when n > 0 ->
                    st.s_min_empty_frac <-
                      opt_min st.s_min_empty_frac
                        (float_of_int empty_bins /. float_of_int n)
                | _ -> ());
                (match Jsonl.find_int fields "balls" with
                | Some b ->
                    st.s_min_balls <- opt_min st.s_min_balls b;
                    st.s_max_balls <- opt_max st.s_max_balls b
                | None -> ());
                (match st.s_threshold with
                | Some thr when max_load <= thr ->
                    st.s_legit_observed <- st.s_legit_observed + 1
                | _ -> ());
                Rbb_core.Trace.record st.s_series ~round ~max_load ~empty_bins
            | _ -> skip ())
        | Some "legitimacy_enter" -> (
            match Jsonl.find_int fields "round" with
            | Some round ->
                st.s_enters <- st.s_enters + 1;
                (match st.s_last_exit with
                | Some exit_round ->
                    st.s_last_exit <- None;
                    st.s_longest_excursion <-
                      opt_max st.s_longest_excursion (round - exit_round)
                | None -> ())
            | None -> skip ())
        | Some "legitimacy_exit" -> (
            match Jsonl.find_int fields "round" with
            | Some round ->
                st.s_exits <- st.s_exits + 1;
                st.s_last_exit <- Some round
            | None -> skip ())
        | Some "convergence" -> (
            match Jsonl.find_int fields "round" with
            | Some round ->
                st.s_convergence <-
                  (Jsonl.find_int fields "trial", round) :: st.s_convergence
            | None -> skip ())
        | Some "quarter_violation" -> st.s_quarter <- st.s_quarter + 1
        | Some "span" -> (
            match Jsonl.find_string fields "name" with
            | Some name ->
                Hashtbl.replace st.s_spans name
                  (1 + Option.value ~default:0 (Hashtbl.find_opt st.s_spans name))
            | None -> skip ())
        | Some _ | None -> skip ())

let finish st =
  {
    header = st.s_header;
    n = st.s_n;
    m = st.s_m;
    threshold = st.s_threshold;
    every = st.s_every;
    observables = st.s_observables;
    first_round = st.s_first_round;
    last_round = st.s_last_round;
    peak_max_load = st.s_peak;
    min_empty_fraction = st.s_min_empty_frac;
    min_balls = st.s_min_balls;
    max_balls = st.s_max_balls;
    legit_observed = st.s_legit_observed;
    enters = st.s_enters;
    exits = st.s_exits;
    longest_excursion = st.s_longest_excursion;
    convergence = List.rev st.s_convergence;
    quarter_violations = st.s_quarter;
    truncated_tail = st.s_truncated_tail;
    spans =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.s_spans []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    skipped = st.s_skipped;
    series = st.s_series;
  }

let of_lines lines =
  let st = fresh_state () in
  List.iter (feed st) lines;
  finish st

(* Hand-rolled line splitting instead of [input_line]: we must know
   whether the final line carried its newline terminator.  A process
   killed mid-write leaves a torn, unterminated tail; such a line is
   tolerated with a warning flag rather than folded into the ordinary
   skipped count — the distinction matters because a torn tail means
   "the producer died", not "the producer wrote garbage". *)
let read_channel ic =
  let st = fresh_state () in
  let buf = Buffer.create 256 in
  (try
     while true do
       match input_char ic with
       | '\n' ->
           feed st (Buffer.contents buf);
           Buffer.clear buf
       | c -> Buffer.add_char buf c
     done
   with End_of_file -> ());
  if Buffer.length buf > 0 then begin
    let line = Buffer.contents buf in
    if String.trim line <> "" && Jsonl.parse line = None then
      st.s_truncated_tail <- true
    else feed st line
  end;
  finish st

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_channel ic)

(* Tailing: fold the stream via Jsonl's tail until the writer goes
   idle, then treat whatever unterminated bytes remain exactly as
   read_channel treats a torn final line.  This is
   `rbb trace-report --follow`.  It cannot watch `rbb simulate` run:
   the tracer publishes its NDJSON file atomically at close, so a
   simulation's trace appears only when the run ends.  [live] (when
   given) observes the summary-so-far after each poll that delivered
   lines — the hook behind the one-line progress reports `--follow`
   prints. *)

type live = {
  live_rounds : int;
  live_last_round : int option;
  live_max_load : int option;
  live_legitimate : bool option;
}

let live_of st =
  {
    live_rounds = st.s_observables;
    live_last_round = st.s_last_round;
    live_max_load = st.s_current;
    live_legitimate =
      (match (st.s_threshold, st.s_current) with
      | Some thr, Some ml -> Some (ml <= thr)
      | _ -> None);
  }

(* The pinnable live-line format; the rate is the only wall-clock part
   and cram tests normalise it away. *)
let live_line ?rate l =
  Printf.sprintf "live: round=%s max_load=%s legitimate=%s%s"
    (match l.live_last_round with Some r -> string_of_int r | None -> "?")
    (match l.live_max_load with Some m -> string_of_int m | None -> "?")
    (match l.live_legitimate with
    | Some true -> "yes"
    | Some false -> "no"
    | None -> "-")
    (match rate with
    | Some r -> Printf.sprintf " (%.1f rounds/s)" r
    | None -> "")

let follow_file ?(poll_interval_s = 0.05) ?(idle_polls = 3) ?live path =
  if poll_interval_s < 0. then
    invalid_arg "Trace_report.follow_file: poll_interval_s must be >= 0";
  if idle_polls < 1 then
    invalid_arg "Trace_report.follow_file: idle_polls must be >= 1";
  let st = fresh_state () in
  let tl = Jsonl.tail path in
  let idle = ref 0 in
  while !idle < idle_polls do
    (match Jsonl.tail_poll tl with
    | [] -> Stdlib.incr idle
    | lines ->
        idle := 0;
        List.iter (feed st) lines;
        match live with Some f -> f (live_of st) | None -> ());
    if !idle < idle_polls then Unix.sleepf poll_interval_s
  done;
  (match Jsonl.tail_pending tl with
  | Some line when String.trim line <> "" ->
      if Jsonl.parse line = None then st.s_truncated_tail <- true
      else feed st line
  | Some _ | None -> ());
  finish st

(* Deterministic rendering for a deterministic trace: everything shown
   is derived from record contents, never wall-clock durations, so cram
   tests can pin the full output of a seeded run. *)

let opt_str f = function None -> "?" | Some v -> f v
let int_opt = opt_str string_of_int

let render ?(plot = true) r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "trace report (%s)"
    (match r.header with
    | Some h -> Option.value ~default:"no schema" (Jsonl.find_string h "schema")
    | None -> "no header");
  (* m is shown only when the header carried one (m ≠ n traces), so
     m = n reports keep their historical bytes. *)
  line "  n=%s%s  threshold=%s  every=%s" (int_opt r.n)
    (match r.m with Some m -> Printf.sprintf "  m=%d" m | None -> "")
    (int_opt r.threshold) (int_opt r.every);
  (match (r.first_round, r.last_round) with
  | Some f, Some l -> line "  observable rounds : %d (rounds %d..%d)" r.observables f l
  | _ -> line "  observable rounds : %d" r.observables);
  line "  peak max load     : %s" (int_opt r.peak_max_load);
  line "  min empty fraction: %s"
    (opt_str Jsonl.float_repr r.min_empty_fraction);
  (match (r.min_balls, r.max_balls) with
  | Some lo, Some hi when lo = hi -> line "  balls             : %d (constant)" lo
  | Some lo, Some hi -> line "  balls             : %d..%d" lo hi
  | _ -> ());
  (match r.threshold with
  | Some _ ->
      line "  legitimacy        : %d/%d observed rounds legitimate"
        r.legit_observed r.observables
  | None -> ());
  line "  enters/exits      : %d/%d%s" r.enters r.exits
    (match r.longest_excursion with
    | Some e -> Printf.sprintf " (longest excursion %d rounds)" e
    | None -> "");
  (match r.convergence with
  | [] -> line "  convergence       : none recorded"
  | cs ->
      line "  convergence       : %s"
        (String.concat ", "
           (List.map
              (fun (trial, round) ->
                match trial with
                | None -> Printf.sprintf "round %d" round
                | Some k -> Printf.sprintf "trial %d: round %d" k round)
              cs)));
  line "  quarter violations: %d" r.quarter_violations;
  (match r.spans with
  | [] -> ()
  | spans ->
      line "  spans             : %s"
        (String.concat " "
           (List.map (fun (name, count) -> Printf.sprintf "%s=%d" name count) spans)));
  if r.skipped > 0 then line "  skipped lines     : %d" r.skipped;
  if r.truncated_tail then
    line "  warning: truncated final line (interrupted write?), ignored";
  (if plot then
     let series = Rbb_core.Trace.max_load_series r.series in
     if Array.length series >= 2 then begin
       line "  max load over time:";
       Buffer.add_string b
         (Plot.line_plot ~rows:10 ~cols:60 ~y_label:"max load" series);
       if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '\n' then
         Buffer.add_char b '\n';
       line "  sparkline: %s" (Plot.sparkline series)
     end);
  Buffer.contents b

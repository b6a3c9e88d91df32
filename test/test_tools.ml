(* Tests for the terminal plotting helpers and keyed PRNG
   substreams. *)

(* ------------------------------------------------------------------ *)
(* Plot                                                                *)
(* ------------------------------------------------------------------ *)

let sparkline_basic () =
  Alcotest.(check string) "empty" "" (Rbb_sim.Plot.sparkline [||]);
  let s = Rbb_sim.Plot.sparkline [| 0.; 1. |] in
  (* Lowest block then highest block. *)
  Alcotest.(check string) "two levels" "\xe2\x96\x81\xe2\x96\x88" s;
  let flat = Rbb_sim.Plot.sparkline [| 5.; 5.; 5. |] in
  Alcotest.(check int) "constant series has uniform glyphs" 1
    (List.length
       (List.sort_uniq compare
          [ String.sub flat 0 3; String.sub flat 3 3; String.sub flat 6 3 ]))

let sparkline_monotone_levels () =
  let s = Rbb_sim.Plot.sparkline (Array.init 8 float_of_int) in
  (* 8 increasing values map to the 8 distinct glyphs in order. *)
  let glyphs = List.init 8 (fun i -> String.sub s (3 * i) 3) in
  Alcotest.(check int) "8 distinct glyphs" 8 (List.length (List.sort_uniq compare glyphs))

let bar_chart_contents () =
  let s = Rbb_sim.Plot.bar_chart [ ("alpha", 2.); ("b", 4.) ] in
  Alcotest.(check bool) "labels present" true
    (Tutil.contains_substring s "alpha" && Tutil.contains_substring s "b ");
  Alcotest.(check bool) "values printed" true
    (Tutil.contains_substring s "2" && Tutil.contains_substring s "4");
  (* The larger value has a longer bar. *)
  let lines = String.split_on_char '\n' s in
  let count_blocks line =
    let rec go i acc =
      if i + 3 > String.length line then acc
      else if String.sub line i 3 = "\xe2\x96\x88" then go (i + 3) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  match lines with
  | a :: b :: _ ->
      Alcotest.(check bool) "bar lengths ordered" true (count_blocks b > count_blocks a)
  | _ -> Alcotest.fail "expected two lines"

let bar_chart_empty_and_negative () =
  Alcotest.(check string) "empty" "" (Rbb_sim.Plot.bar_chart []);
  let s = Rbb_sim.Plot.bar_chart [ ("neg", -1.); ("pos", 1.) ] in
  Alcotest.(check bool) "negative clamped but printed" true
    (Tutil.contains_substring s "neg")

let line_plot_shape () =
  let xs = Array.init 200 (fun i -> Float.sin (float_of_int i /. 10.)) in
  let s = Rbb_sim.Plot.line_plot ~rows:10 ~cols:40 ~x_label:"t" ~y_label:"M" xs in
  let lines = String.split_on_char '\n' s in
  (* y label + 10 rows + axis + x label = 13 lines plus trailing "". *)
  Alcotest.(check int) "line count" 14 (List.length lines);
  Alcotest.(check bool) "has stars" true (Tutil.contains_substring s "*");
  Alcotest.(check bool) "labels" true
    (Tutil.contains_substring s "t" && Tutil.contains_substring s "M");
  Alcotest.(check string) "empty input" "" (Rbb_sim.Plot.line_plot [||])

let histogram_plot () =
  let h = Rbb_stats.Histogram.Int_hist.create () in
  Rbb_stats.Histogram.Int_hist.add_many h 3 5;
  Rbb_stats.Histogram.Int_hist.add_many h 7 2;
  let s = Rbb_sim.Plot.histogram_of_int_hist h in
  Alcotest.(check bool) "buckets labelled" true
    (Tutil.contains_substring s "3" && Tutil.contains_substring s "7")

(* ------------------------------------------------------------------ *)
(* Stream                                                              *)
(* ------------------------------------------------------------------ *)

let stream_deterministic () =
  let a = Rbb_prng.Stream.derive ~master:42L ~key:"process" in
  let b = Rbb_prng.Stream.derive ~master:42L ~key:"process" in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Rbb_prng.Rng.next_u64 a) (Rbb_prng.Rng.next_u64 b)
  done

let stream_keys_independent () =
  let a = Rbb_prng.Stream.derive ~master:42L ~key:"alpha" in
  let b = Rbb_prng.Stream.derive ~master:42L ~key:"beta" in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rbb_prng.Rng.next_u64 a = Rbb_prng.Rng.next_u64 b then incr same
  done;
  Alcotest.(check int) "disjoint outputs" 0 !same

let stream_master_matters () =
  Alcotest.(check bool) "different masters differ" true
    (Rbb_prng.Stream.seed_of_key ~master:1L ~key:"k"
    <> Rbb_prng.Stream.seed_of_key ~master:2L ~key:"k")

let stream_order_independence () =
  (* The defining property: a key's seed does not depend on other
     derivations. *)
  let direct = Rbb_prng.Stream.seed_of_key ~master:9L ~key:"worker" in
  let _ = Rbb_prng.Stream.derive ~master:9L ~key:"other1" in
  let _ = Rbb_prng.Stream.derive ~master:9L ~key:"other2" in
  Alcotest.(check int64) "unchanged" direct
    (Rbb_prng.Stream.seed_of_key ~master:9L ~key:"worker")

let stream_indexed_families () =
  let s0 = Rbb_prng.Stream.derive_indexed ~master:3L ~key:"trial" ~index:0 in
  let s1 = Rbb_prng.Stream.derive_indexed ~master:3L ~key:"trial" ~index:1 in
  Alcotest.(check bool) "indices differ" true
    (Rbb_prng.Rng.next_u64 s0 <> Rbb_prng.Rng.next_u64 s1)

let stream_uniformity_of_seeds () =
  (* Derived streams should look uniform: bucket the first draw of many
     keys. *)
  let counts = Array.make 8 0 in
  let total = 8000 in
  for i = 0 to total - 1 do
    let g = Rbb_prng.Stream.derive ~master:7L ~key:(string_of_int i) in
    let v = Rbb_prng.Rng.int_below g 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Tutil.check_uniform ~slack:0.1 "first draws uniform" counts total

let suite =
  [
    ( "sim.plot",
      [
        Tutil.quick "sparkline" sparkline_basic;
        Tutil.quick "sparkline levels" sparkline_monotone_levels;
        Tutil.quick "bar chart" bar_chart_contents;
        Tutil.quick "bar chart edge cases" bar_chart_empty_and_negative;
        Tutil.quick "line plot" line_plot_shape;
        Tutil.quick "int histogram" histogram_plot;
      ] );
    ( "prng.stream",
      [
        Tutil.quick "deterministic" stream_deterministic;
        Tutil.quick "keys independent" stream_keys_independent;
        Tutil.quick "master matters" stream_master_matters;
        Tutil.quick "order independence" stream_order_independence;
        Tutil.quick "indexed families" stream_indexed_families;
        Tutil.slow "seed uniformity" stream_uniformity_of_seeds;
      ] );
  ]

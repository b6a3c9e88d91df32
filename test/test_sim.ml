open Rbb_sim

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let table_renders_aligned () =
  let t = Table.create ~headers:[ "n"; "max load" ] in
  Table.add_row t [ "128"; "9" ];
  Table.add_row t [ "1024"; "12" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 1 = "n");
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: rule :: _ ->
      Alcotest.(check bool) "rule is dashes" true (String.for_all (( = ) '-') rule);
      Alcotest.(check int) "rule spans header" (String.length header) (String.length rule)
  | _ -> Alcotest.fail "too few lines");
  Alcotest.(check bool) "rows present" true
    (List.exists (fun l -> String.length l > 0 && l.[0] = '1') lines)

let table_caption_and_rows_in_order () =
  let t = Table.create ~headers:[ "a" ] in
  Table.add_row t [ "first" ];
  Table.add_row t [ "second" ];
  let s = Table.render ~caption:"CAP" t in
  Alcotest.(check bool) "caption leads" true (String.sub s 0 3 = "CAP");
  let first_pos = Tutil.find_substring s "first" in
  let second_pos = Tutil.find_substring s "second" in
  Alcotest.(check bool) "both present" true (first_pos >= 0 && second_pos >= 0);
  Alcotest.(check bool) "insertion order" true (first_pos < second_pos)

let table_arity_error () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Tutil.check_raises_invalid "wrong arity" (fun () -> Table.add_row t [ "only one" ])

let table_float_row_and_cells () =
  let t = Table.create ~headers:[ "x"; "y" ] in
  Table.add_float_row t ~fmt:"%.3f" [ 1.5; 2.25 ];
  let s = Table.render t in
  Alcotest.(check bool) "formatted" true (Tutil.contains_substring s "1.500");
  Alcotest.(check string) "cell_int" "42" (Table.cell_int 42);
  Alcotest.(check string) "cell_float" "3.14" (Table.cell_float ~decimals:2 3.14159);
  Alcotest.(check string) "cell_bool" "yes" (Table.cell_bool true)

(* ------------------------------------------------------------------ *)
(* Csv                                                                 *)
(* ------------------------------------------------------------------ *)

let csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape "a\nb")

let csv_document () =
  let s = Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4,5" ] ] in
  Alcotest.(check string) "document" "x,y\n1,2\n3,\"4,5\"\n" s

let csv_write_file () =
  let path = Filename.temp_file "rbb_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write_file ~path ~header:[ "a" ] [ [ "1" ]; [ "2" ] ];
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "file content" "a\n1\n2\n" content)

(* ------------------------------------------------------------------ *)
(* Replicate                                                           *)
(* ------------------------------------------------------------------ *)

let replicate_deterministic () =
  let a = Replicate.seeds ~base:1L ~count:5 in
  let b = Replicate.seeds ~base:1L ~count:5 in
  Alcotest.(check (array int64)) "same seeds" a b;
  let c = Replicate.seeds ~base:2L ~count:5 in
  Alcotest.(check bool) "different base differs" true (a <> c);
  let distinct = Hashtbl.create 8 in
  Array.iter (fun s -> Hashtbl.replace distinct s ()) a;
  Alcotest.(check int) "seeds distinct" 5 (Hashtbl.length distinct)

let replicate_run_count_and_reproducibility () =
  let f rng = Rbb_prng.Rng.int_below rng 1000 in
  let r1 = Replicate.run ~base_seed:7L ~trials:10 f in
  let r2 = Replicate.run ~base_seed:7L ~trials:10 f in
  Alcotest.(check int) "count" 10 (Array.length r1);
  Alcotest.(check (array int)) "reproducible" r1 r2

let replicate_floats_summary () =
  let s =
    Replicate.run_floats ~base_seed:3L ~trials:50 (fun rng ->
        Rbb_prng.Rng.float_unit rng)
  in
  Alcotest.(check int) "n" 50 s.n;
  Alcotest.(check bool) "mean plausible" true (s.mean > 0.3 && s.mean < 0.7)

let replicate_fraction () =
  let f = Replicate.fraction ~base_seed:3L ~trials:400 (fun rng -> Rbb_prng.Rng.bool rng) in
  Alcotest.(check bool) "fraction in [0,1]" true (f >= 0. && f <= 1.);
  Tutil.check_rel ~tol:0.15 "fair coin" 0.5 f;
  let all = Replicate.fraction ~base_seed:3L ~trials:10 (fun _ -> true) in
  Tutil.check_close "always true" 1. all

let replicate_seeds_prefix_stable () =
  (* Asking for more trials extends the seed list and keeps the earlier
     seeds, so a replication can be grown without rerunning its first
     trials under different streams. *)
  let short = Replicate.seeds ~base:9L ~count:10 in
  let long = Replicate.seeds ~base:9L ~count:100 in
  Alcotest.(check (array int64)) "prefix" short (Array.sub long 0 10);
  let distinct = Hashtbl.create 128 in
  Array.iter (fun s -> Hashtbl.replace distinct s ()) long;
  Alcotest.(check int) "100 distinct seeds" 100 (Hashtbl.length distinct);
  let f rng = Rbb_prng.Rng.int_below rng 1_000_000 in
  Alcotest.(check (array int))
    "trials are prefix-stable too"
    (Replicate.run ~base_seed:9L ~trials:10 f)
    (Array.sub (Replicate.run ~base_seed:9L ~trials:100 f) 0 10)

let replicate_summaries_agree_with_run () =
  (* run_floats and fraction are run followed by a summary: the same
     trials, so the same numbers, exactly. *)
  let f rng = Rbb_prng.Rng.float_unit rng in
  let s = Replicate.run_floats ~base_seed:4L ~trials:64 f in
  let s' = Rbb_stats.Summary.of_array (Replicate.run ~base_seed:4L ~trials:64 f) in
  Alcotest.(check int) "n" s'.n s.n;
  Tutil.check_close ~tol:0. "mean" s'.mean s.mean;
  Tutil.check_close ~tol:0. "ci95_low" s'.ci95_low s.ci95_low;
  Tutil.check_close ~tol:0. "ci95_high" s'.ci95_high s.ci95_high;
  let p rng = Rbb_prng.Rng.float_unit rng < 0.3 in
  let hits =
    Array.fold_left
      (fun acc b -> if b then acc + 1 else acc)
      0
      (Replicate.run ~base_seed:4L ~trials:64 p)
  in
  Tutil.check_close ~tol:0. "fraction"
    (float_of_int hits /. 64.)
    (Replicate.fraction ~base_seed:4L ~trials:64 p)

let replicate_engine_choice () =
  (* The engine picks the generator family behind each derived seed:
     same seeds, different streams, each reproducible. *)
  let f rng = Rbb_prng.Rng.int_below rng 1_000_000 in
  let xo = Replicate.run ~base_seed:2L ~trials:8 f in
  let pcg = Replicate.run ~engine:Rbb_prng.Rng.Pcg ~base_seed:2L ~trials:8 f in
  Alcotest.(check (array int))
    "default is xoshiro" xo
    (Replicate.run ~engine:Rbb_prng.Rng.Xoshiro ~base_seed:2L ~trials:8 f);
  Alcotest.(check (array int))
    "pcg reproducible" pcg
    (Replicate.run ~engine:Rbb_prng.Rng.Pcg ~base_seed:2L ~trials:8 f);
  Alcotest.(check bool) "families differ" true (xo <> pcg)

(* ------------------------------------------------------------------ *)
(* Experiment registry                                                 *)
(* ------------------------------------------------------------------ *)

let experiments_fixture hits =
  [
    Experiment.make ~id:"e1" ~title:"one" ~claim:"c1" (fun ~quick:_ ->
        hits := "e1" :: !hits);
    Experiment.make ~id:"e2" ~title:"two" ~claim:"c2" (fun ~quick:_ ->
        hits := "e2" :: !hits);
  ]

let experiment_find () =
  let hits = ref [] in
  let es = experiments_fixture hits in
  (match Experiment.find es "E1" with
  | Some e -> Alcotest.(check string) "case-insensitive find" "e1" e.id
  | None -> Alcotest.fail "find failed");
  Alcotest.(check bool) "missing id" true (Experiment.find es "zzz" = None)

let experiment_run_selected () =
  let hits = ref [] in
  let es = experiments_fixture hits in
  Experiment.run_selected es ~ids:[ "e2"; "e1" ] ~quick:true;
  Alcotest.(check (list string)) "ran in order" [ "e2"; "e1" ] (List.rev !hits);
  Tutil.check_raises_invalid "unknown id" (fun () ->
      Experiment.run_selected es ~ids:[ "nope" ] ~quick:true)

let experiment_run_all () =
  let hits = ref [] in
  let es = experiments_fixture hits in
  Experiment.run_all es ~quick:false;
  Alcotest.(check int) "all ran" 2 (List.length !hits)

let suite =
  [
    ( "sim.table",
      [
        Tutil.quick "aligned render" table_renders_aligned;
        Tutil.quick "caption/order" table_caption_and_rows_in_order;
        Tutil.quick "arity error" table_arity_error;
        Tutil.quick "float rows and cells" table_float_row_and_cells;
      ] );
    ( "sim.csv",
      [
        Tutil.quick "escaping" csv_escaping;
        Tutil.quick "document" csv_document;
        Tutil.quick "write file" csv_write_file;
      ] );
    ( "sim.replicate",
      [
        Tutil.quick "deterministic seeds" replicate_deterministic;
        Tutil.quick "run reproducible" replicate_run_count_and_reproducibility;
        Tutil.quick "floats summary" replicate_floats_summary;
        Tutil.quick "fraction" replicate_fraction;
        Tutil.quick "seeds prefix-stable" replicate_seeds_prefix_stable;
        Tutil.quick "summaries agree with run" replicate_summaries_agree_with_run;
        Tutil.quick "engine choice" replicate_engine_choice;
      ] );
    ( "sim.experiment",
      [
        Tutil.quick "find" experiment_find;
        Tutil.quick "run_selected" experiment_run_selected;
        Tutil.quick "run_all" experiment_run_all;
      ] );
  ]

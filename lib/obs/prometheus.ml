(* Prometheus text exposition format v0.0.4 over Registry snapshots,
   plus a minimal parser for the histogram lines — enough for `rbb top`
   and `bench obs` to read quantiles back out of a scraped body without
   a real Prometheus server in the loop. *)

(* Metric names may only contain [a-zA-Z0-9_:] and must not start with
   a digit; raw instrument names like "process.rounds" arrive with dots
   and are mapped onto '_'. *)
let sanitize_name name =
  let b = Bytes.of_string name in
  for i = 0 to Bytes.length b - 1 do
    match Bytes.get b i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
    | _ -> Bytes.set b i '_'
  done;
  let s = Bytes.to_string b in
  if s = "" then "_"
  else
    match s.[0] with
    | '0' .. '9' -> "_" ^ s
    | _ -> s

(* Label values escape backslash, double quote and newline. *)
let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* HELP text escapes backslash and newline (quotes are fine there). *)
let escape_help v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* Sample values: integral floats render without an exponent so counter
   lines read naturally; +Inf per the exposition grammar. *)
let render_value v =
  if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let render_labels = function
  | [] -> ""
  | labels ->
      let parts =
        List.map
          (fun (k, v) ->
            Printf.sprintf "%s=\"%s\"" (sanitize_name k)
              (escape_label_value v))
          labels
      in
      "{" ^ String.concat "," parts ^ "}"

(* le/quantile label values use the same rendering as sample values so
   "0.001" round-trips; +Inf is literal. *)
let render_le = render_value

let render_labels_with_le labels le =
  let parts =
    List.map
      (fun (k, v) ->
        Printf.sprintf "%s=\"%s\"" (sanitize_name k) (escape_label_value v))
      labels
    @ [ Printf.sprintf "le=\"%s\"" (render_le le) ]
  in
  "{" ^ String.concat "," parts ^ "}"

let type_of_value = function
  | Registry.Vcounter _ -> "counter"
  | Registry.Vgauge _ -> "gauge"
  | Registry.Vhistogram _ -> "histogram"

let render snap =
  let b = Buffer.create 4096 in
  List.iter
    (fun (raw_name, series) ->
      let name = sanitize_name raw_name in
      (match List.assoc_opt raw_name snap.Registry.helps with
      | Some help ->
          Buffer.add_string b
            (Printf.sprintf "# HELP %s %s\n" name (escape_help help))
      | None -> ());
      (match series with
      | (_, v) :: _ ->
          Buffer.add_string b
            (Printf.sprintf "# TYPE %s %s\n" name (type_of_value v))
      | [] -> ());
      List.iter
        (fun (labels, v) ->
          match v with
          | Registry.Vcounter x | Registry.Vgauge x ->
              Buffer.add_string b
                (Printf.sprintf "%s%s %s\n" name (render_labels labels)
                   (render_value x))
          | Registry.Vhistogram h ->
              List.iter
                (fun (le, cum) ->
                  Buffer.add_string b
                    (Printf.sprintf "%s_bucket%s %d\n" name
                       (render_labels_with_le labels le)
                       cum))
                h.Registry.buckets;
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (render_labels_with_le labels Float.infinity)
                   h.Registry.count);
              Buffer.add_string b
                (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels)
                   (render_value h.Registry.sum));
              Buffer.add_string b
                (Printf.sprintf "%s_count%s %d\n" name
                   (render_labels labels) h.Registry.count))
        series)
    snap.Registry.families;
  Buffer.contents b

let render_registry t = render (Registry.snapshot t)

let write_file t ~path =
  Rbb_sim.Fileio.write_atomic ~path (fun oc ->
      output_string oc (render_registry t))

(* Scrape-side parsing ------------------------------------------------ *)

(* Split "name{l1=\"v1\",...} value" into (name, labels, value).  Only
   what the renderer above emits — no full grammar, no escapes beyond
   the three the renderer writes. *)
let parse_sample line =
  if line = "" || line.[0] = '#' then None
  else
    let name_end =
      match (String.index_opt line '{', String.index_opt line ' ') with
      | Some i, Some j -> Stdlib.min i j
      | Some i, None -> i
      | None, Some j -> j
      | None, None -> String.length line
    in
    let name = String.sub line 0 name_end in
    let labels, rest_start =
      if name_end < String.length line && line.[name_end] = '{' then
        match String.index_from_opt line name_end '}' with
        | None -> ([], name_end)
        | Some close ->
            let body = String.sub line (name_end + 1) (close - name_end - 1) in
            let parts =
              if body = "" then [] else String.split_on_char ',' body
            in
            let labels =
              List.filter_map
                (fun part ->
                  match String.index_opt part '=' with
                  | None -> None
                  | Some eq ->
                      let k = String.sub part 0 eq in
                      let v =
                        String.sub part (eq + 1) (String.length part - eq - 1)
                      in
                      let v =
                        if
                          String.length v >= 2
                          && v.[0] = '"'
                          && v.[String.length v - 1] = '"'
                        then String.sub v 1 (String.length v - 2)
                        else v
                      in
                      Some (k, v))
                parts
            in
            (labels, close + 1)
      else ([], name_end)
    in
    let value_str =
      String.trim
        (String.sub line rest_start (String.length line - rest_start))
    in
    let value =
      match value_str with
      | "+Inf" -> Some Float.infinity
      | "-Inf" -> Some Float.neg_infinity
      | s -> float_of_string_opt s
    in
    Option.map (fun v -> (name, labels, v)) value

let labels_match ~want have =
  List.for_all
    (fun (k, v) -> List.assoc_opt k have = Some v)
    want

(* Reassemble one histogram's cumulative buckets from a scraped body:
   the `<name>_bucket{...,le="..."}` lines of every series whose other
   labels match, summed bucket-wise when several do (cumulative counts
   of different series must not interleave). *)
let parse_histogram ?(labels = []) body name =
  let bucket_metric = sanitize_name name ^ "_bucket" in
  let series = Hashtbl.create 4 in
  List.iter
    (fun line ->
      match parse_sample line with
      | Some (m, ls, v) when m = bucket_metric -> (
          let rest = List.remove_assoc "le" ls in
          match List.assoc_opt "le" ls with
          | Some le_str when labels_match ~want:labels rest -> (
              let le =
                if le_str = "+Inf" then Some Float.infinity
                else float_of_string_opt le_str
              in
              match le with
              | Some le ->
                  let prev =
                    Option.value ~default:[] (Hashtbl.find_opt series rest)
                  in
                  Hashtbl.replace series rest ((le, int_of_float v) :: prev)
              | None -> ())
          | _ -> ())
      | _ -> ())
    (String.split_on_char '\n' body);
  let histogram buckets =
    let buckets = List.sort (fun (a, _) (b, _) -> Float.compare a b) buckets in
    { Registry.buckets; sum = 0.; count = 0 }
  in
  let merged =
    Hashtbl.fold
      (fun _ buckets acc -> Registry.merge_histogram acc (histogram buckets))
      series (histogram [])
  in
  merged.Registry.buckets

let sample_value ?(labels = []) body name =
  let metric = sanitize_name name in
  List.find_map
    (fun line ->
      match parse_sample line with
      | Some (m, ls, v) when m = metric && labels_match ~want:labels ls ->
          Some v
      | _ -> None)
    (String.split_on_char '\n' body)

(* The parsed list ends with the (+Inf, count) bucket the renderer
   always writes: the same list Registry.histogram_quantile reads. *)
let scraped_quantile ?labels body name q =
  Registry.quantile_of_buckets (parse_histogram ?labels body name) q

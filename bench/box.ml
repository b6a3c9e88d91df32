(* The box a bench record ran on, in the fields of perfbench's run
   record: git rev ("-dirty" when the tracked files differ from it),
   core count, OCaml version and the quick flag.  Records print these
   first so a number is never read without its machine. *)

let git_rev () =
  let cmd = "git describe --always --dirty --abbrev=40 --exclude='*' 2>/dev/null" in
  try
    let ic = Unix.open_process_in cmd in
    let rev = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let json_fields ~quick =
  Printf.sprintf "\"git_rev\": \"%s\",\n  \"nproc\": %d,\n  \"ocaml\": \"%s\",\n  \"quick\": %b"
    (git_rev ()) (Domain.recommended_domain_count ()) Sys.ocaml_version quick

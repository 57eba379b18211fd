(* harmony_sem — the project's static analyzer over the typedtree:
   ambient nondeterminism, module-level mutable state, raising
   partials, hot-path printing, races, lock order, polymorphic
   comparison, handler totality and exported values no program uses.
   See DESIGN.md §8.

     harmony_sem [--root DIR] [--format text|json|sarif]
                 [--rules D1,S3,...] [--allowlist FILE]
                 [--baseline FILE] [--check-baseline] [--write-baseline]
                 [--output FILE] [--list-rules] [SRC_DIR...]

   Reads the .cmt and .cmti artifacts under --root (default
   _build/default) for sources living in the given directories
   (default: lib bin bench tools/trace examples); `dune build @check`
   produces them for executables too.  U1 counts uses in every unit
   under --root outside test/, whatever directories are named.  Exit
   status 0 when no unwaived finding remains (or, under
   --check-baseline, no finding beyond the committed baseline), 1 on
   findings, 2 on usage errors. *)

let default_dirs = [ "lib"; "bin"; "bench"; "tools/trace"; "examples" ]

let usage =
  "harmony_sem [options] SRC_DIR...  (default: lib bin bench tools/trace \
   examples)"

let fail_usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("harmony_sem: " ^ msg);
      exit 2)
    fmt

let () =
  let root = ref "_build/default" in
  let format = ref "text" in
  let rules_filter = ref "" in
  let allowlist_file = ref "" in
  let baseline_file = ref "" in
  let check_baseline = ref false in
  let write_baseline = ref false in
  let output = ref "" in
  let list_rules = ref false in
  let dirs = ref [] in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR  build root holding the cmt files (default _build/default)");
      ("--format", Arg.Set_string format, "FMT  output format: text (default), json or sarif");
      ("--rules", Arg.Set_string rules_filter, "IDS  comma-separated rule ids to run (default: all)");
      ("--allowlist", Arg.Set_string allowlist_file, "FILE  repo allowlist ('<path> <rule>' per line)");
      ("--baseline", Arg.Set_string baseline_file, "FILE  findings baseline ('<path> <rule> <count>' per line)");
      ("--check-baseline", Arg.Set check_baseline, "  fail only on findings beyond the baseline");
      ("--write-baseline", Arg.Set write_baseline, "  rewrite the baseline from current findings and exit");
      ("--output", Arg.Set_string output, "FILE  write the report to FILE instead of stdout");
      ("--list-rules", Arg.Set list_rules, "  print the rule catalogue and exit");
    ]
  in
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  if !list_rules then begin
    List.iter
      (fun (r : Sem_rules.rule) ->
        Printf.printf "%-4s %-7s %s\n     %s\n" r.id
          (Lint_diag.severity_to_string r.severity)
          r.summary r.doc)
      Sem_rules.all;
    exit 0
  end;
  let rules =
    match !rules_filter with
    | "" -> Sem_rules.all
    | spec ->
        List.map
          (fun id ->
            match Sem_rules.find (String.trim id) with
            | Some r -> r
            | None -> fail_usage "unknown rule %s" id)
          (String.split_on_char ',' spec)
  in
  let allowlist =
    match !allowlist_file with
    | "" -> Lint_allow.empty_allowlist
    | file -> (
        if not (Sys.file_exists file) then fail_usage "allowlist %s not found" file;
        match Lint_allow.load_allowlist file with
        | Ok a -> a
        | Error msg -> fail_usage "%s" msg)
  in
  if not (Sys.file_exists !root && Sys.is_directory !root) then
    fail_usage "build root %s not found (run dune build @check first)" !root;
  let dirs = match List.rev !dirs with [] -> default_dirs | ds -> ds in
  let units, result =
    Sem_driver.analyze_tree ~rules ~allowlist ~tree:(Sem_cmt.load ~root:!root)
      ~dirs ()
  in
  if units = [] then
    fail_usage "no cmt files for %s under %s (run dune build @check first)"
      (String.concat " " dirs) !root;
  if !write_baseline then begin
    if !baseline_file = "" then fail_usage "--write-baseline needs --baseline FILE";
    let oc = open_out !baseline_file in
    output_string oc (Sem_baseline.render (Sem_baseline.of_diags result.kept));
    close_out oc;
    Printf.printf "harmony_sem: wrote %s (%d findings)\n" !baseline_file
      (List.length result.kept);
    exit 0
  end;
  let baseline =
    match (!check_baseline, !baseline_file) with
    | false, _ -> None
    | true, "" -> fail_usage "--check-baseline needs --baseline FILE"
    | true, file -> (
        if not (Sys.file_exists file) then fail_usage "baseline %s not found" file;
        match Sem_baseline.load file with
        | Ok b -> Some b
        | Error msg -> fail_usage "%s" msg)
  in
  let render ppf =
    match !format with
    | "text" -> Sem_driver.render_text ppf result
    | "json" -> Sem_driver.render_json ppf result
    | "sarif" -> Sem_driver.render_sarif ppf ~rules result
    | other -> fail_usage "unknown format %s" other
  in
  (match !output with
  | "" -> render Format.std_formatter
  | file ->
      let oc = open_out file in
      let ppf = Format.formatter_of_out_channel oc in
      render ppf;
      Format.pp_print_flush ppf ();
      close_out oc);
  let failed =
    match baseline with
    | None -> Sem_driver.failed result
    | Some baseline ->
        let regs =
          Sem_baseline.regressions ~baseline
            (Sem_baseline.of_diags result.kept)
        in
        List.iter
          (fun (path, rule, allowed, now) ->
            Printf.eprintf
              "harmony_sem: baseline regression: %s %s: %d finding(s), \
               baseline allows %d\n"
              path rule now allowed)
          regs;
        regs <> []
  in
  exit (if failed then 1 else 0)

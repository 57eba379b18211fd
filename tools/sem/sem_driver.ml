(* Orchestration: run the rules over loaded units, filter the
   diagnostics through the inline waivers and the repo allowlist, and
   render the report. *)

type result = {
  kept : Lint_diag.t list;  (* findings that count *)
  suppressed : Lint_diag.t list;  (* waived inline or via allowlist *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let default_source_of path =
  if Sys.file_exists path && not (Sys.is_directory path) then
    Some (read_file path)
  else None

(* [source_of] maps a diagnostic's file to its source text so inline
   [(* lint: allow S1 *)] comments apply; tests inject in-memory
   fixtures, the CLI reads from disk.  [units] are where the per-unit
   rules report; U1 reports on [interfaces] and counts uses in [users]
   (default: [units]). *)
let analyze ?rules ?(allowlist = Lint_allow.empty_allowlist)
    ?(source_of = default_source_of) ?(interfaces = []) ?users
    (units : Sem_cmt.unit_info list) =
  let summary = Sem_summary.create () in
  let diags =
    Sem_rules.run ?rules ~summary
      ~interfaces:
        (List.map
           (fun (i : Sem_cmt.interface_info) -> (i.imodname, i.ipath, i.sg))
           interfaces)
      ~users:
        (List.map
           (fun (u : Sem_cmt.unit_info) -> (u.path, u.str))
           (Option.value users ~default:units))
      (List.map Sem_cmt.as_tuple units)
  in
  let allow_cache = Hashtbl.create 8 in
  let allow_for file =
    match Hashtbl.find_opt allow_cache file with
    | Some a -> a
    | None ->
        let a = Option.map Lint_allow.of_source (source_of file) in
        Hashtbl.replace allow_cache file a;
        a
  in
  let kept, suppressed =
    List.partition
      (fun (d : Lint_diag.t) ->
        let inline =
          match allow_for d.file with
          | Some allow ->
              Lint_allow.suppresses allow ~rule:d.rule ~line:d.line
          | None -> false
        in
        not
          (inline
          || Lint_allow.allowlist_suppresses allowlist ~rule:d.rule
               ~file:d.file))
      diags
  in
  { kept; suppressed }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let rule_metas rules =
  List.map
    (fun (r : Sem_rules.rule) ->
      { Lint_sarif.id = r.id; summary = r.summary; doc = r.doc })
    rules

let render_sarif ppf ?(rules = Sem_rules.all) result =
  Lint_sarif.render ppf ~tool_name:"harmony_sem" ~rules:(rule_metas rules)
    result.kept

let render_text ppf result =
  List.iter (fun d -> Format.fprintf ppf "%a@." Lint_diag.pp_text d) result.kept;
  let errors, warnings =
    List.partition (fun d -> d.Lint_diag.severity = Lint_diag.Error) result.kept
  in
  Format.fprintf ppf "%d error%s, %d warning%s, %d waived@."
    (List.length errors)
    (if List.length errors = 1 then "" else "s")
    (List.length warnings)
    (if List.length warnings = 1 then "" else "s")
    (List.length result.suppressed)

let render_json ppf result =
  let fields =
    List.map Lint_diag.to_json result.kept |> String.concat ",\n  "
  in
  Format.fprintf ppf "{@.\"findings\": [@.  %s@.],@." fields;
  Format.fprintf ppf "\"errors\": %d, \"warnings\": %d, \"waived\": %d@.}@."
    (List.length
       (List.filter (fun d -> d.Lint_diag.severity = Lint_diag.Error) result.kept))
    (List.length
       (List.filter (fun d -> d.Lint_diag.severity = Lint_diag.Warning) result.kept))
    (List.length result.suppressed)

(* The analysis of a built tree: the per-unit rules and U1's report
   sites are the units and interfaces under [dirs]; U1's users are
   every unit under [root], whatever [dirs] names.  Waivers are read
   from the tree's own sources, which dune copies under its root, so
   the analysis of another checkout never reads this one's. *)
let analyze_tree ?rules ?allowlist ~(tree : Sem_cmt.tree) ~dirs () =
  let scoped path = Sem_cmt.in_dirs ~dirs path in
  let units = List.filter (fun u -> scoped u.Sem_cmt.path) tree.units in
  let interfaces =
    List.filter (fun i -> scoped i.Sem_cmt.ipath) tree.interfaces
  in
  let result =
    analyze ?rules ?allowlist
      ~source_of:(fun path -> default_source_of (Filename.concat tree.root path))
      ~interfaces ~users:tree.units units
  in
  (units, { result with kept = tree.diags @ result.kept })

(* Exit status without a baseline: any unwaived finding fails. *)
let failed result = result.kept <> []

(* Discovery and loading of the .cmt files dune emits under
   [_build/default/<dir>/.<lib>.objs/byte/].  The analyses key
   everything off the cmt's recorded source path (repo-relative, e.g.
   [lib/parallel/pool.ml]), so callers filter by source-directory
   prefix, not by build layout. *)

type unit_info = {
  modname : string;  (* normalized, e.g. "Pool" *)
  path : string;  (* repo-relative source file *)
  str : Typedtree.structure;
}

let as_tuple u = (u.modname, u.path, u.str)

let rec find_cmts dir acc =
  match Sys.readdir dir with
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc entry ->
          let p = Filename.concat dir entry in
          if Sys.file_exists p && Sys.is_directory p then find_cmts p acc
          else if Filename.check_suffix entry ".cmt" then p :: acc
          else acc)
        acc entries
  | exception Sys_error _ -> acc

let in_dirs ~dirs source =
  dirs = []
  || List.exists
       (fun d ->
         let d = if String.ends_with ~suffix:"/" d then d else d ^ "/" in
         String.starts_with ~prefix:d source)
       dirs

(* Load every implementation cmt whose source file lives in one of
   [dirs] (every one under [root] when [dirs] is empty); dune keeps a
   directory's cmt files under the same directory of the build root,
   so only those subtrees are walked.  Alias-module stubs (sources ending in .ml-gen)
   and interface cmts are skipped; an unreadable cmt becomes a "cmt"
   diagnostic rather than an abort, so one stale artifact cannot hide
   the rest of the report. *)
let load_units ~root ~dirs =
  let units = ref [] in
  let diags = ref [] in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | exception _ ->
          diags :=
            {
              Lint_diag.rule = "cmt";
              severity = Lint_diag.Error;
              file = cmt_path;
              line = 1;
              col = 0;
              message = "unreadable cmt file (stale build? run dune build)";
            }
            :: !diags
      | infos -> (
          match (infos.cmt_annots, infos.cmt_sourcefile) with
          | Cmt_format.Implementation str, Some source
            when Filename.check_suffix source ".ml"
                 && in_dirs ~dirs source
                 && not (Hashtbl.mem seen source) ->
              Hashtbl.replace seen source ();
              units :=
                {
                  modname = Sem_util.normalize_modname infos.cmt_modname;
                  path = source;
                  str;
                }
                :: !units
          | _ -> ()))
    (List.sort String.compare
       (match dirs with
       | [] -> find_cmts root []
       | dirs ->
           List.fold_left
             (fun acc d -> find_cmts (Filename.concat root d) acc)
             [] dirs));
  let units =
    List.sort (fun a b -> String.compare a.path b.path) !units
  in
  (units, List.rev !diags)

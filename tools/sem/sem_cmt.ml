(* Discovery and loading of the .cmt and .cmti files dune emits under
   [_build/default/<dir>/.<lib>.objs/byte/].  The analyses key
   everything off the recorded source path (repo-relative, e.g.
   [lib/parallel/pool.ml]), so callers filter by source-directory
   prefix, not by build layout. *)

type unit_info = {
  modname : string;  (* normalized, e.g. "Pool" *)
  path : string;  (* repo-relative source file *)
  str : Typedtree.structure;
}

(* An interface, for U1: [imodname] is the compilation unit's full
   name ([Harmony_parallel__Pool]), the name resolved paths carry. *)
type interface_info = {
  imodname : string;
  ipath : string;  (* repo-relative .mli *)
  sg : Typedtree.signature;
}

type tree = {
  root : string;  (* the build root, which holds a copy of every source *)
  units : unit_info list;  (* every implementation unit, by path *)
  interfaces : interface_info list;  (* every interface, by path *)
  diags : Lint_diag.t list;  (* unreadable artifacts *)
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
          else if
            Filename.check_suffix entry ".cmt"
            || Filename.check_suffix entry ".cmti"
          then p :: acc
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

(* Load every implementation and interface artifact under [root].
   Alias-module stubs (sources ending in .ml-gen) are skipped; an
   unreadable artifact becomes a "cmt" diagnostic rather than an
   abort, so one stale file cannot hide the rest of the report. *)
let load ~root =
  let units = ref [] in
  let interfaces = ref [] in
  let diags = ref [] in
  let seen = Hashtbl.create 64 in
  let fresh source =
    (not (Hashtbl.mem seen source)) && (Hashtbl.replace seen source (); true)
  in
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
            when Filename.check_suffix source ".ml" && fresh source ->
              units :=
                {
                  modname = Sem_util.normalize_modname infos.cmt_modname;
                  path = source;
                  str;
                }
                :: !units
          | Cmt_format.Interface sg, Some source
            when Filename.check_suffix source ".mli" && fresh source ->
              interfaces :=
                { imodname = infos.cmt_modname; ipath = source; sg }
                :: !interfaces
          | _ -> ()))
    (List.sort String.compare (find_cmts root []));
  {
    root;
    units = List.sort (fun a b -> String.compare a.path b.path) !units;
    interfaces =
      List.sort (fun a b -> String.compare a.ipath b.ipath) !interfaces;
    diags = List.rev !diags;
  }

(* Shared helpers for the typedtree analyses: path normalization and
   resolution, and type-expression destructors.  Everything here is
   pure and total. *)

open Types

(* dune names compilation units [Harmony_parallel__Pool]; the analyses
   and the diagnostics both want the bare [Pool]. *)
let normalize_modname name =
  let n = String.length name in
  let rec last_sep i best =
    if i + 1 >= n then best
    else if name.[i] = '_' && name.[i + 1] = '_' then last_sep (i + 1) (Some (i + 2))
    else last_sep (i + 1) best
  in
  match last_sep 0 None with
  | Some i when i < n -> String.sub name i (n - i)
  | _ -> name

let rec path_flatten = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_flatten p @ [ s ]
  | Path.Papply (p, _) -> path_flatten p
  | Path.Pextra_ty (p, _) -> path_flatten p

(* Components with the [Stdlib] head dropped and dune prefixes
   stripped, so [Stdlib.Mutex.lock] and a local [Mutex.lock] agree and
   [Harmony_parallel__Pool.map_array] reads [Pool.map_array]. *)
let norm_path p =
  let l = List.map normalize_modname (path_flatten p) in
  match l with "Stdlib" :: (_ :: _ as rest) -> rest | l -> l

let dotted l = String.concat "." l

(* A value path as the stdlib spells it, when its head is a
   compilation unit: [Stdlib.List.hd], [Stdlib__List.hd] and
   [Unix.time] read [List.hd] and [Unix.time].  The unit's own module
   aliases are expanded first: with [module R = Random] in [aliases]
   (unique ident name -> aliased path), [R.int] reads [Random.int].
   [open] and [let open] need no expansion — the typechecker already
   resolved the names they bring into scope.  [None] for a path rooted
   in a local module or value: a local [List] that shadows the
   stdlib's is not the stdlib's. *)
let resolve ~aliases p =
  let rec go = function
    | Path.Pident id when Ident.global id -> Some [ Ident.name id ]
    | Path.Pident id ->
        Option.bind (Hashtbl.find_opt aliases (Ident.unique_name id)) go
    | Path.Pdot (p, s) -> Option.map (fun l -> l @ [ s ]) (go p)
    | Path.Papply _ | Path.Pextra_ty _ -> None
  in
  match go p with
  | Some ("Stdlib" :: (_ :: _ as rest)) -> Some rest
  | Some (m :: rest) when String.starts_with ~prefix:"Stdlib__" m ->
      Some (normalize_modname m :: rest)
  | l -> l

(* The last two components as ["Mod.name"] (or just ["name"] for a
   bare ident) — the matching currency for operation tables, which
   must be robust to how deeply a path happens to be qualified. *)
let last2 l =
  match List.rev l with
  | a :: b :: _ -> b ^ "." ^ a
  | [ a ] -> a
  | [] -> ""

let key_of_path p = last2 (norm_path p)

(* ------------------------------------------------------------------ *)
(* Type expressions *)

let rec head_desc ty =
  match get_desc ty with Tpoly (ty, _) -> head_desc ty | d -> d

let constr_path ty =
  match head_desc ty with Tconstr (p, _, _) -> Some p | _ -> None

let is_arrow ty = match head_desc ty with Tarrow _ -> true | _ -> false

(* Argument types of an arrow type, left to right. *)
let rec arrow_args ty =
  match head_desc ty with
  | Tarrow (_, a, b, _) -> a :: arrow_args b
  | _ -> []

let is_float_path p = Path.same p Predef.path_float

let is_int ty =
  match constr_path ty with
  | Some p -> Path.same p Predef.path_int
  | None -> false

(* ------------------------------------------------------------------ *)
(* Expressions *)

let expr_path (e : Typedtree.expression) =
  match e.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

let expr_key e = Option.map key_of_path (expr_path e)

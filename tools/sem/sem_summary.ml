(* Inter-module summary store.  Two facts cross module boundaries:

   - float aliases: [type ms = float] in one module must make
     [compare : ms -> ms -> int] a finding in every module (S3).  The
     typechecker does not expand manifests in instantiated types, so
     the aliases are collected from every unit's type declarations and
     closed under aliasing with a fixpoint.

   - may-acquire sets: which locks a function can take, directly or
     through calls, so the lock-order graph (S2) sees [Mutex.protect
     outer (fun () -> Measure.robust ...)] as an outer→robust.lock
     edge even though the inner acquisition lives in another module.

   Keys are ["Mod.name"] with dune prefixes normalized; functions in
   nested modules register under both their full dotted key
   ("Measure.Clock.now") and its two-component tail ("Clock.now"),
   which is how call sites inside the defining module spell them. *)

type fn_info = {
  mutable acquires : string list;  (* locks taken directly, any depth *)
  mutable calls : string list;  (* callee keys, resolved lazily *)
}

type t = {
  float_aliases : (string, unit) Hashtbl.t;
  fns : (string, fn_info) Hashtbl.t;
  (* post-fixpoint transitive may-acquire sets *)
  may_acquire : (string, string list) Hashtbl.t;
}

let create () =
  {
    float_aliases = Hashtbl.create 16;
    fns = Hashtbl.create 64;
    may_acquire = Hashtbl.create 64;
  }

(* ------------------------------------------------------------------ *)
(* Float aliases *)

(* Candidate lookup for a type path seen at a use site inside
   [modname]: a [Pident] spells an alias from the same module, a
   [Pdot] carries its own (dune-mangled) module component. *)
let alias_keys ~modname p =
  match Sem_util.norm_path p with
  | [ name ] -> [ modname ^ "." ^ name ]
  | l -> [ Sem_util.last2 l; Sem_util.dotted l ]

let is_float_alias t ~modname p =
  List.exists (Hashtbl.mem t.float_aliases) (alias_keys ~modname p)

let is_float t ~modname ty =
  match Sem_util.constr_path ty with
  | Some p -> Sem_util.is_float_path p || is_float_alias t ~modname p
  | None -> false

(* One unit's manifest declarations: [(alias key, manifest path)].
   Fed to [close_aliases] once every unit has been scanned. *)
let collect_aliases ~modname (str : Typedtree.structure) =
  let out = ref [] in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_type (_, decls) ->
          List.iter
            (fun (d : Typedtree.type_declaration) ->
              match d.typ_manifest with
              | Some core when d.typ_params = [] -> (
                  match Sem_util.constr_path core.ctyp_type with
                  | Some p ->
                      out := (modname ^ "." ^ d.typ_name.txt, p) :: !out
                  | None -> ())
              | _ -> ())
            decls
      | _ -> ())
    str.str_items;
  !out

let close_aliases t candidates =
  (* [candidates]: (key, manifest path, defining module) triples.
     Iterate to a fixpoint so [type s = Telemetry.ms] resolves through
     [type ms = float] regardless of scan order. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (key, p, modname) ->
        if not (Hashtbl.mem t.float_aliases key) then
          if Sem_util.is_float_path p || is_float_alias t ~modname p then begin
            Hashtbl.replace t.float_aliases key ();
            changed := true
          end)
      candidates
  done

(* ------------------------------------------------------------------ *)
(* May-acquire summaries *)

let fn_info t key =
  match Hashtbl.find_opt t.fns key with
  | Some i -> i
  | None ->
      let i = { acquires = []; calls = [] } in
      Hashtbl.replace t.fns key i;
      i

let record_acquire t ~fn lock =
  let i = fn_info t fn in
  if not (List.mem lock i.acquires) then i.acquires <- lock :: i.acquires

let record_call t ~fn callee =
  let i = fn_info t fn in
  if not (List.mem callee i.calls) then i.calls <- callee :: i.calls

(* Callee keys at a call site: the full normalized dotted path plus
   its two-component tail, so ["Clock.now"] finds
   ["Measure.Clock.now"] and ["Measure.robust"] finds itself. *)
let callee_keys p =
  let l = Sem_util.norm_path p in
  List.sort_uniq String.compare [ Sem_util.dotted l; Sem_util.last2 l ]

(* Transitive closure of acquires through calls.  The graph is tiny
   (one node per top-level function), so a plain iterate-to-fixpoint
   is fine. *)
let close_fns t =
  Hashtbl.iter
    (fun key (i : fn_info) ->
      Hashtbl.replace t.may_acquire key (List.sort_uniq String.compare i.acquires))
    t.fns;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun key (i : fn_info) ->
        let cur = Hashtbl.find t.may_acquire key in
        let extra =
          List.concat_map
            (fun callee ->
              match Hashtbl.find_opt t.may_acquire callee with
              | Some locks -> locks
              | None -> [])
            i.calls
        in
        let next = List.sort_uniq String.compare (extra @ cur) in
        if next <> cur then begin
          Hashtbl.replace t.may_acquire key next;
          changed := true
        end)
      t.fns
  done

let may_acquire_keys t keys =
  match List.find_map (fun k -> Hashtbl.find_opt t.may_acquire k) keys with
  | Some locks -> locks
  | None -> []

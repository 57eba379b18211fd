(* The four semantic rule families (DESIGN.md §14).

   S1  race detector: mutable state captured by closures submitted to
       the domain pool must be lock-protected on every access path.
       Sanctioned: per-task disjoint array slots (index mentions a
       task-bound variable), Atomic.*, Domain.DLS, and state passed in
       as a parameter (per-shard disjointness is the caller's
       contract, enforced at the submission site).
   S2  lock-order checker: the static lock-acquisition graph must be
       acyclic and the telemetry lock a leaf.
   S3  type-aware float ordering: no polymorphic compare/=/min/max at
       an *inferred* float type, through aliases and let-bindings —
       the semantic upgrade of the syntactic N1.
   S4  handler totality: protocol-handler modules contain no partial
       match, assert false, failwith/exit, or raise of a freshly built
       exception (re-raise of a caught exception and invalid_arg are
       allowed, matching T2). *)

open Typedtree

type rule = {
  id : string;
  severity : Lint_diag.severity;
  summary : string;
  doc : string;
}

let s1 =
  {
    id = "S1";
    severity = Lint_diag.Error;
    summary = "no unlocked shared mutable state in pool tasks";
    doc =
      "Closures submitted to Pool.map_array/run (or pushed onto a task \
       queue) must guard refs, Hashtbl/Buffer/Queue ops and mutable \
       fields they capture with Mutex.protect/lock. Disjoint array \
       slots indexed by a task-bound variable, Atomic and Domain.DLS \
       are sanctioned.";
  }

let s2 =
  {
    id = "S2";
    severity = Lint_diag.Error;
    summary = "lock order: acyclic, telemetry and flight locks leaves";
    doc =
      "The static Mutex.lock/protect nesting graph (closed over calls \
       via per-function may-acquire summaries) must have no cycle, no \
       re-acquisition of a held lock, and no lock acquired while the \
       telemetry lock or the flight recorder's lock is held (both are \
       forced leaves of the order).";
  }

let s3 =
  {
    id = "S3";
    severity = Lint_diag.Error;
    summary = "no polymorphic compare/min/max/= at inferred float type";
    doc =
      "compare, =, <>, ==, !=, min and max are flagged whenever their \
       instantiated argument type is float or a float alias (type ms = \
       float), however the value was laundered through let-bindings or \
       helper arguments. Use Float.compare or epsilon logic.";
  }

let s4 =
  {
    id = "S4";
    severity = Lint_diag.Error;
    summary = "protocol handlers are total on the typedtree";
    doc =
      "In server.ml/service.ml/session.ml: every match and function \
       must be exhaustive (typedtree Partial flag), and assert false, \
       failwith, exit and raising a freshly constructed exception are \
       banned (invalid_arg and re-raising a caught exception stay \
       allowed, as in T2).";
  }

let all = [ s1; s2; s3; s4 ]

let find id = List.find_opt (fun r -> r.id = id) all

(* ------------------------------------------------------------------ *)
(* Shared traversal helpers *)

let iter_exprs str f =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          f e;
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.structure it str

(* Every value binding in the unit (any depth), keyed by the unique
   ident name, plus the set of module-level binding names. *)
let collect_bindings (str : structure) =
  let bindings = Hashtbl.create 64 in
  let toplevel = Hashtbl.create 32 in
  let it =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun sub vb ->
          (match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) ->
              Hashtbl.replace bindings (Ident.unique_name id) vb.vb_expr
          | _ -> ());
          Tast_iterator.default_iterator.value_binding sub vb);
    }
  in
  it.structure it str;
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) -> Hashtbl.replace toplevel (Ident.name id) ()
              | _ -> ())
            vbs
      | _ -> ())
    str.str_items;
  (bindings, toplevel)

(* All idents bound anywhere inside [e]: function parameters, let
   patterns, match patterns, for-loop indices. *)
let collect_bound (e : expression) =
  let bound = Hashtbl.create 32 in
  let add id = Hashtbl.replace bound (Ident.unique_name id) () in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun sub p ->
          List.iter add (pat_bound_idents p);
          Tast_iterator.default_iterator.pat sub p);
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_for (id, _, _, _, _, _) -> add id
          | Texp_function { param; _ } -> add param
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  bound

let mentions_bound bound e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _)
            when Hashtbl.mem bound (Ident.unique_name id) ->
              found := true
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e;
  !found

(* Root of a data-structure expression: strip field projections, array
   reads and ref derefs down to the underlying ident. *)
let rec root_ident (e : expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> `Local id
  | Texp_ident (p, _, _) -> `Global p
  | Texp_field (b, _, _) -> root_ident b
  | Texp_apply (f, args) -> (
      match (Sem_util.expr_key f, List.filter_map snd args) with
      | Some ("Array.get" | "Array.unsafe_get" | "!"), a :: _ -> root_ident a
      | _ -> `None)
  | _ -> `None

let describe_root = function
  | `Local id -> Ident.name id
  | `Global p -> Sem_util.dotted (Sem_util.norm_path p)
  | `None -> "?"

(* Chase an ident (or partial application) back to the lambda it
   names, through the unit's binding map. *)
let rec resolve_fn bindings visited (e : expression) =
  match e.exp_desc with
  | Texp_function _ -> Some e
  | Texp_ident (Path.Pident id, _, _) -> (
      let k = Ident.unique_name id in
      if List.mem k visited then None
      else
        match Hashtbl.find_opt bindings k with
        | Some e' -> resolve_fn bindings (k :: visited) e'
        | None -> None)
  | Texp_apply (f, _) -> resolve_fn bindings visited f
  | _ -> None

(* ------------------------------------------------------------------ *)
(* S1: race detector *)

(* Entry points whose function-typed arguments run on other domains. *)
let submission_keys =
  [
    "Pool.run"; "Pool.map"; "Pool.map_array"; "Pool.try_map_array";
    "Objective.eval_batch"; "Batch.eval_batch"; "Domain.spawn";
    "Thread.create";
  ]

(* Mutating operations: (path tail, index of the mutated subject,
   human label, subject to the disjoint-index sanction?). *)
let mutating_ops =
  [
    (":=", 0, "ref write", false);
    ("!", 0, "ref read", false);
    ("incr", 0, "ref write", false);
    ("decr", 0, "ref write", false);
    ("Hashtbl.add", 0, "Hashtbl write", false);
    ("Hashtbl.replace", 0, "Hashtbl write", false);
    ("Hashtbl.remove", 0, "Hashtbl write", false);
    ("Hashtbl.reset", 0, "Hashtbl write", false);
    ("Hashtbl.clear", 0, "Hashtbl write", false);
    ("Hashtbl.filter_map_inplace", 1, "Hashtbl write", false);
    ("Buffer.add_char", 0, "Buffer write", false);
    ("Buffer.add_string", 0, "Buffer write", false);
    ("Buffer.add_bytes", 0, "Buffer write", false);
    ("Buffer.add_substring", 0, "Buffer write", false);
    ("Buffer.add_subbytes", 0, "Buffer write", false);
    ("Buffer.add_buffer", 0, "Buffer write", false);
    ("Buffer.clear", 0, "Buffer write", false);
    ("Buffer.reset", 0, "Buffer write", false);
    ("Buffer.truncate", 0, "Buffer write", false);
    ("Queue.push", 1, "Queue write", false);
    ("Queue.add", 1, "Queue write", false);
    ("Queue.pop", 0, "Queue write", false);
    ("Queue.take", 0, "Queue write", false);
    ("Queue.take_opt", 0, "Queue write", false);
    ("Queue.pop_opt", 0, "Queue write", false);
    ("Queue.clear", 0, "Queue write", false);
    ("Stack.push", 1, "Stack write", false);
    ("Stack.pop", 0, "Stack write", false);
    ("Stack.clear", 0, "Stack write", false);
    ("Bytes.set", 0, "Bytes write", true);
    ("Bytes.unsafe_set", 0, "Bytes write", true);
    ("Bytes.fill", 0, "Bytes write", false);
    ("Bytes.blit", 2, "Bytes write", false);
    (* Array.* tails also match Float.Array.* via the two-component
       path tail. *)
    ("Array.set", 0, "array write", true);
    ("Array.unsafe_set", 0, "array write", true);
    ("Array.fill", 0, "array write", false);
    ("Array.blit", 2, "array write", false);
    ("Array.sort", 1, "in-place sort", false);
    ("Array.stable_sort", 1, "in-place sort", false);
    ("Array.fast_sort", 1, "in-place sort", false);
  ]

let run_s1 ~modname ~path (str : structure) =
  let diags = ref [] in
  let bindings, toplevel = collect_bindings str in
  let flag ~loc fmt =
    Format.kasprintf
      (fun message ->
        diags :=
          Lint_diag.make ~rule:"S1" ~severity:s1.severity ~loc message
          :: !diags)
      fmt
  in
  (* Analyze one task closure (and, transitively, the locally bound
     functions it calls) with the lock walker.  Followed callees
     inherit the caller chain's bound set: a helper defined inside the
     task (or inside a function the task calls) captures per-call
     state, which is task-local, not shared — only idents bound in no
     scope along the chain denote state shared across tasks. *)
  let analyze_task task_expr =
    let visited = Hashtbl.create 8 in
    let queue = Queue.create () in
    let push_fn fn held inherited =
      let bound = Hashtbl.copy inherited in
      Hashtbl.iter (fun k () -> Hashtbl.replace bound k ()) (collect_bound fn);
      Queue.add (fn, held, bound) queue
    in
    (match resolve_fn bindings [] task_expr with
    | Some fn -> push_fn fn [] (Hashtbl.create 1)
    | None -> ());
    while not (Queue.is_empty queue) do
      let fn, entry_held, bound = Queue.pop queue in
      let check_subject ~held ~loc ~label subject =
        if held = [] then
          match root_ident subject with
          | `None -> ()
          | (`Local _ | `Global _) as root ->
              let shared =
                match root with
                | `Local id -> not (Hashtbl.mem bound (Ident.unique_name id))
                | `Global _ -> true
              in
              if shared then
                flag ~loc
                  "%s to shared '%s' inside a pool task without holding a \
                   lock (wrap in Mutex.protect, use Atomic/Domain.DLS, or \
                   make the state task-local)"
                  label (describe_root root)
      in
      let on_node ~held (e : expression) =
        match e.exp_desc with
        | Texp_setfield (base, _, lbl, _) ->
            check_subject ~held ~loc:e.exp_loc
              ~label:(Printf.sprintf "mutable-field write (%s)" lbl.lbl_name)
              base
        | Texp_field (base, _, lbl) when lbl.lbl_mut = Asttypes.Mutable ->
            check_subject ~held ~loc:e.exp_loc
              ~label:(Printf.sprintf "mutable-field read (%s)" lbl.lbl_name)
              base
        | Texp_apply (f, args) -> (
            let arg_exprs = List.filter_map snd args in
            match Sem_util.expr_key f with
            | Some key -> (
                match
                  List.find_opt (fun (k, _, _, _) -> k = key) mutating_ops
                with
                | Some (_, ix, label, indexed) -> (
                    match List.nth_opt arg_exprs ix with
                    | Some subject ->
                        (* Disjoint-slot sanction: an element write
                           whose index mentions a task-bound variable
                           touches this task's slot only. *)
                        let sanctioned =
                          indexed
                          &&
                          match arg_exprs with
                          | _ :: index :: _ -> mentions_bound bound index
                          | _ -> false
                        in
                        if not sanctioned then
                          check_subject ~held ~loc:e.exp_loc ~label subject
                    | None -> ())
                | None -> ())
            | None -> ())
        | _ -> ()
      in
      let on_call ~held p _loc =
        match p with
        | Path.Pident id -> (
            let k = Ident.unique_name id in
            if not (Hashtbl.mem visited k) then begin
              Hashtbl.replace visited k ();
              match Hashtbl.find_opt bindings k with
              | Some e -> (
                  match resolve_fn bindings [] e with
                  | Some fn -> push_fn fn held bound
                  | None -> ())
              | None -> ()
            end)
        | _ -> ()
      in
      let ctx =
        {
          Sem_lockwalk.modname;
          topfn = "<task>";
          toplevel = Hashtbl.mem toplevel;
          cb = { Sem_lockwalk.no_callbacks with on_node; on_call };
        }
      in
      Sem_lockwalk.walk_lambda_body ctx entry_held fn
    done
  in
  ignore path;
  iter_exprs str (fun e ->
      match e.exp_desc with
      | Texp_apply (f, args) -> (
          let arg_exprs = List.filter_map snd args in
          match Sem_util.expr_key f with
          | Some key when List.mem key submission_keys ->
              List.iter
                (fun a -> if Sem_util.is_arrow a.exp_type then analyze_task a)
                arg_exprs
          | Some ("Queue.push" | "Queue.add") -> (
              (* The pool's internal task queue: pushing a thunk is a
                 submission. *)
              match arg_exprs with
              | v :: _ when Sem_util.is_arrow v.exp_type -> analyze_task v
              | _ -> ())
          | _ -> ())
      | _ -> ());
  !diags

(* ------------------------------------------------------------------ *)
(* S2: lock-order checker *)

let fn_reg_keys fnkey =
  List.sort_uniq String.compare
    [ fnkey; Sem_util.last2 (String.split_on_char '.' fnkey) ]

let rec iter_top_functions ~mprefix (str : structure) f =
  List.iter
    (fun (item : structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) -> f ~mprefix (Ident.name id) vb.vb_expr
              | _ -> ())
            vbs
      | Tstr_module mb -> (
          let sub_structure me =
            match me.mod_desc with
            | Tmod_structure s -> Some s
            | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
                Some s
            | _ -> None
          in
          match (sub_structure mb.mb_expr, mb.mb_name.txt) with
          | Some s, Some name ->
              iter_top_functions ~mprefix:(mprefix ^ "." ^ name) s f
          | _ -> ())
      | _ -> ())
    str.str_items

let run_s2 ~(summary : Sem_summary.t) (units : (string * string * structure) list)
    =
  let diags = ref [] in
  let graph = Sem_lockgraph.create () in
  (* deferred call-site edges, resolved after the may-acquire fixpoint *)
  let call_sites = ref [] in
  List.iter
    (fun (modname, path, str) ->
      let _, toplevel = collect_bindings str in
      iter_top_functions ~mprefix:modname str (fun ~mprefix name vb_expr ->
          let fnkey = mprefix ^ "." ^ name in
          let on_acquire ~held ~lock loc =
            if not (Sem_lockwalk.is_anon lock) then
              List.iter
                (fun k -> Sem_summary.record_acquire summary ~fn:k lock)
                (fn_reg_keys fnkey);
            if List.mem lock held && not (Sem_lockwalk.is_anon lock) then
              diags :=
                Lint_diag.make ~rule:"S2" ~severity:s2.severity ~loc
                  (Printf.sprintf
                     "re-acquisition of held lock %s (self-deadlock)" lock)
                :: !diags;
            List.iter
              (fun h ->
                if not (Sem_lockwalk.is_anon h || Sem_lockwalk.is_anon lock)
                then
                  Sem_lockgraph.add graph
                    { Sem_lockgraph.src = h; dst = lock; file = path; loc })
              held
          in
          let on_call ~held p loc =
            (* An unqualified callee is a sibling in this module: its
               summary is registered under the module-qualified key, so
               add that to the lookup set. *)
            let ckeys =
              let base = Sem_summary.callee_keys p in
              match Sem_util.norm_path p with
              | [ callee_name ] ->
                  List.sort_uniq String.compare
                    ((mprefix ^ "." ^ callee_name) :: base)
              | _ -> base
            in
            List.iter
              (fun callee ->
                List.iter
                  (fun k -> Sem_summary.record_call summary ~fn:k callee)
                  (fn_reg_keys fnkey))
              ckeys;
            let held = List.filter (fun h -> not (Sem_lockwalk.is_anon h)) held in
            if held <> [] then call_sites := (held, ckeys, path, loc) :: !call_sites
          in
          let ctx =
            {
              Sem_lockwalk.modname;
              topfn = name;
              toplevel = Hashtbl.mem toplevel;
              cb = { Sem_lockwalk.no_callbacks with on_acquire; on_call };
            }
          in
          ignore (Sem_lockwalk.walk ctx [] vb_expr)))
    units;
  Sem_summary.close_fns summary;
  List.iter
    (fun (held, ckeys, path, loc) ->
      List.iter
        (fun lock ->
          List.iter
            (fun h ->
              Sem_lockgraph.add graph
                { Sem_lockgraph.src = h; dst = lock; file = path; loc })
            held)
        (Sem_summary.may_acquire_keys summary ckeys))
    (List.rev !call_sites);
  (match Sem_lockgraph.find_cycle graph with
  | Some (cycle, Some edge) ->
      diags :=
        Lint_diag.make ~rule:"S2" ~severity:s2.severity ~loc:edge.loc
          (Printf.sprintf "lock-order cycle: %s -> %s"
             (String.concat " -> " cycle)
             (List.hd cycle))
        :: !diags
  | _ -> ());
  (* Forced leaves of the lock order: the telemetry registry lock and
     the flight recorder's ring lock.  A handle with a ring attached
     adopts the ring's mutex as its lock and writes the ring slot in the
     same critical section as the event, so neither may be held while
     acquiring anything else. *)
  List.iter
    (fun (leaf_prefix, what) ->
      List.iter
        (fun (e : Sem_lockgraph.edge) ->
          diags :=
            Lint_diag.make ~rule:"S2" ~severity:s2.severity ~loc:e.loc
              (Printf.sprintf
                 "%s acquired while holding %s %s (the %s must be a leaf of \
                  the lock order)"
                 e.dst what e.src what)
            :: !diags)
        (Sem_lockgraph.leaf_violations graph ~leaf_prefix))
    [ ("Telemetry.", "telemetry lock"); ("Flight.", "flight recorder lock") ];
  !diags

(* ------------------------------------------------------------------ *)
(* S3: type-aware float ordering *)

let poly_cmp_ops = [ "compare"; "="; "<>"; "=="; "!="; "min"; "max" ]

let run_s3 ~(summary : Sem_summary.t) ~modname (str : structure) =
  let diags = ref [] in
  iter_exprs str (fun e ->
      match e.exp_desc with
      | Texp_ident (p, _, _) -> (
          match Sem_util.norm_path p with
          | [ op ] when List.mem op poly_cmp_ops -> (
              match Sem_util.arrow_args e.exp_type with
              | a :: _ when Sem_summary.is_float summary ~modname a ->
                  let shown =
                    match Sem_util.constr_path a with
                    | Some tp when not (Sem_util.is_float_path tp) ->
                        Printf.sprintf "float (via alias %s)"
                          (Sem_util.dotted (Sem_util.norm_path tp))
                    | _ -> "float"
                  in
                  diags :=
                    Lint_diag.make ~rule:"S3" ~severity:s3.severity
                      ~loc:e.exp_loc
                      (Printf.sprintf
                         "polymorphic %s used at %s; NaN breaks ordering — \
                          use Float.compare or explicit epsilon logic"
                         op shown)
                    :: !diags
              | _ -> ())
          | _ -> ())
      | _ -> ());
  !diags

(* ------------------------------------------------------------------ *)
(* S4: handler totality *)

let s4_files = [ "server.ml"; "service.ml"; "session.ml"; "admission.ml" ]

let s4_applies path = List.mem (Filename.basename path) s4_files

let run_s4 (str : structure) =
  let diags = ref [] in
  let flag ~loc fmt =
    Format.kasprintf
      (fun message ->
        diags :=
          Lint_diag.make ~rule:"S4" ~severity:s4.severity ~loc message
          :: !diags)
      fmt
  in
  iter_exprs str (fun e ->
      match e.exp_desc with
      | Texp_match (_, _, Partial) ->
          flag ~loc:e.exp_loc
            "non-exhaustive match in a protocol handler module (handlers \
             must be total)"
      | Texp_function { partial = Partial; _ } ->
          flag ~loc:e.exp_loc
            "non-exhaustive function in a protocol handler module (handlers \
             must be total)"
      | Texp_assert ({ exp_desc = Texp_construct (_, cd, _); _ }, _)
        when cd.cstr_name = "false" ->
          flag ~loc:e.exp_loc
            "assert false in a protocol handler module (return an error \
             reply instead)"
      | Texp_ident (p, _, _) -> (
          match Sem_util.norm_path p with
          | [ ("failwith" | "exit") as f ] ->
              flag ~loc:e.exp_loc
                "%s in a protocol handler module (handlers must not abort)" f
          | _ -> ())
      | Texp_apply (f, args) -> (
          match (Sem_util.expr_key f, List.filter_map snd args) with
          | Some ("raise" | "raise_notrace"), [ arg ] -> (
              match arg.exp_desc with
              | Texp_construct (_, cd, _)
                when cd.cstr_name <> "Invalid_argument" ->
                  flag ~loc:e.exp_loc
                    "raise %s in a protocol handler module (encode the \
                     failure in the reply instead)"
                    cd.cstr_name
              | _ -> ())
          | _ -> ())
      | _ -> ());
  !diags

(* ------------------------------------------------------------------ *)
(* Dispatch *)

(* [units]: (normalized module name, source path, structure). *)
let run ?(rules = all) ~(summary : Sem_summary.t) units =
  let want id = List.exists (fun r -> r.id = id) rules in
  (* Aliases feed S3 and must be complete before any unit is judged. *)
  let candidates =
    List.concat_map
      (fun (modname, _, str) ->
        List.map
          (fun (key, p) -> (key, p, modname))
          (Sem_summary.collect_aliases ~modname str))
      units
  in
  Sem_summary.close_aliases summary candidates;
  let per_unit =
    List.concat_map
      (fun (modname, path, str) ->
        (if want "S1" then run_s1 ~modname ~path str else [])
        @ (if want "S3" then run_s3 ~summary ~modname str else [])
        @ (if want "S4" && s4_applies path then run_s4 str else []))
      units
  in
  let global = if want "S2" then run_s2 ~summary units else [] in
  List.sort Lint_diag.compare (per_unit @ global)

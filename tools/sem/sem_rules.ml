(* The rule registry (DESIGN.md §8).  Every rule reads the typedtree,
   so names are matched on resolved paths: [open], [let open] and the
   unit's own module aliases cannot hide a call, and a local module
   that shadows a stdlib one is not mistaken for it.

   D1  no ambient nondeterminism (Random.*, Sys.time, Unix clocks) in
       lib/.
   D2  no module-level mutable state in lib/.
   T1  no raising stdlib partials (List.hd, Option.get, ...) in lib/.
   P1  no printing in hot evaluation paths.
   S1  race detector: mutable state captured by closures submitted to
       the domain pool must be lock-protected on every access path.
       Sanctioned: per-task disjoint array slots (index mentions a
       task-bound variable), Atomic.*, Domain.DLS, and state passed in
       as a parameter (per-shard disjointness is the caller's
       contract, enforced at the submission site).
   S2  lock-order checker: the static lock-acquisition graph must be
       acyclic and the telemetry lock a leaf.
   S3  polymorphic comparison: no stdlib compare at any type, no
       =/<>/==/!=/min/max at an *inferred* float type, through aliases
       and let-bindings, and no stdlib min/max at int.
   S4  handler totality: protocol-handler modules contain no partial
       match, assert false, failwith/exit, Obj.magic, or raise of a
       freshly built exception (re-raise of a caught exception and
       invalid_arg are allowed).
   U1  no exported value in lib/'s interfaces that no program uses:
       every val of a lib/ .mli must be referenced from a unit outside
       test/ other than its own. *)

open Typedtree

type rule = {
  id : string;
  severity : Lint_diag.severity;
  summary : string;
  doc : string;
}

let d1 =
  {
    id = "D1";
    severity = Lint_diag.Error;
    summary = "no ambient nondeterminism (Random.*, Sys.time, Unix.gettimeofday) in lib/";
    doc =
      "Tuner output must be byte-identical at --jobs 1 vs --jobs N. Ambient \
       randomness and wall clocks break that replayability; draw from \
       Harmony_numerics.Rng and the simulated clock instead.";
  }

let d2 =
  {
    id = "D2";
    severity = Lint_diag.Error;
    summary = "no module-toplevel mutable state in lib/";
    doc =
      "Pool tasks run on multiple domains; a module-level ref or table is \
       shared by all of them, and update order then depends on scheduling. \
       Thread state through values (records owned by a caller) instead.";
  }

let t1 =
  {
    id = "T1";
    severity = Lint_diag.Error;
    summary = "no raising stdlib partials (List.hd, Option.get, Hashtbl.find, ...) in lib/";
    doc =
      "An online tuner must degrade, not die: a Not_found escaping mid-search \
       loses the whole session. Use the _opt variants and handle None \
       explicitly (worst-case penalty, rejection, or invalid_arg at the API \
       boundary).";
  }

let p1 =
  {
    id = "P1";
    severity = Lint_diag.Error;
    summary = "no Printf/Format printing in hot evaluation paths";
    doc =
      "The evaluation inner loop (objective, measurement, simplex, \
       controller, tuner, pool, the DES engine, and the web-service \
       models it drives) runs thousands of times per session and \
       concurrently across domains; stdout/stderr writes there serialize \
       domains and interleave nondeterministically. Use the logs facade at \
       the edges; pp functions over an explicit formatter stay fine. The \
       instrumented paths (telemetry, persistence, server, session, \
       sensitivity, analyzer) are held to the same bar: the telemetry \
       registry and the persist sinks are the only sanctioned output \
       paths there — a handle records, an exporter renders, and whoever \
       owns stdout prints. The trace analyzer's core returns renderings; \
       only its CLI prints.";
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
    summary =
      "no polymorphic compare, no =/<>/min/max at inferred float type, no \
       min/max at int";
    doc =
      "Fault injection emits NaN sentinels, and polymorphic comparison \
       silently mis-handles NaN (nan = nan is false; min nan x is \
       order-dependent), corrupting the simplex ordering. The stdlib's \
       compare is flagged at every type; =, <>, ==, !=, min and max \
       whenever their instantiated argument type is float or a float \
       alias (type ms = float), however the value was laundered through \
       let-bindings or helper arguments. Use Float.compare, Float.equal, \
       Float.min/max, or a typed comparator. Ordering operators (<, <=) \
       compile to IEEE comparisons and are left to code review plus the \
       Measure layer's explicit NaN handling. The stdlib's min and max \
       are flagged at int too: they are polymorphic, so each call goes \
       through caml_lessequal into compare_val, where Int.min and Int.max \
       compile to one compare.";
  }

let s4 =
  {
    id = "S4";
    severity = Lint_diag.Error;
    summary = "protocol handlers are total on the typedtree";
    doc =
      "In lib/service/ and lib/core/server.ml and session.ml: every match \
       and function must be exhaustive (typedtree Partial flag), and \
       assert false, failwith, exit, Obj.magic and raising a freshly \
       constructed exception are banned (invalid_arg and re-raising a \
       caught exception stay allowed). Reply with Rejected (or thread a \
       result) instead.";
  }

let u1 =
  {
    id = "U1";
    severity = Lint_diag.Error;
    summary = "no exported value in lib/ that no program uses";
    doc =
      "Every val of a lib/ interface must be referenced, by resolved path, \
       from an implementation unit outside test/ other than its own: \
       bin/, bench/, perfbench/, tools/, examples/ or another lib/ unit. \
       An include, a functor argument or a packed module uses every value \
       of its module. Delete a value only tests call (with its tests), \
       drop one only its own module uses from the interface, or waive it \
       inline at its val with the reason it stays.";
  }

let all = [ s1; s2; s3; s4; d1; d2; t1; p1; u1 ]

let find id = List.find_opt (fun r -> r.id = id) all

(* ------------------------------------------------------------------ *)
(* Scopes.  Paths are the repo-relative source paths the cmt files
   record (and the fixtures pass). *)

let under dir path = String.starts_with ~prefix:(dir ^ "/") path

let in_core names path =
  under "lib/core" path && List.mem (Filename.basename path) names

let p1_applies path =
  List.exists
    (fun dir -> under dir path)
    [
      "lib/objective"; "lib/parallel"; "lib/telemetry"; "lib/persist";
      "lib/des"; "lib/webservice"; "lib/service";
    ]
  || in_core
       [
         "simplex.ml"; "controller.ml"; "tuner.ml"; "server.ml"; "session.ml";
         "sensitivity.ml"; "analyzer.ml";
       ]
       path
  || String.equal path "tools/trace/trace_core.ml"

let s4_applies path =
  under "lib/service" path || in_core [ "server.ml"; "session.ml" ] path

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
(* Module aliases and resolved-path tables (D1, T1, P1) *)

(* The unit's module aliases — [module R = Random] at any structure
   level and [let module R = Random in] — keyed by the alias's unique
   ident name, for [Sem_util.resolve]. *)
(* The module a module expression names, when it names one. *)
let rec module_target (me : module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> module_target me
  | _ -> None

let module_aliases (str : structure) =
  let aliases = Hashtbl.create 8 in
  let add id me =
    match (id, module_target me) with
    | Some id, Some p -> Hashtbl.replace aliases (Ident.unique_name id) p
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      module_binding =
        (fun sub mb ->
          add mb.mb_id mb.mb_expr;
          Tast_iterator.default_iterator.module_binding sub mb);
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_letmodule (id, _, _, me, _) -> add id me
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.structure it str;
  aliases

(* Every reference to a value whose resolved path [table] maps to a
   message is a finding of [rule]. *)
let run_table rule table ~aliases (str : structure) =
  let diags = ref [] in
  iter_exprs str (fun e ->
      match e.exp_desc with
      | Texp_ident (p, _, _) -> (
          match Option.bind (Sem_util.resolve ~aliases p) table with
          | Some message ->
              diags :=
                Lint_diag.make ~rule:rule.id ~severity:rule.severity
                  ~loc:e.exp_loc message
                :: !diags
          | None -> ())
      | _ -> ());
  !diags

let d1_table path =
  let hint =
    match path with
    | [ "Random"; "State"; "make_self_init" ] ->
        Some "seed explicitly via Harmony_numerics.Rng"
    | [ "Random"; _ ] ->
        (* The whole ambient-state surface of [Random]: int, float,
           bool, bits, init, self_init, get_state, ...
           [Random.State.*] is the sanctioned, explicitly-seeded API. *)
        Some "use Harmony_numerics.Rng (explicit seeded state)"
    | [ "Sys"; "time" ]
    | [ "Unix"; ("gettimeofday" | "time" | "localtime" | "gmtime") ] ->
        Some "use the simulated clock (Harmony_des.Sim / Measure's clock)"
    | _ -> None
  in
  Option.map
    (Printf.sprintf "ambient nondeterminism `%s`; %s" (Sem_util.dotted path))
    hint

(* Each hint names a function the stdlib has: [List.hd_opt],
   [Queue.pop_opt] and [Queue.top_opt] do not exist ([Queue.pop] and
   [Queue.top] are [take] and [peek]). *)
let t1_table path =
  let instead =
    match path with
    | [ "List"; ("hd" | "tl") ] -> Some "a match on the list"
    | [ "Queue"; ("pop" | "take") ] -> Some "Queue.take_opt"
    | [ "Queue"; ("peek" | "top") ] -> Some "Queue.peek_opt"
    | [ "List"; ("nth" | "find" | "assoc" | "assq") ] | [ "Stack"; ("pop" | "top") ]
      ->
        Some (Sem_util.dotted path ^ "_opt")
    | [ "Option"; "get" ] -> Some "pattern-match on the option"
    | [ "Hashtbl"; "find" ] -> Some "Hashtbl.find_opt"
    | [ (("int_of_string" | "float_of_string" | "bool_of_string") as f) ] ->
        Some (f ^ "_opt")
    | _ -> None
  in
  Option.map
    (Printf.sprintf "raising partial `%s`; use %s" (Sem_util.dotted path))
    instead

let p1_table path =
  match path with
  | [ "Printf"; ("printf" | "eprintf") ]
  | [ "Format"; ("printf" | "eprintf" | "print_string" | "print_newline") ]
  | [ "Format"; ("std_formatter" | "err_formatter") ]
  | [ ( "print_string" | "print_endline" | "print_newline" | "print_char"
      | "print_int" | "print_float" | "print_bytes" ) ]
  | [ ( "prerr_string" | "prerr_endline" | "prerr_newline" | "prerr_char"
      | "prerr_int" | "prerr_float" | "prerr_bytes" ) ] ->
      Some
        (Printf.sprintf
           "printing side effect `%s` in a hot evaluation path; use logs (or \
            return data and print at the edge)"
           (Sem_util.dotted path))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* D2: module-toplevel mutable state *)

let d2_table path =
  let what =
    match path with
    | [ "ref" ] -> Some "ref cell"
    | [ "Hashtbl"; "create" ] -> Some "hash table"
    | [ "Buffer"; "create" ] -> Some "buffer"
    | [ "Queue"; "create" ] -> Some "queue"
    | [ "Stack"; "create" ] -> Some "stack"
    | [ "Atomic"; "make" ] -> Some "atomic cell"
    | [ "Mutex"; "create" ] -> Some "mutex"
    | [ "Array"; ("make" | "create_float") ] -> Some "mutable array"
    | [ "Bytes"; ("create" | "make") ] -> Some "mutable bytes"
    | _ -> None
  in
  Option.map
    (fun what ->
      Printf.sprintf
        "module-toplevel mutable state (%s via `%s`); shared across Pool \
         domains — pass state explicitly instead"
        what (Sem_util.dotted path))
    what

(* [Tstr_value] at every structure level — nested and local modules
   included — is exactly the scope where a binding outlives any one
   task; function-local [let]s are expressions and never reach it. *)
let run_d2 ~aliases (str : structure) =
  let diags = ref [] in
  let check (vb : value_binding) =
    match vb.vb_expr.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) -> (
        match Option.bind (Sem_util.resolve ~aliases p) d2_table with
        | Some message ->
            diags :=
              Lint_diag.make ~rule:"D2" ~severity:d2.severity ~loc:vb.vb_loc
                message
              :: !diags
        | None -> ())
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      structure_item =
        (fun sub item ->
          (match item.str_desc with
          | Tstr_value (_, vbs) -> List.iter check vbs
          | _ -> ());
          Tast_iterator.default_iterator.structure_item sub item);
    }
  in
  it.structure it str;
  !diags

(* ------------------------------------------------------------------ *)
(* S3: polymorphic comparison *)

let poly_cmp_ops = [ "compare"; "="; "<>"; "=="; "!="; "min"; "max" ]

let run_s3 ~(summary : Sem_summary.t) ~aliases ~modname (str : structure) =
  let diags = ref [] in
  let flag ~loc message =
    diags :=
      Lint_diag.make ~rule:"S3" ~severity:s3.severity ~loc message :: !diags
  in
  iter_exprs str (fun e ->
      match e.exp_desc with
      | Texp_ident (p, _, _) -> (
          match Sem_util.resolve ~aliases p with
          | Some [ op ] when List.mem op poly_cmp_ops -> (
              match Sem_util.arrow_args e.exp_type with
              | a :: _ when Sem_summary.is_float summary ~modname a ->
                  let shown =
                    match Sem_util.constr_path a with
                    | Some tp when not (Sem_util.is_float_path tp) ->
                        Printf.sprintf "float (via alias %s)"
                          (Sem_util.dotted (Sem_util.norm_path tp))
                    | _ -> "float"
                  in
                  flag ~loc:e.exp_loc
                    (Printf.sprintf
                       "polymorphic %s used at %s; NaN breaks ordering — use \
                        Float.compare or explicit epsilon logic"
                       op shown)
              | a :: _
                when (String.equal op "min" || String.equal op "max")
                     && Sem_util.is_int a ->
                  flag ~loc:e.exp_loc
                    (Printf.sprintf
                       "polymorphic %s used at int (a compare_val call per \
                        use); use Int.%s"
                       op op)
              | _ when String.equal op "compare" ->
                  flag ~loc:e.exp_loc
                    "polymorphic `compare`; use Float.compare / Int.compare / \
                     String.compare or an explicit comparator"
              | _ -> ())
          | _ -> ())
      | _ -> ());
  !diags

(* ------------------------------------------------------------------ *)
(* S4: handler totality *)

let run_s4 ~aliases (str : structure) =
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
          match Sem_util.resolve ~aliases p with
          | Some [ ("failwith" | "exit") as f ] ->
              flag ~loc:e.exp_loc
                "%s in a protocol handler module (handlers must not abort)" f
          | Some [ "Obj"; "magic" ] ->
              flag ~loc:e.exp_loc "Obj.magic defeats every static guarantee"
          | _ -> ())
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
          match
            (Sem_util.resolve ~aliases p, List.filter_map snd args)
          with
          | Some [ ("raise" | "raise_notrace") ], [ arg ] -> (
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
(* U1: exported values no program uses *)

(* Every [val] of an interface with its path inside the unit
   ([["Ctx"; "child"]] for [Telemetry.Ctx.child]), nested signatures
   included, plus the module aliases the interface exports, which
   uses are expanded through.  Functor bodies and module types hold
   no value of the unit. *)
let interface_vals (sg : signature) =
  let vals = ref [] and aliases = ref [] in
  let rec walk prefix (sg : signature) =
    List.iter
      (fun (item : signature_item) ->
        match item.sig_desc with
        | Tsig_value vd ->
            vals := (prefix @ [ vd.val_name.txt ], vd.val_loc) :: !vals
        | Tsig_module { md_name = { txt = Some name; _ }; md_type; _ } -> (
            match md_type.mty_desc with
            | Tmty_signature sg -> walk (prefix @ [ name ]) sg
            | Tmty_alias (p, _) -> aliases := (prefix @ [ name ], p) :: !aliases
            | _ -> ())
        | _ -> ())
      sg.sig_items
  in
  walk [] sg;
  (List.rev !vals, !aliases)

(* [interfaces]: (full unit name, .mli path, signature); [users]:
   (source path, structure).  A use is a resolved path that lands in
   an interface's unit from any other unit: a value path names one
   val; an [include], a functor argument or a packed module names
   every val under its module.  Units under test/ are not users, but
   their uses are counted so the report can say "only tests". *)
let run_u1 ~interfaces ~users =
  (* unit -> its source stem ([lib/parallel/pool]), the one unit whose
     uses of its own values do not count *)
  let known = Hashtbl.create 64 in
  List.iter
    (fun (m, ipath, _) ->
      Hashtbl.replace known m (Filename.remove_extension ipath))
    interfaces;
  let exported_aliases = Hashtbl.create 8 in
  let vals =
    List.map
      (fun (m, ipath, sg) ->
        let vs, aliases = interface_vals sg in
        List.iter
          (fun (sub, p) ->
            Hashtbl.replace exported_aliases (Sem_util.dotted (m :: sub)) p)
          aliases;
        (m, ipath, vs))
      interfaces
  in
  (* A resolved path as (unit, components inside it): the wrapper
     prefix dune adds ([Harmony_parallel.Pool] is the unit
     [Harmony_parallel__Pool]) is folded in, and a module alias an
     interface exports is followed. *)
  let rec locate ~aliases depth = function
    | m :: rest when Hashtbl.mem known m -> expand ~aliases depth m rest
    | w :: m :: rest when Hashtbl.mem known (w ^ "__" ^ m) ->
        expand ~aliases depth (w ^ "__" ^ m) rest
    | _ -> None
  and expand ~aliases depth unit rest =
    let rec split before = function
      | [] -> Some (unit, rest)
      | c :: after -> (
          let here = before @ [ c ] in
          match
            Hashtbl.find_opt exported_aliases (Sem_util.dotted (unit :: here))
          with
          | Some p when depth < 8 ->
              Option.bind (Sem_util.resolve ~aliases p) (fun target ->
                  locate ~aliases (depth + 1) (target @ after))
          | _ -> split here after)
    in
    split [] rest
  in
  (* (unit, components, whole module?), used from another unit *)
  let used = Hashtbl.create 256 and tested = Hashtbl.create 256 in
  List.iter
    (fun (upath, str) ->
      let table = if under "test" upath then tested else used in
      let stem = Filename.remove_extension upath in
      let aliases = module_aliases str in
      let mark ~whole p =
        match Option.bind (Sem_util.resolve ~aliases p) (locate ~aliases 0) with
        | Some (unit, sub) when not (String.equal stem (Hashtbl.find known unit))
          ->
            Hashtbl.replace table (unit, sub, whole) ()
        | Some _ | None -> ()
      in
      let on_module me = Option.iter (mark ~whole:true) (module_target me) in
      let it =
        {
          Tast_iterator.default_iterator with
          expr =
            (fun sub e ->
              (match e.exp_desc with
              | Texp_ident (p, _, _) -> mark ~whole:false p
              | Texp_letop { let_; ands; _ } ->
                  List.iter
                    (fun (b : binding_op) -> mark ~whole:false b.bop_op_path)
                    (let_ :: ands)
              | Texp_pack me -> on_module me
              | _ -> ());
              Tast_iterator.default_iterator.expr sub e);
          structure_item =
            (fun sub item ->
              (match item.str_desc with
              | Tstr_include { incl_mod; _ } -> on_module incl_mod
              | _ -> ());
              Tast_iterator.default_iterator.structure_item sub item);
          module_expr =
            (fun sub me ->
              (match me.mod_desc with
              | Tmod_apply (_, arg, _) -> on_module arg
              | _ -> ());
              Tast_iterator.default_iterator.module_expr sub me);
        }
      in
      it.structure it str)
    users;
  (* Is [unit]'s val [sub] used: by name, or through a whole-module
     use of a module enclosing it? *)
  let uses table unit sub =
    Hashtbl.mem table (unit, sub, false)
    || List.exists
         (fun n ->
           Hashtbl.mem table (unit, List.filteri (fun i _ -> i < n) sub, true))
         (List.init (List.length sub) Fun.id)
  in
  List.concat_map
    (fun (unit, _, vs) ->
      List.filter_map
        (fun (sub, loc) ->
          if uses used unit sub then None
          else
            let name =
              Sem_util.dotted (Sem_util.normalize_modname unit :: sub)
            in
            Some
              (Lint_diag.make ~rule:"U1" ~severity:u1.severity ~loc
                 (Printf.sprintf
                    "exported value `%s` is used by no program (%s); delete \
                     it, drop it from the interface, or waive it with the \
                     reason it stays"
                    name
                    (if uses tested unit sub then "only tests use it"
                     else "nothing outside its own module uses it"))))
        vs)
    vals

(* ------------------------------------------------------------------ *)
(* Dispatch *)

(* [units]: (normalized module name, source path, structure), where
   the per-unit rules report; [interfaces] and [users] feed U1 (see
   [run_u1]). *)
let run ?(rules = all) ~interfaces ~users ~(summary : Sem_summary.t) units =
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
        let aliases = module_aliases str in
        let by_table rule table applies =
          if want rule.id && applies then run_table rule table ~aliases str
          else []
        in
        let in_lib = under "lib" path in
        by_table d1 d1_table in_lib
        @ (if want "D2" && in_lib then run_d2 ~aliases str else [])
        @ by_table t1 t1_table in_lib
        @ by_table p1 p1_table (p1_applies path)
        @ (if want "S1" then run_s1 ~modname ~path str else [])
        @ (if want "S3" then run_s3 ~summary ~aliases ~modname str else [])
        @ if want "S4" && s4_applies path then run_s4 ~aliases str else [])
      units
  in
  let global = if want "S2" then run_s2 ~summary units else [] in
  let unused =
    if want "U1" then
      run_u1
        ~interfaces:(List.filter (fun (_, ipath, _) -> under "lib" ipath) interfaces)
        ~users
    else []
  in
  List.sort Lint_diag.compare (per_unit @ global @ unused)

(* harmony_sem: per-rule bad/good fixture pairs for S1–S4 on
   in-process typechecked sources, waiver + baseline behavior, SARIF
   shape, and a QCheck property pitting the S2 cycle detector against
   a reference Kahn topological sort on random lock graphs.

   Fixtures go through Sem_typecheck (the compiler typechecks the
   string, warnings disabled), so the rules see exactly the typedtree
   shapes the cmt path produces. *)

module Tjson = Harmony_telemetry.Tjson

let unit_of ?(modname = "Fixture") ~path src =
  match Sem_typecheck.unit_of_source ~modname ~path src with
  | Ok u -> u
  | Error msg ->
      Alcotest.fail (Printf.sprintf "fixture %s does not typecheck: %s" path msg)

let analyze ?(modname = "Fixture") ?rules ?allowlist ~path src =
  let u = unit_of ~modname ~path src in
  Sem_driver.analyze ?rules ?allowlist
    ~source_of:(fun p -> if p = path then Some src else None)
    [ u ]

let kept ?modname ?rules ?allowlist ~path src =
  (analyze ?modname ?rules ?allowlist ~path src).Sem_driver.kept

let rules_of diags = List.map (fun d -> d.Lint_diag.rule) diags

let check_rules msg expected ?modname ?rules ~path src =
  Alcotest.(check (list string))
    msg expected
    (rules_of (kept ?modname ?rules ~path src))

(* A pool lookalike: the rules match submission sites by path tail
   (Pool.map_array, Pool.run), so a local module with the same shape
   exercises S1 without building a real domain pool. *)
let pool_stub =
  {|module Pool = struct
  let map_array _pool f a = Array.map f a
  let run _pool f = f ()
end
|}

(* ------------------------------------------------------------------ *)
(* S1 — race detector *)

let s1_flags_captured_ref () =
  check_rules "ref mutated in task" [ "S1" ] ~path:"lib/x/a.ml"
    (pool_stub
   ^ {|let f pool xs =
  let hits = ref 0 in
  let _ = Pool.map_array pool (fun x -> incr hits; x + 1) xs in
  !hits|})

let s1_flags_captured_hashtbl () =
  check_rules "Hashtbl write in task" [ "S1" ] ~path:"lib/x/a.ml"
    (pool_stub
   ^ {|let f pool xs =
  let seen = Hashtbl.create 8 in
  Pool.map_array pool (fun x -> Hashtbl.replace seen x true; x) xs|})

let s1_flags_mutable_field () =
  (* Both the unguarded read [a.total] and the write are races. *)
  check_rules "mutable-field write in task" [ "S1"; "S1" ] ~path:"lib/x/a.ml"
    (pool_stub
   ^ {|type acc = { mutable total : int }
let f pool xs =
  let a = { total = 0 } in
  let _ = Pool.map_array pool (fun x -> a.total <- a.total + x; x) xs in
  a.total|})

let s1_allows_mutex_protect () =
  check_rules "Mutex.protect guards the access" [] ~path:"lib/x/a.ml"
    (pool_stub
   ^ {|let f pool xs =
  let hits = ref 0 in
  let m = Mutex.create () in
  let _ =
    Pool.map_array pool
      (fun x -> Mutex.protect m (fun () -> incr hits); x + 1)
      xs
  in
  !hits|})

let s1_allows_lock_unlock_span () =
  check_rules "imperative lock/unlock guards too" [] ~path:"lib/x/a.ml"
    (pool_stub
   ^ {|let f pool xs =
  let hits = ref 0 in
  let m = Mutex.create () in
  let _ =
    Pool.map_array pool
      (fun x -> Mutex.lock m; incr hits; Mutex.unlock m; x)
      xs
  in
  !hits|})

let s1_allows_disjoint_slots () =
  check_rules "per-task array slot is sanctioned" [] ~path:"lib/x/a.ml"
    (pool_stub
   ^ {|let f pool n =
  let out = Array.make n 0 in
  let ixs = Array.init n (fun i -> i) in
  let _ = Pool.map_array pool (fun i -> out.(i) <- i * i; i) ixs in
  out|})

let s1_flags_constant_slot () =
  check_rules "fixed array slot is shared" [ "S1" ] ~path:"lib/x/a.ml"
    (pool_stub
   ^ {|let f pool xs =
  let out = Array.make 1 0 in
  let _ = Pool.map_array pool (fun x -> out.(0) <- x; x) xs in
  out.(0)|})

let s1_allows_atomic_and_dls () =
  check_rules "Atomic and Domain.DLS are sanctioned" [] ~path:"lib/x/a.ml"
    (pool_stub
   ^ {|let key = Domain.DLS.new_key (fun () -> 0)
let f pool xs =
  let c = Atomic.make 0 in
  let _ =
    Pool.map_array pool
      (fun x ->
        Atomic.incr c;
        Domain.DLS.set key (Domain.DLS.get key + x);
        x)
      xs
  in
  Atomic.get c|})

let s1_allows_state_passed_as_parameter () =
  (* Per-shard disjointness is the caller's contract: state arriving
     as a task parameter is not capture. *)
  check_rules "parameter state is the shard pattern" [] ~path:"lib/x/a.ml"
    (pool_stub
   ^ {|let f pool (shards : (int, int) Hashtbl.t array) =
  Pool.map_array pool (fun h -> Hashtbl.replace h 0 0; Hashtbl.length h) shards|})

let s1_follows_named_task_and_queue_push () =
  (* The pool's own shape: a named, partially applied task thunk
     pushed onto a queue. *)
  check_rules "unguarded named thunk" [ "S1" ] ~path:"lib/x/a.ml"
    {|let schedule q n =
  let pending = ref n in
  let task _i () = decr pending in
  for i = 0 to n - 1 do
    Queue.push (task i) q
  done;
  !pending|};
  check_rules "guarded named thunk" [] ~path:"lib/x/a.ml"
    {|let schedule q n =
  let m = Mutex.create () in
  let pending = ref n in
  let task _i () = Mutex.protect m (fun () -> decr pending) in
  for i = 0 to n - 1 do
    Queue.push (task i) q
  done;
  Mutex.protect m (fun () -> !pending)|}

let s1_follows_helper_calls () =
  (* A helper defined outside the task launders the shared ref... *)
  check_rules "shared state behind a helper call" [ "S1" ] ~path:"lib/x/a.ml"
    (pool_stub
   ^ {|let f pool xs =
  let count = ref 0 in
  let bump () = incr count in
  let _ = Pool.map_array pool (fun x -> bump (); x) xs in
  !count|});
  (* ...but a helper capturing per-call state inside the task is
     task-local (the Measure.measure_one shape). *)
  check_rules "helper over task-local state is fine" [] ~path:"lib/x/a.ml"
    (pool_stub
   ^ {|let f pool xs =
  Pool.map_array pool
    (fun x ->
      let count = ref 0 in
      let bump () = incr count in
      bump ();
      bump ();
      x + !count)
    xs|})

(* ------------------------------------------------------------------ *)
(* S2 — lock order *)

(* The fixtures declare their locks at module level under lib/, which
   D2 flags on its own; only the lock-order findings are under test. *)
let s2_only = [ Sem_rules.s2 ]

let s2_flags_direct_cycle () =
  let ds =
    kept ~rules:s2_only ~path:"lib/x/a.ml"
      {|let a = Mutex.create ()
let b = Mutex.create ()
let f () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> ()))
let g () = Mutex.protect b (fun () -> Mutex.protect a (fun () -> ()))|}
  in
  Alcotest.(check (list string)) "one cycle diag" [ "S2" ] (rules_of ds)

let s2_allows_consistent_order () =
  check_rules "same order everywhere" [] ~rules:s2_only ~path:"lib/x/a.ml"
    {|let a = Mutex.create ()
let b = Mutex.create ()
let f () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> ()))
let g () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> ()))|}

let s2_flags_self_deadlock () =
  let ds =
    kept ~rules:s2_only ~path:"lib/x/a.ml"
      {|let a = Mutex.create ()
let f () = Mutex.protect a (fun () -> Mutex.protect a (fun () -> ()))|}
  in
  (* The self-edge also closes a length-1 cycle, so both diags fire. *)
  Alcotest.(check bool) "only S2 diags" true
    (ds <> [] && List.for_all (fun d -> d.Lint_diag.rule = "S2") ds);
  Alcotest.(check bool) "self-deadlock named" true
    (List.exists
       (fun d ->
         String.starts_with ~prefix:"re-acquisition" d.Lint_diag.message)
       ds)

let s2_cycle_through_call_summaries () =
  (* No lexically nested opposite-order protects anywhere: the cycle
     only exists through the per-function may-acquire summaries. *)
  let ds =
    kept ~rules:s2_only ~path:"lib/x/a.ml"
      {|let m1 = Mutex.create ()
let m2 = Mutex.create ()
let inner1 () = Mutex.protect m1 (fun () -> ())
let inner2 () = Mutex.protect m2 (fun () -> ())
let f () = Mutex.protect m1 (fun () -> inner2 ())
let g () = Mutex.protect m2 (fun () -> inner1 ())|}
  in
  Alcotest.(check (list string)) "summary-driven cycle" [ "S2" ] (rules_of ds)

let s2_telemetry_lock_must_be_leaf () =
  (* Acquiring anything while holding the telemetry state lock
     violates the documented caller-lock -> telemetry-lock order, even
     without a full cycle. *)
  let ds =
    kept ~rules:s2_only ~modname:"Telemetry" ~path:"lib/telemetry/x.ml"
      {|type state = { lock : Mutex.t; mutable n : int }
let other = Mutex.create ()
let bad s =
  Mutex.protect s.lock (fun () ->
      Mutex.protect other (fun () -> s.n <- s.n + 1))|}
  in
  Alcotest.(check (list string)) "leaf violation" [ "S2" ] (rules_of ds);
  check_rules "caller lock then telemetry lock is the allowed direction" []
    ~rules:s2_only ~modname:"Measure" ~path:"lib/objective/x.ml"
    {|type state = { lock : Mutex.t; mutable n : int }
let tick s = Mutex.protect s.lock (fun () -> s.n <- s.n + 1)
let caller = Mutex.create ()
let f s = Mutex.protect caller (fun () -> tick s)|}

let s2_flight_lock_must_be_leaf () =
  (* The flight recorder's ring lock is a forced leaf exactly like the
     telemetry lock: handles record into the ring while already
     holding their own state, so anything acquired under the ring lock
     would invert that order. *)
  let ds =
    kept ~rules:s2_only ~modname:"Flight" ~path:"lib/telemetry/x.ml"
      {|type ring = { lock : Mutex.t; mutable head : int }
let other = Mutex.create ()
let bad r =
  Mutex.protect r.lock (fun () ->
      Mutex.protect other (fun () -> r.head <- r.head + 1))|}
  in
  Alcotest.(check (list string)) "leaf violation" [ "S2" ] (rules_of ds);
  check_rules "caller lock then a ring lock is the allowed direction" []
    ~rules:s2_only ~modname:"Server" ~path:"lib/core/x.ml"
    {|type ring = { lock : Mutex.t; mutable head : int }
let record r = Mutex.protect r.lock (fun () -> r.head <- r.head + 1)
let state = Mutex.create ()
let f r = Mutex.protect state (fun () -> record r)|}

(* Reference cycle detector: Kahn's algorithm — a digraph has a cycle
   iff topological sort cannot remove every node. *)
let ref_has_cycle pairs =
  let pairs = List.sort_uniq compare pairs in
  let nodes =
    List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) pairs)
  in
  let indeg = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace indeg v 0) nodes;
  List.iter
    (fun (_, b) -> Hashtbl.replace indeg b (Hashtbl.find indeg b + 1))
    pairs;
  let q = Queue.create () in
  List.iter (fun v -> if Hashtbl.find indeg v = 0 then Queue.add v q) nodes;
  let removed = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    incr removed;
    List.iter
      (fun (a, b) ->
        if a = v then begin
          let d = Hashtbl.find indeg b - 1 in
          Hashtbl.replace indeg b d;
          if d = 0 then Queue.add b q
        end)
      pairs
  done;
  !removed < List.length nodes

let cycle_edges_exist cycle pairs =
  match cycle with
  | [] -> false
  | first :: _ ->
      let rec link = function
        | [] -> []
        | [ last ] -> [ (last, first) ]
        | a :: (b :: _ as rest) -> (a, b) :: link rest
      in
      List.for_all (fun e -> List.mem e pairs) (link cycle)

let qcheck_cycle_detector_agrees =
  QCheck.Test.make ~count:500
    ~name:"S2 cycle detector agrees with reference Kahn sort"
    QCheck.(list_of_size Gen.(0 -- 16) (pair (int_bound 7) (int_bound 7)))
    (fun raw ->
      let pairs =
        List.map
          (fun (a, b) -> (Printf.sprintf "n%d" a, Printf.sprintf "n%d" b))
          raw
      in
      match Sem_lockgraph.cycle_of_edges pairs with
      | Some cycle -> ref_has_cycle pairs && cycle_edges_exist cycle pairs
      | None -> not (ref_has_cycle pairs))

(* ------------------------------------------------------------------ *)
(* S3 — type-aware float ordering *)

let s3_flags_alias () =
  check_rules "compare at a float alias" [ "S3" ] ~path:"lib/x/a.ml"
    "type ms = float\nlet f (a : ms) b = compare a b";
  check_rules "alias of alias resolves via fixpoint" [ "S3" ]
    ~path:"lib/x/a.ml" "type a = float\ntype b = a\nlet f (x : b) y = min x y"

let s3_flags_let_laundering () =
  check_rules "float laundered through let" [ "S3" ] ~path:"lib/x/a.ml"
    "let f x y =\n  let a = x +. 1.0 in\n  let b = y in\n  a = b"

let s3_flags_helper_arg_laundering () =
  (* The comparator travels as a function argument: the syntactic N1
     never sees a float near it, the instantiated type does. *)
  check_rules "comparator passed at float type" [ "S3" ] ~path:"lib/x/a.ml"
    "let pick cmp (x : float) y = if cmp x y < 0 then x else y\n\
     let f a b = pick compare a b";
  check_rules "Array.sort compare over floats" [ "S3" ] ~path:"lib/x/a.ml"
    "let f (a : float array) = Array.sort compare a"

let s3_allows_typed_comparisons () =
  check_rules "Float.compare is the fix" [] ~path:"lib/x/a.ml"
    "let f (a : float array) = Array.sort Float.compare a";
  check_rules "Int.compare is fine" [] ~path:"lib/x/a.ml"
    "let f (a : int) b = Int.compare a b";
  check_rules "string equality untouched" [] ~path:"lib/x/a.ml"
    {|let f a = a = "label"|};
  check_rules "Float.min at an alias is fine" [] ~path:"lib/x/a.ml"
    "type ms = float\nlet f (a : ms) b = Float.min a b"

let s3_flags_int_min_max () =
  check_rules "max at int" [ "S3" ] ~path:"lib/x/a.ml"
    "let f (a : int) b = max a b";
  check_rules "min passed as a fold at int" [ "S3" ] ~path:"lib/x/a.ml"
    "let f xs = List.fold_left min max_int (0 :: xs)";
  check_rules "Stdlib.min inferred at int" [ "S3"; "S3" ] ~path:"lib/x/a.ml"
    "let f n = Stdlib.min (n + 1) 3\nlet g n = Stdlib.max 0 (n - 1)"

let s3_allows_int_min_max () =
  check_rules "Int.min and Int.max are the fix" [] ~path:"lib/x/a.ml"
    "let f (a : int) b = Int.max 0 (Int.min a b)";
  check_rules "min at string is not the int case" [] ~path:"lib/x/a.ml"
    {|let f (a : string) = min a "z"|}

(* ------------------------------------------------------------------ *)
(* S4 — handler totality *)

let s4_flags_partial_match () =
  check_rules "partial match in server.ml" [ "S4" ] ~path:"lib/core/server.ml"
    "let f (o : int option) = match o with Some x -> x";
  check_rules "partial function in service.ml" [ "S4" ]
    ~path:"lib/service/service.ml"
    "let f = function Some (x : int) -> x";
  check_rules "partial match in admission.ml" [ "S4" ]
    ~path:"lib/service/admission.ml"
    "let f (o : int option) = match o with Some x -> x"

let s4_flags_aborts () =
  check_rules "raise in service.ml" [ "S4" ] ~path:"lib/service/service.ml"
    "let f () = raise Not_found";
  check_rules "failwith in session.ml" [ "S4" ] ~path:"lib/core/session.ml"
    {|let f () = failwith "boom"|};
  check_rules "assert false in server.ml" [ "S4" ] ~path:"lib/core/server.ml"
    "let f () : int = assert false";
  check_rules "raise in admission.ml" [ "S4" ]
    ~path:"lib/service/admission.ml"
    {|let f () = raise (Failure "overload")|};
  check_rules "exit in server.ml" [ "S4" ] ~path:"lib/core/server.ml"
    "let f () = exit 1"

let s4_carve_outs () =
  check_rules "invalid_arg stays legal" [] ~path:"lib/service/service.ml"
    {|let f shards = if shards < 1 then invalid_arg "shards" else shards|};
  check_rules "re-raising a caught exception stays legal" []
    ~path:"lib/service/service.ml"
    "let f g = try g () with e -> raise e";
  check_rules "config validation in admission.ml stays legal" []
    ~path:"lib/service/admission.ml"
    {|let f rate = if rate < 0 then invalid_arg "rate" else rate|};
  check_rules "exhaustive match is fine" [] ~path:"lib/core/server.ml"
    "let f (o : int option) = match o with Some x -> x | None -> 0";
  check_rules "ordinary assert is fine" [] ~path:"lib/core/server.ml"
    "let f x = assert (x > 0); x"

let s4_scoped_to_handler_modules () =
  check_rules "partiality elsewhere is not S4's business" []
    ~path:"lib/parallel/pool.ml"
    "let f (o : int option) = match o with Some x -> x"

(* ------------------------------------------------------------------ *)
(* Waivers and allowlist *)

let waiver_same_line () =
  let src = "type ms = float\nlet f (a : ms) b = compare a b (* lint: allow S3 *)" in
  let r = analyze ~path:"lib/x/a.ml" src in
  Alcotest.(check (list string)) "kept empty" [] (rules_of r.Sem_driver.kept);
  Alcotest.(check (list string))
    "waiver recorded" [ "S3" ]
    (rules_of r.Sem_driver.suppressed)

let waiver_previous_line () =
  check_rules "comment-only previous line waives" [] ~path:"lib/x/a.ml"
    "type ms = float\n(* lint: allow S3 — exact sentinel equality *)\nlet f (a : ms) b = compare a b"

let waiver_does_not_bleed () =
  (* Unified semantics: a same-line waiver covers only its own line,
     not the next one. *)
  check_rules "same-line waiver stops at its line" [ "S3" ] ~path:"lib/x/a.ml"
    "type ms = float\nlet f (a : ms) b = compare a b (* lint: allow S3 *)\nlet g (a : ms) b = compare a b"

let waiver_stacks_on_code_line () =
  check_rules "stacked comment-only waivers all apply" [] ~path:"lib/x/a.ml"
    "type ms = float\n\
     (* lint: allow S3 — alias compare is intentional here *)\n\
     (* lint: allow S4 — fixture *)\n\
     let f (a : ms) b = compare a b"

let allowlist_waives_sem_rules () =
  let allowlist =
    match Lint_allow.allowlist_of_string "lib/x/a.ml S3" with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (list string))
    "allowlisted file passes" []
    (rules_of
       (kept ~allowlist ~path:"lib/x/a.ml"
          "type ms = float\nlet f (a : ms) b = compare a b"))

(* ------------------------------------------------------------------ *)
(* Baseline *)

let baseline_round_trip () =
  let mk file rule = { Lint_diag.rule; severity = Lint_diag.Error; file; line = 1; col = 0; message = "m" } in
  let diags = [ mk "lib/a.ml" "S1"; mk "lib/a.ml" "S1"; mk "lib/b.ml" "S3" ] in
  let entries = Sem_baseline.of_diags diags in
  let rendered = Sem_baseline.render entries in
  Alcotest.(check string)
    "render sorted" "lib/a.ml S1 2\nlib/b.ml S3 1\n" rendered;
  match Sem_baseline.of_string rendered with
  | Ok parsed ->
      Alcotest.(check int) "round-trips" (List.length entries) (List.length parsed);
      Alcotest.(check (list (triple string string int)))
        "entries equal"
        (List.map (fun e -> (e.Sem_baseline.path, e.rule, e.count)) entries)
        (List.map (fun e -> (e.Sem_baseline.path, e.rule, e.count)) parsed)
  | Error msg -> Alcotest.fail msg

let baseline_gates_regressions_only () =
  let mk file rule count = { Sem_baseline.path = file; rule; count } in
  let baseline = [ mk "lib/a.ml" "S1" 2 ] in
  Alcotest.(check int) "within baseline: no regression" 0
    (List.length
       (Sem_baseline.regressions ~baseline [ mk "lib/a.ml" "S1" 2 ]));
  Alcotest.(check int) "fewer findings: no regression" 0
    (List.length
       (Sem_baseline.regressions ~baseline [ mk "lib/a.ml" "S1" 1 ]));
  (match Sem_baseline.regressions ~baseline [ mk "lib/a.ml" "S1" 3 ] with
  | [ ("lib/a.ml", "S1", 2, 3) ] -> ()
  | _ -> Alcotest.fail "growth past the baseline must regress");
  match Sem_baseline.regressions ~baseline [ mk "lib/c.ml" "S2" 1 ] with
  | [ ("lib/c.ml", "S2", 0, 1) ] -> ()
  | _ -> Alcotest.fail "new (path, rule) pairs must regress"

let baseline_rejects_garbage () =
  match Sem_baseline.of_string "lib/a.ml S1 many" with
  | Ok _ -> Alcotest.fail "malformed baseline accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* SARIF shape *)

let member path json =
  List.fold_left
    (fun acc key ->
      Option.bind acc (fun j ->
          match int_of_string_opt key with
          | Some i -> (
              match j with
              | Tjson.List l -> List.nth_opt l i
              | _ -> None)
          | None -> Tjson.member key j))
    (Some json) path

let sarif_report_is_valid_and_complete () =
  let result =
    analyze ~path:"lib/x/a.ml" "type ms = float\nlet f (a : ms) b = compare a b"
  in
  let sarif = Format.asprintf "%a" (fun ppf r -> Sem_driver.render_sarif ppf r) result in
  match Tjson.parse sarif with
  | Error msg -> Alcotest.fail ("SARIF is not valid JSON: " ^ msg)
  | Ok json ->
      let str path' =
        match Option.bind (member path' json) Tjson.to_str with
        | Some s -> s
        | None -> Alcotest.fail ("missing " ^ String.concat "." path')
      in
      let num path' =
        match Option.bind (member path' json) Tjson.to_float with
        | Some f -> int_of_float f
        | None -> Alcotest.fail ("missing " ^ String.concat "." path')
      in
      Alcotest.(check string) "version" "2.1.0" (str [ "version" ]);
      Alcotest.(check string)
        "tool name" "harmony_sem"
        (str [ "runs"; "0"; "tool"; "driver"; "name" ]);
      Alcotest.(check string)
        "rule catalogue present" "S1"
        (str [ "runs"; "0"; "tool"; "driver"; "rules"; "0"; "id" ]);
      Alcotest.(check string)
        "ruleId" "S3"
        (str [ "runs"; "0"; "results"; "0"; "ruleId" ]);
      Alcotest.(check string)
        "level" "error"
        (str [ "runs"; "0"; "results"; "0"; "level" ]);
      Alcotest.(check string)
        "uri" "lib/x/a.ml"
        (str
           [ "runs"; "0"; "results"; "0"; "locations"; "0";
             "physicalLocation"; "artifactLocation"; "uri" ]);
      Alcotest.(check int)
        "line is 2" 2
        (num
           [ "runs"; "0"; "results"; "0"; "locations"; "0";
             "physicalLocation"; "region"; "startLine" ]);
      (* SARIF columns are 1-based; Lint_diag stores 0-based. *)
      Alcotest.(check bool)
        "column shifted to 1-based" true
        (num
           [ "runs"; "0"; "results"; "0"; "locations"; "0";
             "physicalLocation"; "region"; "startColumn" ]
        >= 1)

let sarif_shared_with_lint () =
  (* The ported rules report through the same SARIF emitter. *)
  let result = analyze ~path:"lib/core/x.ml" "let f xs = List.hd xs" in
  let sarif = Format.asprintf "%a" (fun ppf r -> Sem_driver.render_sarif ppf r) result in
  match Tjson.parse sarif with
  | Error msg -> Alcotest.fail ("SARIF is not valid JSON: " ^ msg)
  | Ok json -> (
      match
        Option.bind
          (member [ "runs"; "0"; "results"; "0"; "ruleId" ] json)
          Tjson.to_str
      with
      | Some "T1" -> ()
      | other ->
          Alcotest.fail
            ("expected a T1 result, got "
            ^ Option.value ~default:"nothing" other))

(* ------------------------------------------------------------------ *)
(* T1 hints *)

(* Each partial's hint, pinned; and every function a hint names
   typechecks, so the hint never sends a reader to a function the
   stdlib does not have. *)
let t1_hints_name_real_functions () =
  let cases =
    [
      ("List.hd xs", "a match on the list");
      ("List.tl xs", "a match on the list");
      ("List.nth xs 0", "List.nth_opt");
      ("List.find (fun _ -> true) xs", "List.find_opt");
      ("List.assoc 0 ys", "List.assoc_opt");
      ("List.assq 0 ys", "List.assq_opt");
      ("Queue.pop q", "Queue.take_opt");
      ("Queue.take q", "Queue.take_opt");
      ("Queue.peek q", "Queue.peek_opt");
      ("Queue.top q", "Queue.peek_opt");
      ("Stack.pop s", "Stack.pop_opt");
      ("Stack.top s", "Stack.top_opt");
      ("Option.get o", "pattern-match on the option");
      ("Hashtbl.find h 0", "Hashtbl.find_opt");
      ("int_of_string \"1\"", "int_of_string_opt");
      ("float_of_string \"1\"", "float_of_string_opt");
      ("bool_of_string \"true\"", "bool_of_string_opt");
    ]
  in
  let args =
    "(xs : int list) (ys : (int * int) list) (q : int Queue.t) (s : int \
     Stack.t) (o : int option) (h : (int, int) Hashtbl.t)"
  in
  List.iter
    (fun (call, hint) ->
      let src = Printf.sprintf "let f %s = %s" args call in
      match kept ~path:"lib/core/x.ml" src with
      | [ d ] ->
          Alcotest.(check string) (call ^ ": rule") "T1" d.Lint_diag.rule;
          Alcotest.(check bool)
            (Printf.sprintf "%s: hint %S in %S" call hint d.Lint_diag.message)
            true
            (String.ends_with ~suffix:("; use " ^ hint) d.Lint_diag.message);
          if String.contains hint '.' then
            ignore
              (unit_of ~path:"lib/core/y.ml"
                 (Printf.sprintf "let g = %s" hint))
      | ds ->
          Alcotest.fail
            (Printf.sprintf "%s: expected one T1 finding, got %d" call
               (List.length ds)))
    cases

(* ------------------------------------------------------------------ *)
(* U1 — exported values no program uses *)

(* A lib unit exporting [f] (and a nested [Sub.h]); [f] also serves
   its own unit, so "only its own module uses it" is expressible. *)
let fixlib_mli =
  "(* The fixture library. *)\n\
   val f : int -> int\n\
   module Sub : sig val h : int -> int end\n"

let fixlib_ml = "let f x = x + 1\nmodule Sub = struct let h x = f x end\n"

(* U1 over the fixture library plus [users]: (path, source) pairs,
   each its own unit.  Returns the kept and the waived findings. *)
let u1 ?(mli = fixlib_mli) users =
  let sources =
    [ ("Fixlib", "lib/fix/fixlib.mli", mli); ("Fixlib", "lib/fix/fixlib.ml", fixlib_ml) ]
    @ List.mapi (fun i (path, src) -> (Printf.sprintf "User%d" i, path, src)) users
  in
  match Sem_typecheck.units_of_sources sources with
  | Error msg -> Alcotest.fail ("U1 fixture does not typecheck: " ^ msg)
  | Ok (units, interfaces) ->
      let r =
        Sem_driver.analyze
          ~rules:(Option.to_list (Sem_rules.find "U1"))
          ~source_of:(fun p ->
            List.find_map
              (fun (_, path, src) -> if path = p then Some src else None)
              sources)
          ~interfaces units
      in
      (r.Sem_driver.kept, r.Sem_driver.suppressed)

let contains s affix =
  let n = String.length affix in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = affix || at (i + 1))
  in
  at 0

let flagged ?mli users =
  List.map
    (fun d -> d.Lint_diag.message)
    (fst (u1 ?mli users))

(* Every way a program can name [f] and [Sub.h] counts as a use. *)
let u1_counts_every_kind_of_use () =
  let uses =
    [
      ("direct", "let g = Fixlib.f 1 + Fixlib.Sub.h 1");
      ("open", "open Fixlib\nlet g = f 1 + Sub.h 1");
      ("module alias", "module M = Fixlib\nlet g = M.f 1 + M.Sub.h 1");
      ( "let module",
        "let g = let module M = Fixlib in M.f 1 + M.Sub.h 1" );
      ("include", "include Fixlib");
      ( "functor argument",
        "module F (X : sig val f : int -> int module Sub : sig val h : int \
         -> int end end) = struct let g = X.f 1 end\n\
         module N = F (Fixlib)" );
      ( "packed module",
        "module type S = sig val f : int -> int module Sub : sig val h : \
         int -> int end end\n\
         let m = (module Fixlib : S)" );
    ]
  in
  List.iter
    (fun (how, src) ->
      Alcotest.(check (list string)) (how ^ ": bin/ user") []
        (flagged [ ("bin/user.ml", src) ]);
      Alcotest.(check (list string)) (how ^ ": another lib unit") []
        (flagged [ ("lib/other/user.ml", src) ]))
    uses

let u1_flags_unused_exports () =
  (match flagged [] with
  | [ f; h ] ->
      Alcotest.(check bool) ("own module only: " ^ f) true
        (String.starts_with ~prefix:"exported value `Fixlib.f`" f
        && contains f "nothing outside its own module uses it");
      Alcotest.(check bool) ("nested val: " ^ h) true
        (String.starts_with ~prefix:"exported value `Fixlib.Sub.h`" h)
  | ms -> Alcotest.fail (Printf.sprintf "expected 2 findings, got %d" (List.length ms)));
  match flagged [ ("test/test_fix.ml", "let g = Fixlib.f 1 + Fixlib.Sub.h 1") ] with
  | [ f; _ ] ->
      Alcotest.(check bool) ("tests only: " ^ f) true
        (contains f "only tests use it")
  | ms -> Alcotest.fail (Printf.sprintf "expected 2 findings, got %d" (List.length ms))

let u1_inline_waiver () =
  let mli =
    "(* lint: allow U1 — kept for the fixture's sake *)\n\
     val f : int -> int\n\
     module Sub : sig\n\
    \  (* lint: allow U1 — nested waivers sit at their val too *)\n\
    \  val h : int -> int\n\
     end\n"
  in
  let kept, suppressed = u1 ~mli [] in
  Alcotest.(check int) "nothing kept" 0 (List.length kept);
  Alcotest.(check (list string)) "both waived" [ "U1"; "U1" ] (rules_of suppressed)

(* ------------------------------------------------------------------ *)
(* Rule registry *)

let rule_registry_well_formed () =
  Alcotest.(check (list string))
    "ids unique and stable"
    [ "S1"; "S2"; "S3"; "S4"; "D1"; "D2"; "T1"; "P1"; "U1" ]
    (List.map (fun r -> r.Sem_rules.id) Sem_rules.all)

(* Waivers are read from the sources under the build root, not the
   current directory: this test runs in [_build/default/test], where no
   [lib/] exists, and the tree's waived U1 findings must stay waived.
   test/dune depends on every directory's @check. *)
let u1_waivers_read_under_root () =
  let tree = Sem_cmt.load ~root:".." in
  let _, result =
    Sem_driver.analyze_tree
      ~rules:(Option.to_list (Sem_rules.find "U1"))
      ~tree ~dirs:[ "lib" ] ()
  in
  Alcotest.(check (list string))
    "no unwaived U1 finding" []
    (List.map
       (fun d -> Format.asprintf "%a" Lint_diag.pp_text d)
       result.Sem_driver.kept);
  Alcotest.(check bool)
    "the waivers applied" true
    (result.Sem_driver.suppressed <> [])

let suite =
  [
    ("u1 waivers read under the build root", `Quick, u1_waivers_read_under_root);
    ("s1 flags captured ref", `Quick, s1_flags_captured_ref);
    ("s1 flags captured hashtbl", `Quick, s1_flags_captured_hashtbl);
    ("s1 flags mutable field", `Quick, s1_flags_mutable_field);
    ("s1 allows mutex protect", `Quick, s1_allows_mutex_protect);
    ("s1 allows lock/unlock span", `Quick, s1_allows_lock_unlock_span);
    ("s1 allows disjoint slots", `Quick, s1_allows_disjoint_slots);
    ("s1 flags constant slot", `Quick, s1_flags_constant_slot);
    ("s1 allows atomic and dls", `Quick, s1_allows_atomic_and_dls);
    ("s1 allows parameter state", `Quick, s1_allows_state_passed_as_parameter);
    ("s1 follows named task via queue", `Quick, s1_follows_named_task_and_queue_push);
    ("s1 follows helper calls", `Quick, s1_follows_helper_calls);
    ("s2 flags direct cycle", `Quick, s2_flags_direct_cycle);
    ("s2 allows consistent order", `Quick, s2_allows_consistent_order);
    ("s2 flags self deadlock", `Quick, s2_flags_self_deadlock);
    ("s2 cycle through call summaries", `Quick, s2_cycle_through_call_summaries);
    ("s2 telemetry lock must be leaf", `Quick, s2_telemetry_lock_must_be_leaf);
    ("s2 flight lock must be leaf", `Quick, s2_flight_lock_must_be_leaf);
    QCheck_alcotest.to_alcotest qcheck_cycle_detector_agrees;
    ("s3 flags alias", `Quick, s3_flags_alias);
    ("s3 flags let laundering", `Quick, s3_flags_let_laundering);
    ("s3 flags helper-arg laundering", `Quick, s3_flags_helper_arg_laundering);
    ("s3 allows typed comparisons", `Quick, s3_allows_typed_comparisons);
    ("s3 flags min/max at int", `Quick, s3_flags_int_min_max);
    ("s3 allows Int.min/max", `Quick, s3_allows_int_min_max);
    ("s4 flags partial match", `Quick, s4_flags_partial_match);
    ("s4 flags aborts", `Quick, s4_flags_aborts);
    ("s4 carve-outs", `Quick, s4_carve_outs);
    ("s4 scoped to handler modules", `Quick, s4_scoped_to_handler_modules);
    ("waiver same line", `Quick, waiver_same_line);
    ("waiver previous line", `Quick, waiver_previous_line);
    ("waiver does not bleed to next line", `Quick, waiver_does_not_bleed);
    ("waiver stacks on code line", `Quick, waiver_stacks_on_code_line);
    ("allowlist waives sem rules", `Quick, allowlist_waives_sem_rules);
    ("baseline round trip", `Quick, baseline_round_trip);
    ("baseline gates regressions only", `Quick, baseline_gates_regressions_only);
    ("baseline rejects garbage", `Quick, baseline_rejects_garbage);
    ("sarif report shape", `Quick, sarif_report_is_valid_and_complete);
    ("sarif shared with lint", `Quick, sarif_shared_with_lint);
    ("t1 hints name real functions", `Quick, t1_hints_name_real_functions);
    ("u1 counts every kind of use", `Quick, u1_counts_every_kind_of_use);
    ("u1 flags unused exports", `Quick, u1_flags_unused_exports);
    ("u1 inline waiver", `Quick, u1_inline_waiver);
    ("rule registry well-formed", `Quick, rule_registry_well_formed);
  ]

(* harmony_sem's ported rules (D1, D2, T1, P1, and S3/S4 where they
   absorbed N1/T2): per-rule fixtures (known-bad triggers, known-good
   passes), suppression via inline allow-comments and the allowlist
   file, output shape, and a self-check that the shipped tree is
   clean.

   Fixtures go through test_sem's harness (Sem_typecheck, then
   Sem_driver), so the rules see exactly the typedtree shapes the cmt
   path produces. *)

let analyze ?allowlist ~path src = Test_sem.analyze ?allowlist ~path src
let kept ?allowlist ~path src = (analyze ?allowlist ~path src).Sem_driver.kept

let suppressed ?allowlist ~path src =
  (analyze ?allowlist ~path src).Sem_driver.suppressed

let rules_of = Test_sem.rules_of

let check_rules msg expected ?allowlist ~path src =
  Alcotest.(check (list string)) msg expected (rules_of (kept ?allowlist ~path src))

(* ------------------------------------------------------------------ *)
(* D1 — ambient nondeterminism *)

let d1_flags_global_random () =
  check_rules "Random.int flagged" [ "D1" ] ~path:"lib/core/x.ml"
    "let f () = Random.int 10";
  check_rules "Random.self_init flagged" [ "D1" ] ~path:"lib/core/x.ml"
    "let f () = Random.self_init ()";
  check_rules "Sys.time flagged" [ "D1" ] ~path:"lib/objective/x.ml"
    "let f () = Sys.time ()";
  check_rules "Unix.gettimeofday flagged" [ "D1" ] ~path:"lib/des/x.ml"
    "let f () = Unix.gettimeofday ()"

let d1_allows_seeded_state () =
  check_rules "Random.State is sanctioned" [] ~path:"lib/numerics/rng.ml"
    "let f st = Random.State.float st 1.0";
  check_rules "make_self_init still banned" [ "D1" ]
    ~path:"lib/numerics/rng.ml" "let f () = Random.State.make_self_init ()"

let d1_scoped_to_lib () =
  check_rules "bin/ may read the clock" [] ~path:"bin/harmony_cli.ml"
    "let f () = Sys.time ()"

(* Resolved paths close the gaps a name match leaves open: an alias
   does not hide the module it names. *)
let d1_sees_through_aliases () =
  check_rules "module alias resolved" [ "D1" ] ~path:"lib/core/x.ml"
    "module R = Random\nlet f () = R.int 10";
  check_rules "local module alias resolved" [ "D1" ] ~path:"lib/core/x.ml"
    "let f () = let module R = Random in R.bool ()"

(* ------------------------------------------------------------------ *)
(* D2 — module-toplevel mutable state *)

let d2_flags_toplevel_state () =
  check_rules "toplevel ref flagged" [ "D2" ] ~path:"lib/core/x.ml"
    "let counter = ref 0";
  check_rules "toplevel Hashtbl flagged" [ "D2" ] ~path:"lib/core/x.ml"
    "let cache = Hashtbl.create 16";
  check_rules "nested module state flagged" [ "D2" ] ~path:"lib/core/x.ml"
    "module M = struct let cache = ref [] end"

let d2_allows_local_state () =
  check_rules "function-local ref is fine" [] ~path:"lib/core/x.ml"
    "let f () = let c = ref 0 in incr c; !c";
  check_rules "toplevel immutable is fine" [] ~path:"lib/core/x.ml"
    "let default_budget = 100"

(* ------------------------------------------------------------------ *)
(* N1 — polymorphic comparison, now S3's (compare at any type, the
   rest at float type) *)

let n1_flags_poly_compare () =
  check_rules "bare compare flagged" [ "S3" ] ~path:"lib/core/x.ml"
    "let f xs = List.sort compare xs";
  check_rules "compare applied to floats flagged" [ "S3" ]
    ~path:"lib/core/x.ml" "let f a b = compare (a *. 2.0) b";
  check_rules "float equality flagged" [ "S3" ] ~path:"lib/core/x.ml"
    "let f a = a = 0.0";
  check_rules "float <> flagged" [ "S3" ] ~path:"lib/numerics/x.ml"
    "let f a = a <> 1.5";
  check_rules "min on float flagged" [ "S3" ] ~path:"lib/core/x.ml"
    "let f a = min a 1.0";
  check_rules "max on float expr flagged" [ "S3" ] ~path:"lib/core/x.ml"
    "let f a b = max a (b /. 2.0)";
  check_rules "nan equality flagged" [ "S3" ] ~path:"lib/core/x.ml"
    "let f x = x = nan"

let n1_allows_typed_comparison () =
  check_rules "Float.compare is the fix" [] ~path:"lib/core/x.ml"
    "let f xs = List.sort Float.compare xs";
  check_rules "Int.compare is fine" [] ~path:"lib/core/x.ml"
    "let f xs = List.sort Int.compare xs";
  check_rules "int equality untouched" [] ~path:"lib/core/x.ml"
    "let f a = a = 0";
  check_rules "string equality untouched" [] ~path:"lib/core/x.ml"
    {|let f a = a = "label"|};
  check_rules "Float.min is fine" [] ~path:"lib/core/x.ml"
    "let f a = Float.min a 1.0";
  check_rules "IEEE ordering guard left alone" [] ~path:"lib/core/x.ml"
    "let f a = a <= 0.0"

(* ------------------------------------------------------------------ *)
(* T1 — raising stdlib partials *)

let t1_flags_partials () =
  check_rules "List.hd flagged" [ "T1" ] ~path:"lib/core/x.ml"
    "let f xs = List.hd xs";
  check_rules "Option.get flagged" [ "T1" ] ~path:"lib/core/x.ml"
    "let f o = Option.get o";
  check_rules "Hashtbl.find flagged" [ "T1" ] ~path:"lib/core/x.ml"
    "let f h k = Hashtbl.find h k";
  check_rules "List.assoc flagged" [ "T1" ] ~path:"lib/core/x.ml"
    "let f k xs = List.assoc k xs";
  check_rules "Queue.pop flagged" [ "T1" ] ~path:"lib/des/x.ml"
    "let f q = Queue.pop q";
  (* The string conversions raise [Failure] on malformed or
     out-of-range text: an RSL integer literal above max_int once
     escaped the tuning server this way. *)
  check_rules "int_of_string flagged" [ "T1" ] ~path:"lib/param/x.ml"
    "let f s = int_of_string s";
  check_rules "float_of_string flagged" [ "T1" ] ~path:"lib/core/x.ml"
    "let f s = float_of_string s";
  check_rules "bool_of_string flagged" [ "T1" ] ~path:"lib/core/x.ml"
    "let f s = bool_of_string s";
  (* The durability layer is inside T1's scope: a raising partial on the
     recovery path would defeat "corrupt input never raises". *)
  check_rules "lib/persist is covered" [ "T1" ] ~path:"lib/persist/x.ml"
    "let f xs = List.hd xs"

let t1_allows_opt_variants () =
  check_rules "_opt variants are the fix" [] ~path:"lib/core/x.ml"
    "let f h k xs o = (Hashtbl.find_opt h k, List.nth_opt xs 0, List.find_opt o xs)";
  check_rules "conversion _opt variants are the fix" [] ~path:"lib/param/x.ml"
    "let f s = (int_of_string_opt s, float_of_string_opt s, bool_of_string_opt s)"

let t1_sees_through_opens () =
  check_rules "let open resolved" [ "T1" ] ~path:"lib/core/x.ml"
    "let f h k = let open Hashtbl in find h k";
  check_rules "open resolved" [ "T1" ] ~path:"lib/core/x.ml"
    "open List\nlet f xs = hd xs"

let t1_ignores_shadowing_module () =
  check_rules "a local List is not the stdlib's" [] ~path:"lib/core/x.ml"
    "module List = struct let hd = function [] -> 0 | x :: _ -> x end\n\
     let f xs = List.hd xs"

(* ------------------------------------------------------------------ *)
(* T2 — totality of message paths, now S4's *)

let t2_flags_partiality_in_handlers () =
  check_rules "assert false in server flagged" [ "S4" ]
    ~path:"lib/core/server.ml" "let f () = assert false";
  check_rules "failwith in session flagged" [ "S4" ]
    ~path:"lib/core/session.ml" {|let f () = failwith "boom"|};
  check_rules "raise Not_found in server flagged" [ "S4" ]
    ~path:"lib/core/server.ml" "let f () = raise Not_found";
  check_rules "assert false in the sharded service flagged" [ "S4" ]
    ~path:"lib/service/service.ml" "let f () = assert false";
  check_rules "failwith in the sharded service flagged" [ "S4" ]
    ~path:"lib/service/service.ml" {|let f () = failwith "boom"|};
  check_rules "exit in the sharded service flagged" [ "S4" ]
    ~path:"lib/service/service.ml" "let f () = exit 1";
  check_rules "failwith in the admission layer flagged" [ "S4" ]
    ~path:"lib/service/admission.ml" {|let f () = failwith "shed"|};
  check_rules "raise Not_found in the admission layer flagged" [ "S4" ]
    ~path:"lib/service/admission.ml" "let f () = raise Not_found"

let t2_scoped_to_message_paths () =
  check_rules "assert false elsewhere is not T2's business" []
    ~path:"lib/parallel/pool.ml" "let f () = assert false";
  check_rules "ordinary asserts stay legal" [] ~path:"lib/core/server.ml"
    "let f x = assert (x > 0)";
  check_rules "invalid_arg at service API edges stays legal" []
    ~path:"lib/service/service.ml"
    {|let f shards = if shards < 1 then invalid_arg "shards" else shards|};
  check_rules "invalid_arg at admission config edges stays legal" []
    ~path:"lib/service/admission.ml"
    {|let f rate = if rate < 0 then invalid_arg "rate" else rate|}

(* ------------------------------------------------------------------ *)
(* P1 — printing in hot paths *)

let p1_flags_printing_in_hot_paths () =
  check_rules "Printf.printf in objective flagged" [ "P1" ]
    ~path:"lib/objective/objective.ml" {|let f () = Printf.printf "x"|};
  check_rules "print_endline in simplex flagged" [ "P1" ]
    ~path:"lib/core/simplex.ml" {|let f () = print_endline "x"|};
  check_rules "Format.printf in pool flagged" [ "P1" ]
    ~path:"lib/parallel/pool.ml" {|let f () = Format.printf "x"|};
  (* The telemetry layer is the sanctioned output path, so it is held
     to the same standard: a tracer that printed would smuggle the
     very side effect it exists to replace. *)
  check_rules "print in lib/telemetry flagged" [ "P1" ]
    ~path:"lib/telemetry/export.ml" {|let f () = print_string "x"|};
  check_rules "print in lib/persist flagged" [ "P1" ]
    ~path:"lib/persist/persist.ml" {|let f () = Printf.printf "x"|};
  check_rules "print in instrumented server flagged" [ "P1" ]
    ~path:"lib/core/server.ml" {|let f () = print_endline "x"|};
  check_rules "print in instrumented session flagged" [ "P1" ]
    ~path:"lib/core/session.ml" {|let f () = Format.printf "x"|};
  check_rules "print in instrumented sensitivity flagged" [ "P1" ]
    ~path:"lib/core/sensitivity.ml" {|let f () = print_int 3|};
  check_rules "print in instrumented analyzer flagged" [ "P1" ]
    ~path:"lib/core/analyzer.ml" {|let f () = prerr_endline "x"|};
  (* The trace-analyzer core is pure (renderers return strings); only
     the harmony_trace CLI executable owns stdout. *)
  check_rules "print in trace-analyzer core flagged" [ "P1" ]
    ~path:"tools/trace/trace_core.ml" {|let f () = print_string "x"|};
  check_rules "the trace CLI exe may print" []
    ~path:"tools/trace/harmony_trace.ml" {|let f () = print_string "x"|}

let p1_allows_pure_formatting () =
  check_rules "sprintf is pure" [] ~path:"lib/objective/objective.ml"
    {|let f i = Printf.sprintf "p%d" i|};
  check_rules "pp over explicit formatter is fine" []
    ~path:"lib/objective/objective.ml"
    {|let pp ppf x = Format.fprintf ppf "%d" x|};
  check_rules "cold modules may print" [] ~path:"lib/experiments/report.ml"
    {|let f () = Format.printf "table"|}

(* ------------------------------------------------------------------ *)
(* Suppression *)

let allow_comment_same_line () =
  let src = "let f xs = List.hd xs (* lint: allow T1 — head is guarded *)" in
  Alcotest.(check (list string)) "kept empty" [] (rules_of (kept ~path:"lib/core/x.ml" src));
  Alcotest.(check (list string))
    "waiver recorded" [ "T1" ]
    (rules_of (suppressed ~path:"lib/core/x.ml" src))

let allow_comment_previous_line () =
  let src = "(* lint: allow T1 *)\nlet f xs = List.hd xs" in
  check_rules "previous-line comment waives" [] ~path:"lib/core/x.ml" src

let allow_comment_wrong_rule () =
  let src = "let f xs = List.hd xs (* lint: allow S3 *)" in
  check_rules "wrong rule id does not waive" [ "T1" ] ~path:"lib/core/x.ml" src

let allow_comment_multiple_rules () =
  let src = "(* lint: allow T1 S3 *)\nlet f xs = List.hd (List.sort compare xs)" in
  check_rules "one comment, several rules" [] ~path:"lib/core/x.ml" src

(* A same-line waiver covers exactly its own line; comment-only waiver lines accumulate
   and all land on the next code line. *)
let allow_comment_does_not_bleed () =
  let src =
    "let f xs = List.hd xs (* lint: allow T1 *)\nlet g xs = List.hd xs"
  in
  check_rules "same-line waiver stops at its line" [ "T1" ]
    ~path:"lib/core/x.ml" src

let allow_comment_stacked_lines () =
  let src =
    "(* lint: allow T1 — head is guarded *)\n\
     (* lint: allow S3 — ints compared *)\n\
     let f xs = List.hd (List.sort compare xs)"
  in
  check_rules "stacked comment-only waivers all apply" [] ~path:"lib/core/x.ml"
    src;
  check_rules "stack is consumed by the first code line" [ "T1" ]
    ~path:"lib/core/x.ml" (src ^ "\nlet g xs = List.hd xs")

let allowlist_waives_by_path () =
  let allowlist =
    match Lint_allow.allowlist_of_string "lib/core/x.ml T1  # legacy" with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  check_rules "allowlisted file passes" [] ~allowlist ~path:"lib/core/x.ml"
    "let f xs = List.hd xs";
  check_rules "other files still flagged" [ "T1" ] ~allowlist
    ~path:"lib/core/y.ml" "let f xs = List.hd xs";
  check_rules "other rules still flagged" [ "T1"; "S3" ] ~allowlist
    ~path:"lib/core/y.ml" "let f xs = List.hd (List.sort compare xs)"

let allowlist_rejects_garbage () =
  match Lint_allow.allowlist_of_string "one two three four" with
  | Ok _ -> Alcotest.fail "malformed allowlist accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Engine behaviour *)

let diagnostics_carry_positions () =
  match kept ~path:"lib/core/x.ml" "let a = 1\nlet f xs = List.hd xs" with
  | [ d ] ->
      Alcotest.(check string) "file" "lib/core/x.ml" d.Lint_diag.file;
      Alcotest.(check int) "line" 2 d.Lint_diag.line;
      Alcotest.(check int) "col" 11 d.Lint_diag.col
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 diag, got %d" (List.length ds))

let diagnostics_are_sorted () =
  let src = "let f xs = List.hd xs\nlet g a = a = 0.0\nlet h o = Option.get o" in
  let lines = List.map (fun d -> d.Lint_diag.line) (kept ~path:"lib/core/x.ml" src) in
  Alcotest.(check (list int)) "report in source order" [ 1; 2; 3 ] lines

let json_output_shape () =
  let d =
    Lint_diag.make ~rule:"S3" ~severity:Lint_diag.Error
      ~loc:Location.none {|bad "quote"|}
  in
  let json = Lint_diag.to_json d in
  List.iter
    (fun needle ->
      if
        not
          (List.exists
             (fun i ->
               i + String.length needle <= String.length json
               && String.sub json i (String.length needle) = needle)
             (List.init (String.length json) Fun.id))
      then Alcotest.fail (Printf.sprintf "missing %s in %s" needle json))
    [ {|"rule":"S3"|}; {|"severity":"error"|}; {|\"quote\"|} ]

let failure_semantics () =
  let result = analyze ~path:"lib/core/x.ml" "let f xs = List.hd xs" in
  Alcotest.(check bool) "errors fail" true (Sem_driver.failed result);
  let clean = analyze ~path:"lib/core/x.ml" "let f x = x + 1" in
  Alcotest.(check bool) "clean passes" false (Sem_driver.failed clean);
  let waived =
    analyze ~path:"lib/core/x.ml" "let f xs = List.hd xs (* lint: allow T1 *)"
  in
  Alcotest.(check bool) "waived findings pass" false (Sem_driver.failed waived)

let rule_registry_well_formed () =
  (* The ported rules keep their ids in the one registry; N1 and T2
     live on as S3 and S4. *)
  let ids = List.map (fun r -> r.Sem_rules.id) Sem_rules.all in
  Alcotest.(check int)
    "ids unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  Alcotest.(check (list string))
    "ids unique and stable"
    [ "D1"; "D2"; "T1"; "P1"; "S3"; "S4" ]
    (List.filter
       (fun id -> List.mem id ids)
       [ "D1"; "D2"; "T1"; "P1"; "S3"; "S4" ])

(* ------------------------------------------------------------------ *)
(* Self-check: the shipped tree is clean.  The test runs in the dune
   sandbox, whose parent is the build root: test/dune depends on the
   @check aliases, so every unit of the linted directories and of
   every directory U1 reads users from has its cmt there, and on the
   repo allowlist. *)

(* [make lint]'s directories, and the ones U1 counts uses in. *)
let lint_dirs = [ "lib"; "bin"; "bench"; "tools/trace"; "examples" ]
let user_dirs = [ "perfbench"; "tools/sem" ]

let tree_is_lint_clean () =
  let root p = Filename.concat ".." p in
  let tree = Sem_cmt.load ~root:".." in
  (* Every directory contributes units: a missing @check dependency
     would otherwise shrink the check silently, or show up as U1
     findings for values only the missing directory uses. *)
  List.iter
    (fun dir ->
      if
        not
          (List.exists
             (fun u -> String.starts_with ~prefix:(dir ^ "/") u.Sem_cmt.path)
             tree.units)
      then Alcotest.fail ("no cmt files for " ^ dir))
    (lint_dirs @ user_dirs);
  let allowlist =
    match Lint_allow.load_allowlist (root "tools/sem/allowlist") with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  let _, result =
    Sem_driver.analyze_tree ~allowlist
      ~source_of:(fun p -> Sem_driver.default_source_of (root p))
      ~tree ~dirs:lint_dirs ()
  in
  (match result.Sem_driver.kept with
  | [] -> ()
  | ds ->
      let buf = Buffer.create 256 in
      List.iter
        (fun d -> Buffer.add_string buf (Format.asprintf "%a\n" Lint_diag.pp_text d))
        ds;
      Alcotest.fail ("tree has unwaived findings:\n" ^ Buffer.contents buf));
  Alcotest.(check bool) "exit would be 0" false (Sem_driver.failed result)

let suite =
  [
    ("d1 flags global random/clock", `Quick, d1_flags_global_random);
    ("d1 allows seeded state", `Quick, d1_allows_seeded_state);
    ("d1 scoped to lib", `Quick, d1_scoped_to_lib);
    ("d1 sees through aliases", `Quick, d1_sees_through_aliases);
    ("d2 flags toplevel state", `Quick, d2_flags_toplevel_state);
    ("d2 allows local state", `Quick, d2_allows_local_state);
    ("n1 flags poly compare", `Quick, n1_flags_poly_compare);
    ("n1 allows typed comparison", `Quick, n1_allows_typed_comparison);
    ("t1 flags partials", `Quick, t1_flags_partials);
    ("t1 allows opt variants", `Quick, t1_allows_opt_variants);
    ("t1 sees through opens", `Quick, t1_sees_through_opens);
    ("t1 ignores a shadowing module", `Quick, t1_ignores_shadowing_module);
    ("t2 flags handler partiality", `Quick, t2_flags_partiality_in_handlers);
    ("t2 scoped to message paths", `Quick, t2_scoped_to_message_paths);
    ("p1 flags hot-path printing", `Quick, p1_flags_printing_in_hot_paths);
    ("p1 allows pure formatting", `Quick, p1_allows_pure_formatting);
    ("allow comment same line", `Quick, allow_comment_same_line);
    ("allow comment previous line", `Quick, allow_comment_previous_line);
    ("allow comment wrong rule", `Quick, allow_comment_wrong_rule);
    ("allow comment multiple rules", `Quick, allow_comment_multiple_rules);
    ("allow comment does not bleed", `Quick, allow_comment_does_not_bleed);
    ("allow comment stacked lines", `Quick, allow_comment_stacked_lines);
    ("allowlist waives by path", `Quick, allowlist_waives_by_path);
    ("allowlist rejects garbage", `Quick, allowlist_rejects_garbage);
    ("diagnostics carry positions", `Quick, diagnostics_carry_positions);
    ("diagnostics are sorted", `Quick, diagnostics_are_sorted);
    ("json output shape", `Quick, json_output_shape);
    ("failure semantics", `Quick, failure_semantics);
    ("rule registry well-formed", `Quick, rule_registry_well_formed);
    ("tree is lint-clean", `Quick, tree_is_lint_clean);
  ]

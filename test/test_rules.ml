module Rules = Harmony_datagen.Rules

let ranges2 = [| (0.0, 10.0); (0.0, 10.0) |]

let rule conditions performance = { Rules.conditions; performance }
let cond var lo hi = { Rules.var; lo; hi }

let two_rules =
  Rules.create ~num_vars:2 ~ranges:ranges2
    [
      rule [ cond 0 0.0 4.9 ] 10.0;
      rule [ cond 0 5.0 10.0; cond 1 0.0 5.0 ] 20.0;
    ]

let test_create_validation () =
  Alcotest.check_raises "bad var"
    (Invalid_argument "Rules.create: condition variable out of range") (fun () ->
      ignore (Rules.create ~num_vars:1 ~ranges:[| (0.0, 1.0) |] [ rule [ cond 3 0.0 1.0 ] 1.0 ]));
  Alcotest.check_raises "lo > hi"
    (Invalid_argument "Rules.create: condition lo > hi") (fun () ->
      ignore (Rules.create ~num_vars:1 ~ranges:[| (0.0, 1.0) |] [ rule [ cond 0 1.0 0.0 ] 1.0 ]));
  Alcotest.check_raises "ranges arity" (Invalid_argument "Rules.create: ranges arity")
    (fun () -> ignore (Rules.create ~num_vars:2 ~ranges:[| (0.0, 1.0) |] []))

(* [rules] followed by a catch-all worth -1: evaluation answers -1
   exactly when no rule of [rules] fires. *)
let with_catch_all rules =
  Rules.create ~num_vars:2 ~ranges:ranges2 (rules @ [ rule [] (-1.0) ])

let test_satisfies () =
  let r = with_catch_all [ rule [ cond 0 2.0 4.0; cond 1 0.0 1.0 ] 5.0 ] in
  Alcotest.(check (float 1e-12)) "inside" 5.0 (Rules.eval r [| 3.0; 0.5 |]);
  Alcotest.(check (float 1e-12)) "boundary" 5.0 (Rules.eval r [| 2.0; 1.0 |]);
  Alcotest.(check (float 1e-12)) "outside" (-1.0) (Rules.eval r [| 5.0; 0.5 |])

let test_first_satisfied () =
  let r = with_catch_all (Array.to_list (Rules.rules two_rules)) in
  Alcotest.(check (float 1e-12)) "rule 1" 10.0 (Rules.eval r [| 2.0; 9.0 |]);
  Alcotest.(check (float 1e-12)) "no match" (-1.0) (Rules.eval r [| 7.0; 9.0 |])

let test_eval_satisfied () =
  Alcotest.(check (float 1e-12)) "direct hit" 20.0 (Rules.eval two_rules [| 7.0; 3.0 |])

let test_eval_closest_fallback () =
  (* (5.5, 5.4) satisfies nothing; rule 2's box (gap 0.4 on var 1) is
     nearer than rule 1's (gap 0.6 on var 0). *)
  Alcotest.(check (float 1e-12)) "closest rule" 20.0 (Rules.eval two_rules [| 5.5; 5.4 |]);
  (* (7, 9) is 2.1 from rule 1's box but 4.0 from rule 2's: rule 1
     wins despite the var-0 gap. *)
  Alcotest.(check (float 1e-12)) "other side" 10.0 (Rules.eval two_rules [| 7.0; 9.0 |])

let test_eval_empty () =
  let empty = Rules.create ~num_vars:1 ~ranges:[| (0.0, 1.0) |] [] in
  Alcotest.check_raises "empty" (Invalid_argument "Rules.eval: empty rule set")
    (fun () -> ignore (Rules.eval empty [| 0.5 |]))

let test_eval_arity () =
  Alcotest.check_raises "arity" (Invalid_argument "Rules.eval: arity mismatch")
    (fun () -> ignore (Rules.eval two_rules [| 0.5 |]))

let test_rule_distance () =
  let r = rule [ cond 0 0.0 5.0 ] 1.0 in
  Alcotest.(check (float 1e-9)) "satisfied -> 0" 0.0
    (Rules.rule_distance two_rules r [| 3.0; 0.0 |]);
  (* Gap of 2 on a range of width 10 -> normalized distance 0.2. *)
  Alcotest.(check (float 1e-9)) "normalized gap" 0.2
    (Rules.rule_distance two_rules r [| 7.0; 0.0 |])

let test_conflict_free_positive () =
  Alcotest.(check bool) "disjoint" true (Rules.conflict_free two_rules)

let test_conflict_free_negative () =
  let overlapping =
    Rules.create ~num_vars:2 ~ranges:ranges2
      [ rule [ cond 0 0.0 5.0 ] 1.0; rule [ cond 1 0.0 5.0 ] 2.0 ]
  in
  (* (3, 3) satisfies both. *)
  Alcotest.(check bool) "overlap detected" false (Rules.conflict_free overlapping)

let test_unconditional_rule_conflicts () =
  let with_catchall =
    Rules.create ~num_vars:2 ~ranges:ranges2
      [ rule [ cond 0 0.0 5.0 ] 1.0; rule [] 2.0 ]
  in
  Alcotest.(check bool) "catch-all overlaps" false (Rules.conflict_free with_catchall)

(* ------------------------------------------------------------------ *)
(* Textual rule format                                                 *)

let test_of_text_basic () =
  let t =
    Rules.of_text ~num_vars:2 ~ranges:ranges2
      "# demo rules\n42.5 <- v0 = 3 & 2 <= v1 < 8\n17 <- v0 >= 5\n"
  in
  Alcotest.(check int) "two rules" 2 (Array.length (Rules.rules t));
  Alcotest.(check (float 1e-12)) "equality + range" 42.5 (Rules.eval t [| 3.0; 5.0 |]);
  Alcotest.(check (float 1e-12)) "lower bound" 17.0 (Rules.eval t [| 9.0; 9.0 |])

let test_of_text_strict_bounds () =
  let t =
    Rules.of_text ~num_vars:1 ~ranges:[| (0.0, 10.0) |] "1 <- v0 < 5\n2 <- v0 >= 5\n"
  in
  Alcotest.(check (float 1e-12)) "below" 1.0 (Rules.eval t [| 4.9 |]);
  Alcotest.(check (float 1e-12)) "at the strict boundary" 2.0 (Rules.eval t [| 5.0 |]);
  Alcotest.(check bool) "partition is conflict free" true (Rules.conflict_free t)

let test_of_text_unconditional () =
  let t = Rules.of_text ~num_vars:1 ~ranges:[| (0.0, 1.0) |] "7 <-\n" in
  Alcotest.(check (float 1e-12)) "catch-all" 7.0 (Rules.eval t [| 0.3 |])

let test_of_text_errors () =
  let expect s =
    match Rules.of_text ~num_vars:1 ~ranges:[| (0.0, 1.0) |] s with
    | exception Rules.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  expect "";
  expect "abc";
  expect "1 <- v9 = 0";
  expect "1 <- v0 @ 3";
  expect "x <- v0 = 0"

let test_text_roundtrip () =
  let t =
    Rules.of_text ~num_vars:2 ~ranges:ranges2
      "10 <- v0 = 3\n20 <- 2 <= v1 <= 8\n30 <-\n"
  in
  let t' = Rules.of_text ~num_vars:2 ~ranges:ranges2 (Rules.to_text t) in
  Alcotest.(check string) "stable" (Rules.to_text t) (Rules.to_text t')

let suite =
  [
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "satisfies" `Quick test_satisfies;
    Alcotest.test_case "first satisfied" `Quick test_first_satisfied;
    Alcotest.test_case "eval satisfied" `Quick test_eval_satisfied;
    Alcotest.test_case "eval closest fallback" `Quick test_eval_closest_fallback;
    Alcotest.test_case "eval empty" `Quick test_eval_empty;
    Alcotest.test_case "eval arity" `Quick test_eval_arity;
    Alcotest.test_case "rule distance" `Quick test_rule_distance;
    Alcotest.test_case "conflict free positive" `Quick test_conflict_free_positive;
    Alcotest.test_case "conflict free negative" `Quick test_conflict_free_negative;
    Alcotest.test_case "catch-all conflicts" `Quick test_unconditional_rule_conflicts;
    Alcotest.test_case "of_text basic" `Quick test_of_text_basic;
    Alcotest.test_case "of_text strict bounds" `Quick test_of_text_strict_bounds;
    Alcotest.test_case "of_text unconditional" `Quick test_of_text_unconditional;
    Alcotest.test_case "of_text errors" `Quick test_of_text_errors;
    Alcotest.test_case "text roundtrip" `Quick test_text_roundtrip;
  ]

open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space

let space =
  Space.create
    [
      Param.int_range ~name:"a" ~lo:0 ~hi:10 ~default:1 ();
      Param.int_range ~name:"b" ~lo:0 ~hi:10 ~default:2 ();
      Param.int_range ~name:"c" ~lo:0 ~hi:10 ~default:3 ();
    ]

let obj =
  Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
      (100.0 *. c.(0)) +. (10.0 *. c.(1)) +. c.(2))

let test_project_shape () =
  let sub = Subspace.project obj ~indices:[ 2; 0 ] () in
  Alcotest.(check (list int)) "sorted deduped" [ 0; 2 ] (Subspace.indices sub);
  Alcotest.(check int) "reduced dims" 2 (Space.dims (Subspace.objective sub).Objective.space)

let test_project_dedups () =
  let sub = Subspace.project obj ~indices:[ 1; 1; 1 ] () in
  Alcotest.(check (list int)) "one index" [ 1 ] (Subspace.indices sub)

let test_project_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Subspace.project: empty index list")
    (fun () -> ignore (Subspace.project obj ~indices:[] ()));
  Alcotest.check_raises "oob" (Invalid_argument "Subspace.project: index out of range")
    (fun () -> ignore (Subspace.project obj ~indices:[ 3 ] ()))

let test_embed_uses_defaults () =
  let sub = Subspace.project obj ~indices:[ 0; 2 ] () in
  Alcotest.(check (array (float 1e-9)))
    "frozen at defaults" [| 7.0; 2.0; 9.0 |]
    (Subspace.embed sub [| 7.0; 9.0 |])

let test_embed_uses_custom_base () =
  let sub = Subspace.project obj ~indices:[ 0 ] ~base:[| 0.0; 8.0; 9.0 |] () in
  Alcotest.(check (array (float 1e-9)))
    "frozen at base" [| 5.0; 8.0; 9.0 |]
    (Subspace.embed sub [| 5.0 |])

let test_restrict () =
  let sub = Subspace.project obj ~indices:[ 0; 2 ] () in
  Alcotest.(check (array (float 1e-9)))
    "projection" [| 1.0; 3.0 |]
    (Subspace.restrict sub [| 1.0; 2.0; 3.0 |]);
  Alcotest.check_raises "arity" (Invalid_argument "Subspace.restrict: arity mismatch")
    (fun () -> ignore (Subspace.restrict sub [| 1.0 |]))

let test_reduced_eval_consistent () =
  let sub = Subspace.project obj ~indices:[ 1 ] () in
  let reduced = Subspace.objective sub in
  (* b = 4, a and c frozen at defaults (1, 3). *)
  Alcotest.(check (float 1e-9)) "embedded eval" 143.0 (reduced.Objective.eval [| 4.0 |])

let test_tuning_subspace_leaves_rest_fixed () =
  let sub = Subspace.project obj ~indices:[ 0 ] () in
  let outcome = Tuner.tune (Subspace.objective sub) in
  let full = Subspace.embed sub outcome.Tuner.best_config in
  Alcotest.(check (float 1e-9)) "a tuned to max" 10.0 full.(0);
  Alcotest.(check (float 1e-9)) "b untouched" 2.0 full.(1);
  Alcotest.(check (float 1e-9)) "c untouched" 3.0 full.(2)

let test_direction_preserved () =
  let sub = Subspace.project (Testbed.negate obj) ~indices:[ 0 ] () in
  Alcotest.(check bool) "lower is better" true
    ((Subspace.objective sub).Objective.direction = Objective.Lower_is_better)

let suite =
  [
    Alcotest.test_case "project shape" `Quick test_project_shape;
    Alcotest.test_case "project dedups" `Quick test_project_dedups;
    Alcotest.test_case "project invalid" `Quick test_project_invalid;
    Alcotest.test_case "embed defaults" `Quick test_embed_uses_defaults;
    Alcotest.test_case "embed custom base" `Quick test_embed_uses_custom_base;
    Alcotest.test_case "restrict" `Quick test_restrict;
    Alcotest.test_case "reduced eval" `Quick test_reduced_eval_consistent;
    Alcotest.test_case "tuning leaves rest fixed" `Quick test_tuning_subspace_leaves_rest_fixed;
    Alcotest.test_case "direction preserved" `Quick test_direction_preserved;
  ]

open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space
module Rng = Harmony_numerics.Rng

let peak = Testbed.interior_peak ~dims:2 ()

let small_space =
  Space.create
    [
      Param.int_range ~name:"a" ~lo:0 ~hi:4 ~default:0 ();
      Param.int_range ~name:"b" ~lo:0 ~hi:4 ~default:0 ();
    ]

let small_obj =
  Objective.create ~space:small_space ~direction:Objective.Higher_is_better
    (fun c -> (10.0 *. c.(0)) +. c.(1))

(* Uniform sampling over the grid is Baselines.random_sweep, the
   Monte-Carlo half of Figure 4's distributions. *)
let test_random_search_finds_something () =
  let perfs = Baselines.random_sweep (Rng.create 1) ~samples:200 peak in
  Alcotest.(check int) "budget spent" 200 (Array.length perfs);
  Alcotest.(check bool) "reasonable result" true
    (Array.fold_left Float.max neg_infinity perfs > 50.0)

let test_random_search_deterministic () =
  let a = Baselines.random_sweep (Rng.create 5) ~samples:50 peak in
  let b = Baselines.random_sweep (Rng.create 5) ~samples:50 peak in
  Alcotest.(check (array (float 1e-12))) "same seed same result" a b

let test_random_search_empty_budget () =
  Alcotest.check_raises "no budget"
    (Invalid_argument "Baselines.random_sweep: samples < 1") (fun () ->
      ignore (Baselines.random_sweep (Rng.create 1) ~samples:0 peak))

let test_exhaustive_finds_optimum () =
  let r = Baselines.exhaustive small_obj in
  Alcotest.(check int) "5*5 evaluations" 25 r.Baselines.evaluations;
  Alcotest.(check (float 1e-12)) "true optimum" 44.0 r.Baselines.best_performance;
  Alcotest.(check (array (float 1e-12))) "config" [| 4.0; 4.0 |] r.Baselines.best_config

let test_exhaustive_limit () =
  let obj = Testbed.interior_peak ~dims:4 () in
  match Baselines.exhaustive ~limit:100 obj with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected cardinality guard to fire"

(* The exhaustive trace holds every grid performance in enumeration
   order: the raw material of Figure 4's histograms. *)
let test_sweep_matches_enumeration () =
  let r = Baselines.exhaustive small_obj in
  let perfs =
    Array.of_list (List.map (fun e -> e.Recorder.performance) r.Baselines.trace)
  in
  Alcotest.(check int) "all configs" 25 (Array.length perfs);
  Alcotest.(check (array (float 1e-12))) "enumeration order"
    (Array.of_seq
       (Seq.map small_obj.Objective.eval (Space.enumerate small_space)))
    perfs

let test_random_sweep () =
  let perfs = Baselines.random_sweep (Rng.create 2) ~samples:500 peak in
  Alcotest.(check int) "sample count" 500 (Array.length perfs);
  Array.iter
    (fun p -> Alcotest.(check bool) "plausible" true (p >= 0.0 && p <= 100.0))
    perfs

let test_annealing_improves () =
  let r = Baselines.simulated_annealing (Rng.create 3) ~max_evaluations:300 peak in
  Alcotest.(check bool) "near the peak" true (r.Baselines.best_performance > 90.0);
  Alcotest.(check int) "budget spent" 300 r.Baselines.evaluations

let test_annealing_minimizes () =
  let bowl = Testbed.quadratic_bowl ~dims:2 () in
  let start = bowl.Objective.eval (Space.defaults bowl.Objective.space) in
  let r = Baselines.simulated_annealing (Rng.create 4) ~max_evaluations:400 bowl in
  Alcotest.(check bool) "descends" true (r.Baselines.best_performance < start /. 4.0)

let test_annealing_deterministic () =
  let a = Baselines.simulated_annealing (Rng.create 5) ~max_evaluations:100 peak in
  let b = Baselines.simulated_annealing (Rng.create 5) ~max_evaluations:100 peak in
  Alcotest.(check (float 1e-12)) "same seed" a.Baselines.best_performance
    b.Baselines.best_performance

let test_annealing_empty_budget () =
  Alcotest.check_raises "no budget"
    (Invalid_argument "Baselines.simulated_annealing: empty budget") (fun () ->
      ignore (Baselines.simulated_annealing (Rng.create 1) ~max_evaluations:0 peak))

let suite =
  [
    Alcotest.test_case "random search" `Quick test_random_search_finds_something;
    Alcotest.test_case "random search deterministic" `Quick test_random_search_deterministic;
    Alcotest.test_case "random search empty budget" `Quick test_random_search_empty_budget;
    Alcotest.test_case "exhaustive optimum" `Quick test_exhaustive_finds_optimum;
    Alcotest.test_case "exhaustive limit" `Quick test_exhaustive_limit;
    Alcotest.test_case "sweep" `Quick test_sweep_matches_enumeration;
    Alcotest.test_case "random sweep" `Quick test_random_sweep;
    Alcotest.test_case "annealing improves" `Quick test_annealing_improves;
    Alcotest.test_case "annealing minimizes" `Quick test_annealing_minimizes;
    Alcotest.test_case "annealing deterministic" `Quick test_annealing_deterministic;
    Alcotest.test_case "annealing empty budget" `Quick test_annealing_empty_budget;
  ]

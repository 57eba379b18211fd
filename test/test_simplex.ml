open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space

let space3 =
  Space.create
    (List.init 3 (fun i ->
         Param.int_range ~name:(Printf.sprintf "p%d" i) ~lo:0 ~hi:100 ~default:10 ()))

let test_init_extremes_touch_bounds () =
  let vs = Simplex.Init.vertices Simplex.Init.Extremes space3 in
  Alcotest.(check int) "n+1 vertices" 4 (List.length vs);
  List.iter
    (fun (c, v) ->
      Alcotest.(check bool) "unvalued" true (v = None);
      Array.iter
        (fun x ->
          Alcotest.(check bool) "extreme coordinates" true (x = 0.0 || x = 100.0))
        c)
    vs

let test_init_extremes_distinct () =
  let vs = Simplex.Init.vertices Simplex.Init.Extremes space3 in
  let distinct =
    List.for_all
      (fun (c, _) ->
        List.length (List.filter (fun (c', _) -> Space.config_equal c c') vs) = 1)
      vs
  in
  Alcotest.(check bool) "all distinct" true distinct

let test_init_spread_interior () =
  let vs = Simplex.Init.vertices Simplex.Init.Spread space3 in
  Alcotest.(check int) "n+1 vertices" 4 (List.length vs);
  List.iter
    (fun (c, _) ->
      Array.iter
        (fun x ->
          Alcotest.(check bool) "avoids the boundary" true (x > 0.0 && x < 100.0))
        c)
    vs

let test_init_spread_covers_each_dimension () =
  (* Per dimension, the n+1 vertices land in n+1 different quantiles. *)
  let vs = Simplex.Init.vertices Simplex.Init.Spread space3 in
  for d = 0 to 2 do
    let values =
      List.sort_uniq compare (List.map (fun (c, _) -> c.(d)) vs)
    in
    Alcotest.(check int) "distinct positions" 4 (List.length values)
  done

let test_init_around_default () =
  let vs = Simplex.Init.vertices (Simplex.Init.Around_default 0.1) space3 in
  match vs with
  | (base, _) :: rest ->
      Alcotest.(check (array (float 1e-9))) "base is default" (Space.defaults space3) base;
      Alcotest.(check int) "n shifted vertices" 3 (List.length rest)
  | [] -> Alcotest.fail "empty simplex"

let test_init_seeded_trusted () =
  let seeds = [ ([| 5.0; 5.0; 5.0 |], Some 42.0); ([| 6.0; 6.0; 6.0 |], None) ] in
  let vs = Simplex.Init.vertices (Simplex.Init.Seeded seeds) space3 in
  Alcotest.(check int) "filled to n+1" 4 (List.length vs);
  (match vs with
  | (c, v) :: _ ->
      Alcotest.(check (array (float 1e-9))) "seed kept" [| 5.0; 5.0; 5.0 |] c;
      Alcotest.(check (option (float 1e-9))) "value trusted" (Some 42.0) v
  | [] -> Alcotest.fail "empty");
  (* Fillers are unvalued. *)
  let unvalued = List.filter (fun (_, v) -> v = None) vs in
  Alcotest.(check int) "three unvalued" 3 (List.length unvalued)

let test_init_seeded_dedups () =
  let seeds = [ ([| 5.0; 5.0; 5.0 |], None); ([| 5.0; 5.0; 5.0 |], None) ] in
  let vs = Simplex.Init.vertices (Simplex.Init.Seeded seeds) space3 in
  let fives =
    List.filter (fun (c, _) -> Space.config_equal c [| 5.0; 5.0; 5.0 |]) vs
  in
  Alcotest.(check int) "duplicate removed" 1 (List.length fives)

let test_optimize_quadratic () =
  let obj = Testbed.quadratic_bowl ~dims:3 () in
  let r = Simplex.optimize obj in
  Alcotest.(check bool) "near the minimum" true (r.Simplex.best_performance < 5.0);
  Alcotest.(check bool) "budget respected" true (r.Simplex.evaluations <= 400)

let test_optimize_interior_peak_exact () =
  let obj = Testbed.interior_peak ~dims:3 () in
  let r = Simplex.optimize obj in
  Alcotest.(check bool) "finds the peak" true (r.Simplex.best_performance > 99.0);
  Alcotest.(check bool) "best config valid" true
    (Space.is_valid obj.Objective.space r.Simplex.best_config)

let test_optimize_maximizes_and_minimizes () =
  let peak = Testbed.interior_peak ~dims:2 () in
  let up = Simplex.optimize peak in
  let down = Simplex.optimize (Testbed.negate peak) in
  Alcotest.(check (float 1e-6))
    "same optimum either way" up.Simplex.best_performance
    (-.down.Simplex.best_performance)

let test_optimize_respects_budget () =
  let count = ref 0 in
  let obj =
    Objective.create ~space:space3 ~direction:Objective.Lower_is_better (fun c ->
        incr count;
        c.(0))
  in
  let options = { Simplex.default_options with Simplex.max_evaluations = 20 } in
  let r = Simplex.optimize ~options obj in
  Alcotest.(check bool) "hard cap" true (!count <= 20);
  Alcotest.(check int) "reported evaluations" !count r.Simplex.evaluations

let test_optimize_budget_too_small () =
  let obj = Testbed.quadratic_bowl ~dims:3 () in
  Alcotest.check_raises "tiny budget"
    (Invalid_argument "Simplex.optimize: budget below n+2 evaluations") (fun () ->
      ignore
        (Simplex.optimize
           ~options:{ Simplex.default_options with Simplex.max_evaluations = 3 }
           obj))

let test_optimize_trusted_seeds_skip_measurement () =
  let evaluated = ref [] in
  let obj =
    Objective.create ~space:space3 ~direction:Objective.Higher_is_better (fun c ->
        evaluated := Array.copy c :: !evaluated;
        -.abs_float (c.(0) -. 50.0))
  in
  (* All n+1 vertices trusted: the kernel starts transforming without
     measuring the initial simplex, so the very first evaluation is a
     new proposal, not a seed. *)
  let seeds =
    [
      ([| 40.0; 10.0; 10.0 |], Some (-10.0));
      ([| 60.0; 10.0; 10.0 |], Some (-10.0));
      ([| 40.0; 30.0; 10.0 |], Some (-12.0));
      ([| 40.0; 10.0; 30.0 |], Some (-12.0));
    ]
  in
  let options =
    { Simplex.default_options with Simplex.init = Simplex.Init.Seeded seeds;
      max_evaluations = 30 }
  in
  ignore (Simplex.optimize ~options obj);
  match List.rev !evaluated with
  | [] -> Alcotest.fail "no evaluations at all"
  | first :: _ ->
      Alcotest.(check bool) "first evaluation is not a seed" true
        (not (List.exists (fun (s, _) -> Space.config_equal s first) seeds))

let test_optimize_on_plateau_terminates () =
  let obj = Testbed.step_plateau ~dims:2 () in
  let r = Simplex.optimize obj in
  Alcotest.(check bool) "terminates with a plateau value" true
    (r.Simplex.best_performance >= 60.0)

let test_optimize_on_rastrigin_progress () =
  let obj = Testbed.rastrigin ~dims:2 () in
  let r =
    Simplex.optimize
      ~options:{ Simplex.default_options with Simplex.max_evaluations = 600 } obj
  in
  (* Multimodal: we don't require the global optimum, only real progress
     from the default value (~57). *)
  Alcotest.(check bool) "substantial progress" true (r.Simplex.best_performance < 10.0)

let test_objective_failure_propagates () =
  (* Failure injection: a measurement that raises mid-search must
     surface to the caller, not be swallowed. *)
  let count = ref 0 in
  let obj =
    Objective.create ~space:space3 ~direction:Objective.Higher_is_better (fun c ->
        incr count;
        if !count = 7 then failwith "measurement infrastructure died";
        c.(0))
  in
  Alcotest.check_raises "propagates" (Failure "measurement infrastructure died")
    (fun () -> ignore (Simplex.optimize obj));
  Alcotest.(check int) "stopped at the failing evaluation" 7 !count

(* Property: the returned best configuration is always on-grid and its
   reported value matches a re-evaluation (no noise here). *)
let prop_result_consistent =
  QCheck2.Test.make ~name:"simplex result is valid and consistent" ~count:20
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let target = Array.init 3 (fun i -> float_of_int ((seed * (i + 7)) mod 101)) in
      let obj = Testbed.quadratic_bowl ~dims:3 ~target () in
      let r = Simplex.optimize ~options:{ Simplex.default_options with Simplex.max_evaluations = 150 } obj in
      Space.is_valid obj.Objective.space r.Simplex.best_config
      && Float.abs (obj.Objective.eval r.Simplex.best_config -. r.Simplex.best_performance) < 1e-9)

let suite =
  [
    Alcotest.test_case "extremes touch bounds" `Quick test_init_extremes_touch_bounds;
    Alcotest.test_case "extremes distinct" `Quick test_init_extremes_distinct;
    Alcotest.test_case "spread interior" `Quick test_init_spread_interior;
    Alcotest.test_case "spread covers dimensions" `Quick test_init_spread_covers_each_dimension;
    Alcotest.test_case "around default" `Quick test_init_around_default;
    Alcotest.test_case "seeded trusted" `Quick test_init_seeded_trusted;
    Alcotest.test_case "seeded dedups" `Quick test_init_seeded_dedups;
    Alcotest.test_case "optimize quadratic" `Quick test_optimize_quadratic;
    Alcotest.test_case "optimize interior peak" `Quick test_optimize_interior_peak_exact;
    Alcotest.test_case "maximize and minimize" `Quick test_optimize_maximizes_and_minimizes;
    Alcotest.test_case "respects budget" `Quick test_optimize_respects_budget;
    Alcotest.test_case "budget too small" `Quick test_optimize_budget_too_small;
    Alcotest.test_case "trusted seeds skip measurement" `Quick test_optimize_trusted_seeds_skip_measurement;
    Alcotest.test_case "plateau terminates" `Quick test_optimize_on_plateau_terminates;
    Alcotest.test_case "rastrigin progress" `Quick test_optimize_on_rastrigin_progress;
    Alcotest.test_case "objective failure propagates" `Quick test_objective_failure_propagates;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_result_consistent ]

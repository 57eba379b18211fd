module Generator = Harmony_datagen.Generator
module Rules = Harmony_datagen.Rules
module Param = Harmony_param.Param
module Space = Harmony_param.Space
module Rng = Harmony_numerics.Rng
open Harmony_objective

(* The dataset's response at a configuration, through its objective. *)
let eval g c ~workload = (Generator.objective g ~workload).Objective.eval c

let small_space =
  Space.create
    [
      Param.int_range ~name:"x" ~lo:1 ~hi:10 ~default:5 ();
      Param.int_range ~name:"y" ~lo:1 ~hi:10 ~default:5 ();
      Param.int_range ~name:"z" ~lo:1 ~hi:10 ~default:5 ();
    ]

let g =
  Generator.generate ~space:small_space ~workload_dims:2 ~irrelevant:[ 2 ]
    ~cells_per_param:4 ~cells_per_workload:2 ~seed:5 ()

let w0 = [| 0.3; 0.7 |]

let test_deterministic () =
  let g2 =
    Generator.generate ~space:small_space ~workload_dims:2 ~irrelevant:[ 2 ]
      ~cells_per_param:4 ~cells_per_workload:2 ~seed:5 ()
  in
  Alcotest.(check (float 1e-12))
    "same seed same data"
    (eval g [| 3.0; 7.0; 2.0 |] ~workload:w0)
    (eval g2 [| 3.0; 7.0; 2.0 |] ~workload:w0)

let test_seed_changes_data () =
  let g2 =
    Generator.generate ~space:small_space ~workload_dims:2 ~irrelevant:[ 2 ]
      ~cells_per_param:4 ~cells_per_workload:2 ~seed:6 ()
  in
  let differs = ref false in
  Seq.iter
    (fun c ->
      if eval g c ~workload:w0 <> eval g2 c ~workload:w0 then
        differs := true)
    (Space.enumerate small_space);
  Alcotest.(check bool) "different seed differs somewhere" true !differs

let test_irrelevant_truly_irrelevant () =
  (* Changing z never changes the output — rule data has no condition
     on it (Section 5.2's ground truth). *)
  Seq.iter
    (fun c ->
      let base = eval g c ~workload:w0 in
      for z = 1 to 10 do
        let c' = Array.copy c in
        c'.(2) <- float_of_int z;
        Alcotest.(check (float 1e-12)) "z irrelevant" base
          (eval g c' ~workload:w0)
      done)
    (Space.enumerate small_space)

let test_relevant_params_matter () =
  let differs i =
    Seq.exists
      (fun c ->
        let c' = Array.copy c in
        c'.(i) <- (if c.(i) < 5.0 then 10.0 else 1.0);
        eval g c ~workload:w0 <> eval g c' ~workload:w0)
      (Space.enumerate small_space)
  in
  Alcotest.(check bool) "x matters" true (differs 0);
  Alcotest.(check bool) "y matters" true (differs 1)

let test_workload_matters () =
  let w1 = [| 0.9; 0.1 |] in
  let differs =
    Seq.exists
      (fun c -> eval g c ~workload:w0 <> eval g c ~workload:w1)
      (Space.enumerate small_space)
  in
  Alcotest.(check bool) "workload shifts performance" true differs

let test_perf_range () =
  Seq.iter
    (fun c ->
      let v = eval g c ~workload:w0 in
      Alcotest.(check bool) "within [0, 55]" true (v >= 0.0 && v <= 55.0))
    (Space.enumerate small_space)

let test_quantization_piecewise_constant () =
  (* Two configs in the same cell (4 cells over 1..10) evaluate
     identically even though the smooth response differs. *)
  let a = [| 1.0; 5.0; 5.0 |] and b = [| 2.0; 5.0; 5.0 |] in
  Alcotest.(check (float 1e-12))
    "same cell"
    (eval g a ~workload:w0)
    (eval g b ~workload:w0)

let test_eval_matches_rules () =
  (* The materialized CNF rule set is semantically equivalent to the
     procedural evaluation. *)
  let rules = Generator.to_rules g in
  Alcotest.(check bool) "conflict free" true (Rules.conflict_free rules);
  let rng = Rng.create 77 in
  for _ = 1 to 200 do
    let c = Space.random rng small_space in
    let w = [| Rng.float rng 1.0; Rng.float rng 1.0 |] in
    let joint = Array.append c w in
    Alcotest.(check (float 1e-9))
      "rules agree with eval"
      (eval g c ~workload:w)
      (Rules.eval rules joint)
  done

let test_to_rules_limit () =
  Alcotest.check_raises "too many"
    (Invalid_argument "Generator.to_rules: too many cells to materialize") (fun () ->
      ignore (Generator.to_rules ~max_rules:3 g))

let test_objective_direction () =
  let obj = Generator.objective g ~workload:w0 in
  Alcotest.(check bool) "higher is better" true
    (obj.Objective.direction = Objective.Higher_is_better);
  Alcotest.(check (float 1e-12))
    "matches a fresh objective"
    ((Generator.objective g ~workload:w0).Objective.eval [| 3.0; 7.0; 5.0 |])
    (obj.Objective.eval [| 3.0; 7.0; 5.0 |])

let test_workload_arity_checked () =
  Alcotest.check_raises "arity" (Invalid_argument "Generator: workload arity mismatch")
    (fun () -> ignore (Generator.objective g ~workload:[| 0.5 |]))

let test_mix_normalizes () =
  let m = Generator.mix ~browsing:2.0 ~shopping:1.0 ~ordering:1.0 in
  Alcotest.(check (array (float 1e-12))) "normalized" [| 0.5; 0.25; 0.25 |] m

let test_mix_invalid () =
  Alcotest.check_raises "zero total" (Invalid_argument "Generator.mix: non-positive total")
    (fun () -> ignore (Generator.mix ~browsing:0.0 ~shopping:0.0 ~ordering:0.0))

let test_synthetic_webservice_shape () =
  let s = Generator.synthetic_webservice () in
  let space = Generator.space s in
  Alcotest.(check int) "15 parameters" 15 (Space.dims space);
  (* Three workload dimensions: the TPC-W mixes are its workloads. *)
  ignore (Generator.objective s ~workload:Generator.shopping_mix : Objective.t);
  let names = Array.map (fun p -> p.Param.name) (Space.params space) in
  Alcotest.(check string) "first is D" "D" names.(0);
  Alcotest.(check string) "last is R" "R" names.(14);
  (* H (index 4) and M (index 9) are the irrelevant two. *)
  Alcotest.(check (list int)) "irrelevant" [ 4; 9 ] (Generator.irrelevant s)

let test_synthetic_irrelevant_h_m () =
  let s = Generator.synthetic_webservice () in
  let w = Generator.shopping_mix in
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    let c = Space.random rng (Generator.space s) in
    let base = eval s c ~workload:w in
    let c' = Array.copy c in
    c'.(4) <- float_of_int (1 + Rng.int rng 10);
    c'.(9) <- float_of_int (1 + Rng.int rng 10);
    Alcotest.(check (float 1e-12)) "H and M irrelevant" base
      (eval s c' ~workload:w)
  done

let test_objective_of_rules_tunable () =
  (* Hand-written rules in the paper's notation drive a tunable
     objective end to end: the tuner finds the best rule's region. *)
  let tuning_space =
    Space.create
      [
        Param.int_range ~name:"x" ~lo:0 ~hi:10 ~default:0 ();
        Param.int_range ~name:"y" ~lo:0 ~hi:10 ~default:0 ();
      ]
  in
  let rules =
    Harmony_datagen.Rules.of_text ~num_vars:3
      ~ranges:[| (0.0, 10.0); (0.0, 10.0); (0.0, 1.0) |]
      (* The jackpot needs a heavy workload (v2) and x in [4,6]. *)
      "50 <- 4 <= v0 <= 6 & v2 >= 0.5\n30 <- v0 >= 7\n10 <-\n"
  in
  let heavy =
    Generator.objective_of_rules rules ~space:tuning_space ~workload:[| 0.8 |] ()
  in
  let outcome = Harmony.Tuner.tune heavy in
  Alcotest.(check (float 1e-12)) "finds the jackpot rule" 50.0
    outcome.Harmony.Tuner.best_performance;
  Alcotest.(check bool) "in the rule's region" true
    (outcome.Harmony.Tuner.best_config.(0) >= 4.0
    && outcome.Harmony.Tuner.best_config.(0) <= 6.0);
  (* Under a light workload the jackpot rule can't fire. *)
  let light =
    Generator.objective_of_rules rules ~space:tuning_space ~workload:[| 0.2 |] ()
  in
  let outcome_light = Harmony.Tuner.tune light in
  Alcotest.(check (float 1e-12)) "best without the jackpot" 30.0
    outcome_light.Harmony.Tuner.best_performance

let test_objective_of_rules_arity () =
  let rules =
    Harmony_datagen.Rules.of_text ~num_vars:1 ~ranges:[| (0.0, 1.0) |] "1 <-\n"
  in
  Alcotest.check_raises "arity"
    (Invalid_argument "Generator.objective_of_rules: rule arity mismatch")
    (fun () -> ignore (Generator.objective_of_rules rules ~space:small_space ()))

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "seed changes data" `Quick test_seed_changes_data;
    Alcotest.test_case "irrelevant truly irrelevant" `Quick test_irrelevant_truly_irrelevant;
    Alcotest.test_case "relevant params matter" `Quick test_relevant_params_matter;
    Alcotest.test_case "workload matters" `Quick test_workload_matters;
    Alcotest.test_case "perf range" `Quick test_perf_range;
    Alcotest.test_case "quantization piecewise constant" `Quick test_quantization_piecewise_constant;
    Alcotest.test_case "eval matches rules" `Quick test_eval_matches_rules;
    Alcotest.test_case "to_rules limit" `Quick test_to_rules_limit;
    Alcotest.test_case "objective direction" `Quick test_objective_direction;
    Alcotest.test_case "workload arity" `Quick test_workload_arity_checked;
    Alcotest.test_case "mix normalizes" `Quick test_mix_normalizes;
    Alcotest.test_case "mix invalid" `Quick test_mix_invalid;
    Alcotest.test_case "synthetic webservice shape" `Quick test_synthetic_webservice_shape;
    Alcotest.test_case "synthetic H M irrelevant" `Quick test_synthetic_irrelevant_h_m;
    Alcotest.test_case "objective of rules tunable" `Quick test_objective_of_rules_tunable;
    Alcotest.test_case "objective of rules arity" `Quick test_objective_of_rules_arity;
  ]

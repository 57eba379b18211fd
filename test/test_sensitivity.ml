open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space
module Rng = Harmony_numerics.Rng

(* A transparent objective: performance = 10*x + y, z ignored. *)
let space =
  Space.create
    [
      Param.int_range ~name:"x" ~lo:0 ~hi:10 ~default:5 ();
      Param.int_range ~name:"y" ~lo:0 ~hi:10 ~default:5 ();
      Param.int_range ~name:"z" ~lo:0 ~hi:10 ~default:5 ();
    ]

let linear =
  Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
      (10.0 *. c.(0)) +. c.(1))

let test_scores_linear () =
  let r = Sensitivity.analyze linear in
  let s i = r.Sensitivity.scores.(i).Sensitivity.sensitivity in
  (* Sweep of x: P from 50+5 to 150+5... wait, x in [0,10]: P ranges
     over 100 with v' spanning 1 -> sensitivity 100. *)
  Alcotest.(check (float 1e-9)) "x" 100.0 (s 0);
  Alcotest.(check (float 1e-9)) "y" 10.0 (s 1);
  Alcotest.(check (float 1e-9)) "z flat" 0.0 (s 2)

let test_best_worst_values () =
  let r = Sensitivity.analyze linear in
  let sx = r.Sensitivity.scores.(0) in
  Alcotest.(check (float 1e-9)) "best at max" 10.0 sx.Sensitivity.best_value;
  Alcotest.(check (float 1e-9)) "worst at min" 0.0 sx.Sensitivity.worst_value

let test_ranked_and_top_n () =
  let r = Sensitivity.analyze linear in
  let ranked = Sensitivity.ranked r in
  Alcotest.(check string) "x first" "x" ranked.(0).Sensitivity.name;
  Alcotest.(check string) "z last" "z" ranked.(2).Sensitivity.name;
  Alcotest.(check (list int)) "top 1" [ 0 ] (Sensitivity.top_n r 1);
  Alcotest.(check (list int)) "top 2 ascending" [ 0; 1 ] (Sensitivity.top_n r 2);
  Alcotest.(check (list int)) "clamped" [ 0; 1; 2 ] (Sensitivity.top_n r 99)

let test_evaluation_count () =
  let count = ref 0 in
  let counted = { linear with Objective.eval = (fun c -> incr count; linear.Objective.eval c) } in
  let r = Sensitivity.analyze counted in
  (* 3 parameters, 11 grid values each. *)
  Alcotest.(check int) "33 evals" 33 !count;
  Alcotest.(check int) "report agrees" 33 (Sensitivity.evaluations r)

let test_max_points_subsamples () =
  let count = ref 0 in
  let counted = { linear with Objective.eval = (fun c -> incr count; linear.Objective.eval c) } in
  let r = Sensitivity.analyze ~max_points:5 counted in
  Alcotest.(check int) "15 evals" 15 !count;
  (* Endpoints always included, so the linear sensitivities are exact. *)
  Alcotest.(check (float 1e-9)) "x unchanged" 100.0
    r.Sensitivity.scores.(0).Sensitivity.sensitivity

let test_repeats_average_noise () =
  let rng = Rng.create 5 in
  let noisy = Objective.with_noise rng ~level:0.25 linear in
  let r1 = Sensitivity.analyze noisy in
  let r3 = Sensitivity.analyze ~repeats:5 noisy in
  (* The flat parameter z picks up spurious sensitivity from noise;
     averaging repeats damps it. *)
  let z r = r.Sensitivity.scores.(2).Sensitivity.sensitivity in
  Alcotest.(check bool) "repeats reduce the noise floor" true (z r3 < z r1);
  Alcotest.(check int) "evaluations counted with repeats" (3 * 11 * 5)
    (Sensitivity.evaluations r3)

let test_normalization_comparable () =
  (* Same physical effect across different ranges gives the same
     sensitivity: wide parameters get no excessive weight. *)
  let wide_space =
    Space.create
      [
        Param.int_range ~name:"a" ~lo:0 ~hi:10 ~default:0 ();
        Param.int_range ~name:"b" ~lo:0 ~hi:1000 ~step:100 ~default:0 ();
      ]
  in
  let obj =
    Objective.create ~space:wide_space ~direction:Objective.Higher_is_better
      (fun c -> c.(0) +. (c.(1) /. 100.0))
  in
  let r = Sensitivity.analyze obj in
  Alcotest.(check (float 1e-9))
    "normalized equal"
    r.Sensitivity.scores.(0).Sensitivity.sensitivity
    r.Sensitivity.scores.(1).Sensitivity.sensitivity

let test_invalid_args () =
  Alcotest.check_raises "max_points" (Invalid_argument "Sensitivity.analyze: max_points < 2")
    (fun () -> ignore (Sensitivity.analyze ~max_points:1 linear));
  Alcotest.check_raises "repeats" (Invalid_argument "Sensitivity.analyze: repeats < 1")
    (fun () -> ignore (Sensitivity.analyze ~repeats:0 linear))

(* The values a sweep of x probes: every grid point when max_points
   covers them, otherwise evenly spaced ones with both endpoints. *)
let test_subsample () =
  let probed max_points =
    let xs = ref [] in
    let recorded =
      {
        linear with
        Objective.eval =
          (fun c ->
            if Float.equal c.(1) 5.0 && Float.equal c.(2) 5.0 then
              xs := c.(0) :: !xs;
            linear.Objective.eval c);
      }
    in
    ignore (Sensitivity.analyze ~max_points recorded : Sensitivity.report);
    List.sort_uniq Float.compare !xs
  in
  Alcotest.(check (list (float 0.0))) "all when max_points >= n"
    (List.init 11 float_of_int) (probed 16);
  Alcotest.(check (list (float 0.0))) "endpoints included" [ 0.0; 5.0; 10.0 ]
    (probed 3)

let test_pool_matches_sequential () =
  let sequential = Sensitivity.analyze linear in
  let parallel =
    Harmony_parallel.Pool.with_pool ~domains:4 (fun pool ->
        Sensitivity.analyze ~pool linear)
  in
  Array.iteri
    (fun i s ->
      let p = parallel.Sensitivity.scores.(i) in
      Alcotest.(check string) "name" s.Sensitivity.name p.Sensitivity.name;
      Alcotest.(check (float 0.0)) "sensitivity identical"
        s.Sensitivity.sensitivity p.Sensitivity.sensitivity;
      Alcotest.(check (float 0.0)) "best identical"
        s.Sensitivity.best_value p.Sensitivity.best_value)
    sequential.Sensitivity.scores

let test_pool_noisy_stays_sequential () =
  (* A noisy objective draws from one shared stream: analyze must
     ignore the pool and reproduce the sequential draw order. *)
  let noisy () = Objective.with_noise (Rng.create 11) ~level:0.25 linear in
  let sequential = Sensitivity.analyze (noisy ()) in
  let parallel =
    Harmony_parallel.Pool.with_pool ~domains:4 (fun pool ->
        Sensitivity.analyze ~pool (noisy ()))
  in
  Array.iteri
    (fun i s ->
      Alcotest.(check (float 0.0)) "same draws"
        s.Sensitivity.sensitivity
        parallel.Sensitivity.scores.(i).Sensitivity.sensitivity)
    sequential.Sensitivity.scores

let test_datagen_irrelevant_zero () =
  (* End-to-end: the paper's Section 5.2 check — the tool gives the
     generated irrelevant parameters exactly zero sensitivity. *)
  let g = Harmony_datagen.Generator.synthetic_webservice () in
  let obj =
    Harmony_datagen.Generator.objective g
      ~workload:Harmony_datagen.Generator.shopping_mix
  in
  let r = Sensitivity.analyze obj in
  List.iter
    (fun i ->
      Alcotest.(check (float 1e-9))
        "irrelevant scores zero" 0.0
        r.Sensitivity.scores.(i).Sensitivity.sensitivity)
    (Harmony_datagen.Generator.irrelevant g);
  (* And every generated-relevant parameter scores above zero. *)
  Array.iteri
    (fun i s ->
      if not (List.mem i (Harmony_datagen.Generator.irrelevant g)) then
        Alcotest.(check bool) "relevant above zero" true
          (s.Sensitivity.sensitivity > 0.0))
    r.Sensitivity.scores

let suite =
  [
    Alcotest.test_case "linear scores" `Quick test_scores_linear;
    Alcotest.test_case "best worst values" `Quick test_best_worst_values;
    Alcotest.test_case "ranked and top_n" `Quick test_ranked_and_top_n;
    Alcotest.test_case "evaluation count" `Quick test_evaluation_count;
    Alcotest.test_case "max_points subsamples" `Quick test_max_points_subsamples;
    Alcotest.test_case "repeats average noise" `Quick test_repeats_average_noise;
    Alcotest.test_case "normalization comparable" `Quick test_normalization_comparable;
    Alcotest.test_case "invalid args" `Quick test_invalid_args;
    Alcotest.test_case "subsample" `Quick test_subsample;
    Alcotest.test_case "pool matches sequential" `Quick test_pool_matches_sequential;
    Alcotest.test_case "pool noisy stays sequential" `Quick test_pool_noisy_stays_sequential;
    Alcotest.test_case "datagen irrelevant zero" `Quick test_datagen_irrelevant_zero;
  ]

open Harmony
open Harmony_webservice
module Rng = Harmony_numerics.Rng

type row = {
  workload : string;
  with_history : bool;
  convergence_time : int;
  initial_mean : float;
  initial_stddev : float;
  bad_iterations : int;
  performance : float;
}

type result = {
  rows : row list;
  convergence_reduction : (string * float) list;
}

let row_of_outcome obj ~workload ~with_history ~reference outcome =
  let m = Tuner.Metrics.of_outcome ~convergence_fraction:0.02 ~reference obj outcome in
  {
    workload;
    with_history;
    convergence_time = m.Tuner.Metrics.convergence_iteration;
    initial_mean = m.Tuner.Metrics.initial_mean;
    initial_stddev = m.Tuner.Metrics.initial_stddev;
    bad_iterations = m.Tuner.Metrics.bad_iterations;
    performance = m.Tuner.Metrics.performance;
  }

let run ?(max_evaluations = 150) ?(seed = 11) () =
  let options = { Tuner.default_options with Tuner.max_evaluations } in
  (* Live measurements vary run to run; a 3% uniform perturbation
     keeps the warm start from being trivially optimal. *)
  let noisy mix noise_seed =
    Harmony_objective.Objective.with_noise (Rng.create noise_seed) ~level:0.03
      (Model.objective ~mix ())
  in
  let pair ~served ~trained_on =
    let obj = noisy served (seed + 100) in
    let label = served.Tpcw.label in
    (* Without prior histories: cold start. *)
    let cold = Tuner.tune ~options obj in
    (* With prior histories: train on experience recorded under the
       other workload, characterized by its observed web-interaction
       frequencies. *)
    let trainer_obj = noisy trained_on (seed + 200) in
    let experience = Tuner.tune ~options trainer_obj in
    let db = History.create () in
    let train_chars =
      Tpcw.observed_frequencies (Rng.create seed) trained_on ~samples:500
    in
    ignore
      (History.add_outcome db ~label:trained_on.Tpcw.label
         ~characteristics:train_chars experience);
    let analyzer = Analyzer.create db in
    let observed =
      Tpcw.observed_frequencies (Rng.create (seed + 1)) served ~samples:500
    in
    let warm, _prep =
      Analyzer.tune_with_experience ~options analyzer obj ~characteristics:observed
    in
    (* Judge both runs against the same target: the worse of the two
       final results, so "convergence" means reaching a common
       performance level. *)
    let reference =
      Harmony_objective.Objective.worst_of obj
        [| cold.Tuner.best_performance; warm.Tuner.best_performance |]
    in
    [
      row_of_outcome obj ~workload:label ~with_history:false ~reference cold;
      row_of_outcome obj ~workload:label ~with_history:true ~reference warm;
    ]
  in
  let rows =
    pair ~served:Tpcw.shopping ~trained_on:Tpcw.browsing
    @ pair ~served:Tpcw.ordering ~trained_on:Tpcw.shopping
  in
  let reduction label =
    let find h =
      match
        List.find_opt (fun r -> r.workload = label && r.with_history = h) rows
      with
      | Some r -> r
      | None -> invalid_arg ("Table2: missing row for " ^ label)
    in
    let cold = find false and warm = find true in
    ( label,
      1.0
      -. float_of_int warm.convergence_time
         /. float_of_int (Int.max 1 cold.convergence_time)
    )
  in
  { rows; convergence_reduction = [ reduction "shopping"; reduction "ordering" ] }

let table ?max_evaluations ?seed () =
  let r = run ?max_evaluations ?seed () in
  let rows =
    List.map
      (fun row ->
        [
          row.workload;
          (if row.with_history then "with histories" else "without histories");
          string_of_int row.convergence_time;
          Printf.sprintf "%.2f (%.2f)" row.initial_mean row.initial_stddev;
          string_of_int row.bad_iterations;
          Report.f1 row.performance;
        ])
      r.rows
  in
  let notes =
    List.map
      (fun (label, red) ->
        Printf.sprintf "%s: convergence time reduced by %s" label (Report.pct red))
      r.convergence_reduction
    @ [
        "paper: 56% (shopping) / 17% (ordering) faster convergence;";
        "paper: bad iterations 9 -> 1 (shopping), 11 -> 3 (ordering)";
      ]
  in
  Report.make ~id:"table2" ~title:"Tuning with and without prior histories (Table 2)"
    ~columns:
      [
        "workload"; "variant"; "convergence (iters)"; "initial avg (stddev)";
        "bad iters"; "WIPS";
      ]
    ~notes rows

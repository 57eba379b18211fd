open Harmony
open Harmony_webservice
module Rng = Harmony_numerics.Rng

type row = {
  workload : string;
  original_unstable : int;
  improved_unstable : int;
  reduction : float;
  original_bad : int;
  improved_bad : int;
}

type result = { rows : row list }

let run ?(max_evaluations = 150) ?(seed = 23) () =
  let rows =
    List.map
      (fun (served, trained_on) ->
        let noisy mix noise_seed =
          Harmony_objective.Objective.with_noise (Rng.create noise_seed)
            ~level:0.03
            (Model.objective ~mix ())
        in
        let obj = noisy served (seed + 100) in
        (* Original system: extreme initial exploration, no history. *)
        let original =
          Tuner.tune
            ~options:{ Tuner.original_options with Tuner.max_evaluations }
            obj
        in
        (* Fully improved: spread refinement + prior-run experience. *)
        let trainer = noisy trained_on (seed + 200) in
        let experience =
          Tuner.tune ~options:{ Tuner.default_options with Tuner.max_evaluations } trainer
        in
        let db = History.create () in
        let chars =
          Tpcw.observed_frequencies (Rng.create seed) trained_on ~samples:500
        in
        ignore
          (History.add_outcome db ~label:trained_on.Tpcw.label ~characteristics:chars
             experience);
        let analyzer = Analyzer.create db in
        let observed =
          Tpcw.observed_frequencies (Rng.create (seed + 1)) served ~samples:500
        in
        let improved, _ =
          Analyzer.tune_with_experience
            ~options:{ Tuner.default_options with Tuner.max_evaluations }
            analyzer obj ~characteristics:observed
        in
        let reference =
          Harmony_objective.Objective.worst_of obj
            [| original.Tuner.best_performance; improved.Tuner.best_performance |]
        in
        let mo = Tuner.Metrics.of_outcome ~convergence_fraction:0.02 ~reference obj original in
        let mi = Tuner.Metrics.of_outcome ~convergence_fraction:0.02 ~reference obj improved in
        let ou = mo.Tuner.Metrics.convergence_iteration in
        let iu = mi.Tuner.Metrics.convergence_iteration in
        {
          workload = served.Tpcw.label;
          original_unstable = ou;
          improved_unstable = iu;
          reduction = 1.0 -. (float_of_int iu /. float_of_int (Int.max 1 ou));
          original_bad = mo.Tuner.Metrics.bad_iterations;
          improved_bad = mi.Tuner.Metrics.bad_iterations;
        })
      [ (Tpcw.shopping, Tpcw.browsing); (Tpcw.ordering, Tpcw.shopping) ]
  in
  { rows }

let table ?max_evaluations ?seed () =
  let r = run ?max_evaluations ?seed () in
  let rows =
    List.map
      (fun row ->
        [
          row.workload;
          string_of_int row.original_unstable;
          string_of_int row.improved_unstable;
          Report.pct row.reduction;
          string_of_int row.original_bad;
          string_of_int row.improved_bad;
        ])
      r.rows
  in
  Report.make ~id:"headline"
    ~title:"Headline: reduction of the initial unstable tuning stage"
    ~columns:
      [
        "workload"; "unstable iters (original)"; "unstable iters (improved)";
        "reduction"; "bad iters (original)"; "bad iters (improved)";
      ]
    ~notes:[ "paper: 35% up to 50% reduction, with a smoother tuning process" ]
    rows

open Harmony
open Harmony_webservice

type row = {
  workload : string;
  variant : string;
  performance : float;
  convergence_time : int;
  worst_performance : float;
}

type result = {
  rows : row list;
  convergence_reduction : (string * float) list;
}

let run ?(max_evaluations = 150) () =
  let rows =
    List.concat_map
      (fun mix ->
        let obj = Model.objective ~mix () in
        let label = mix.Tpcw.label in
        let original =
          Tuner.tune ~options:{ Tuner.original_options with Tuner.max_evaluations } obj
        in
        let improved =
          Tuner.tune ~options:{ Tuner.default_options with Tuner.max_evaluations } obj
        in
        let row variant outcome =
          let m = Tuner.Metrics.of_outcome ~convergence_fraction:0.02 obj outcome in
          {
            workload = label;
            variant;
            performance = m.Tuner.Metrics.performance;
            convergence_time = m.Tuner.Metrics.convergence_iteration;
            worst_performance = m.Tuner.Metrics.worst_performance;
          }
        in
        [ row "original" original; row "improved" improved ])
      [ Tpcw.shopping; Tpcw.ordering ]
  in
  let reduction label =
    let find variant =
      match
        List.find_opt (fun r -> r.workload = label && r.variant = variant) rows
      with
      | Some r -> r
      | None -> invalid_arg ("Table1: missing row " ^ label ^ "/" ^ variant)
    in
    let orig = find "original" and impr = find "improved" in
    ( label,
      1.0
      -. float_of_int impr.convergence_time
         /. float_of_int (Int.max 1 orig.convergence_time)
    )
  in
  { rows; convergence_reduction = [ reduction "shopping"; reduction "ordering" ] }

let table ?max_evaluations () =
  let r = run ?max_evaluations () in
  let rows =
    List.map
      (fun row ->
        [
          row.workload;
          row.variant;
          Report.f1 row.performance;
          string_of_int row.convergence_time;
          Report.f1 row.worst_performance;
        ])
      r.rows
  in
  let notes =
    List.map
      (fun (label, red) ->
        Printf.sprintf "%s: convergence time reduced by %s" label (Report.pct red))
      r.convergence_reduction
    @ [ "paper: ~35% convergence-time reduction with similar tuned WIPS" ]
  in
  Report.make ~id:"table1" ~title:"Improved search refinement (Table 1)"
    ~columns:
      [ "workload"; "variant"; "WIPS"; "convergence (iters)"; "worst WIPS" ]
    ~notes rows

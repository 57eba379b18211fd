open Harmony
open Harmony_webservice

type result = {
  names : string array;
  shopping : float array;
  ordering : float array;
}

let sensitivities mix =
  let obj = Model.objective ~mix () in
  let report = Sensitivity.analyze obj in
  Array.map (fun s -> s.Sensitivity.sensitivity) report.Sensitivity.scores

let run () =
  {
    names = Wsconfig.param_names;
    shopping = sensitivities Tpcw.shopping;
    ordering = sensitivities Tpcw.ordering;
  }

let table () =
  let r = run () in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i name ->
           [ name; Report.f2 r.shopping.(i); Report.f2 r.ordering.(i) ])
         r.names)
  in
  Report.make ~id:"fig8"
    ~title:"Parameter sensitivity in the cluster-based web service"
    ~columns:[ "parameter"; "shopping"; "ordering" ]
    ~notes:
      [
        "paper: MySQL net buffer matters more under ordering; proxy cache memory under shopping";
        "paper: HTTP buffer and accept counts are relatively unimportant for both";
      ]
    rows

(* Integration tests: every experiment runs, emits a well-formed table,
   and reproduces the paper's qualitative claims. *)
open Harmony_experiments

let test_report_make_validates () =
  Alcotest.check_raises "ragged" (Invalid_argument "Report.make: ragged row in x")
    (fun () ->
      ignore (Report.make ~id:"x" ~title:"t" ~columns:[ "a"; "b" ] [ [ "1" ] ]))

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_report_rendering () =
  let t =
    Report.make ~id:"demo" ~title:"Demo" ~columns:[ "name"; "value" ]
      ~notes:[ "a note" ]
      [ [ "alpha"; "1" ]; [ "beta"; "22" ] ]
  in
  let s = Format.asprintf "%a" Report.print t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains s needle))
    [ "demo"; "Demo"; "alpha"; "22"; "note: a note" ]

let test_registry_complete () =
  Alcotest.(check (list string))
    "all paper artifacts present"
    [ "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "table1"; "table2";
      "fig10"; "restriction"; "headline" ]
    Registry.ids

let test_registry_find () =
  Alcotest.(check bool) "known id" true (Registry.find "fig5" <> None);
  Alcotest.(check bool) "unknown id" true (Registry.find "fig99" = None)

let check_table (t : Report.table) =
  Alcotest.(check bool) (t.Report.id ^ " has rows") true (t.Report.rows <> []);
  List.iter
    (fun row ->
      Alcotest.(check int)
        (t.Report.id ^ " row width")
        (List.length t.Report.columns) (List.length row))
    t.Report.rows;
  Alcotest.(check bool)
    (t.Report.id ^ " renders")
    true
    (String.length (Format.asprintf "%a" Report.print t) > 0)

let test_fig4_distributions () =
  let r = Fig4.run ~samples:2000 () in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  Alcotest.(check (float 1e-6)) "web fractions sum to 1" 1.0 (sum r.Fig4.webservice_fraction);
  Alcotest.(check (float 1e-6)) "synthetic fractions sum to 1" 1.0 (sum r.Fig4.synthetic_fraction);
  Alcotest.(check int) "ten buckets" 10 (Array.length r.Fig4.buckets)

let test_fig5_identifies_irrelevant () =
  let r = Fig5.run () in
  (* At 0% perturbation, H and M score exactly zero and everything
     else is positive. *)
  let noiseless = r.Fig5.sensitivities.(0) in
  Array.iteri
    (fun p name ->
      if List.mem name r.Fig5.irrelevant then
        Alcotest.(check (float 1e-9)) (name ^ " zero") 0.0 noiseless.(p)
      else
        Alcotest.(check bool) (name ^ " positive") true (noiseless.(p) > 0.0))
    r.Fig5.names

let test_fig6_tradeoff () =
  let r = Fig6.run ~ns:[ 1; 5; 15 ] ~perturbations:[ 0.0 ] () in
  let cell n = List.find (fun c -> c.Fig6.n = n) r.Fig6.cells in
  (* Fewer parameters tune faster... *)
  Alcotest.(check bool) "n=1 faster than n=15" true
    ((cell 1).Fig6.tuning_time < (cell 15).Fig6.tuning_time);
  (* ...at modest performance cost (the paper quotes <8%). *)
  let loss = 1.0 -. ((cell 5).Fig6.performance /. (cell 15).Fig6.performance) in
  Alcotest.(check bool) "n=5 within 15% of full tuning" true (loss < 0.15)

let test_fig7_distance_trend () =
  let r = Fig7.run ~distances:[ 0.0; 0.5 ] () in
  match r.Fig7.points with
  | [ near; far ] ->
      Alcotest.(check bool) "near experience converges faster" true
        (near.Fig7.tuning_time <= far.Fig7.tuning_time);
      Alcotest.(check bool) "both beat cold start" true
        (far.Fig7.tuning_time <= r.Fig7.cold_time)
  | _ -> Alcotest.fail "expected two points"

let test_fig8_workload_contrast () =
  let r = Fig8.run () in
  let idx name =
    let rec find i = if r.Fig8.names.(i) = name then i else find (i + 1) in
    find 0
  in
  (* The paper's two headline contrasts. *)
  Alcotest.(check bool) "MySQL net buffer matters more under ordering" true
    (r.Fig8.ordering.(idx "MYSQLNetBuffer") > r.Fig8.shopping.(idx "MYSQLNetBuffer"));
  Alcotest.(check bool) "proxy cache matters more under shopping" true
    (r.Fig8.shopping.(idx "PROXYCacheMem") > r.Fig8.ordering.(idx "PROXYCacheMem"));
  (* Accept counts are relatively unimportant for both. *)
  let max_s = Array.fold_left Float.max 0.0 r.Fig8.shopping in
  Alcotest.(check bool) "HTTP accept count minor" true
    (r.Fig8.shopping.(idx "HTTPAcceptCount") < 0.05 *. max_s)

let test_fig9_savings () =
  let r = Fig9.run ~ns:[ 3; 10 ] () in
  let cell workload n =
    List.find (fun c -> c.Fig9.workload = workload && c.Fig9.n = n) r.Fig9.cells
  in
  List.iter
    (fun w ->
      let small = cell w 3 and full = cell w 10 in
      Alcotest.(check bool) (w ^ ": top-3 tunes faster") true
        (small.Fig9.tuning_time < full.Fig9.tuning_time);
      Alcotest.(check bool) (w ^ ": within 10% WIPS") true
        (small.Fig9.wips > 0.9 *. full.Fig9.wips))
    [ "shopping"; "ordering" ]

let test_table1_improvement () =
  let r = Table1.run () in
  List.iter
    (fun (workload, reduction) ->
      Alcotest.(check bool)
        (workload ^ ": improved init converges faster")
        true (reduction > 0.0))
    r.Table1.convergence_reduction;
  (* Tuned performance stays comparable (within 15%). *)
  List.iter
    (fun w ->
      let find v = List.find (fun row -> row.Table1.workload = w && row.Table1.variant = v) r.Table1.rows in
      let o = find "original" and i = find "improved" in
      Alcotest.(check bool) (w ^ ": similar WIPS") true
        (i.Table1.performance > 0.85 *. o.Table1.performance))
    [ "shopping"; "ordering" ]

let test_table2_history_helps () =
  let r = Table2.run () in
  List.iter
    (fun w ->
      let find h =
        List.find (fun row -> row.Table2.workload = w && row.Table2.with_history = h) r.Table2.rows
      in
      let cold = find false and warm = find true in
      Alcotest.(check bool) (w ^ ": fewer bad iterations with history") true
        (warm.Table2.bad_iterations < cold.Table2.bad_iterations);
      Alcotest.(check bool) (w ^ ": smoother with history") true
        (warm.Table2.initial_stddev <= cold.Table2.initial_stddev);
      Alcotest.(check bool) (w ^ ": no slower convergence") true
        (warm.Table2.convergence_time <= cold.Table2.convergence_time))
    [ "shopping"; "ordering" ]

let test_fig10_reductions () =
  let r = Fig10.run () in
  (* A = 10 processes: 36 of 100 configurations survive. *)
  (match r.Fig10.scenarios with
  | connectors :: partition :: _ ->
      Alcotest.(check int) "connectors restricted" 36 connectors.Fig10.restricted;
      Alcotest.(check int) "connectors unrestricted" 100 connectors.Fig10.unrestricted;
      (* 20 rows in 4 blocks: C(19,3) = 969 compositions. *)
      Alcotest.(check int) "partition restricted" 969 partition.Fig10.restricted
  | _ -> Alcotest.fail "expected two scenarios");
  List.iter
    (fun s -> Alcotest.(check bool) "reduction positive" true (s.Fig10.reduction > 0.0))
    r.Fig10.scenarios

let test_restriction_speedup () =
  let r = Restriction.run () in
  match r.Restriction.rows with
  | [ restricted; unrestricted ] ->
      Alcotest.(check bool) "restricted space is smaller" true
        (restricted.Restriction.feasible_space < unrestricted.Restriction.feasible_space);
      Alcotest.(check bool) "restricted wastes nothing" true
        (restricted.Restriction.wasted_infeasible = 0);
      Alcotest.(check bool) "unrestricted wastes evaluations" true
        (unrestricted.Restriction.wasted_infeasible > 0);
      (* Both find near-optimal allocations; restricted within 10% of
         the exhaustive optimum. *)
      Alcotest.(check bool) "restricted near optimum" true
        (restricted.Restriction.best_time <= 1.10 *. r.Restriction.optimum)
  | _ -> Alcotest.fail "expected two variants"

let test_headline_band () =
  let r = Headline.run () in
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (row.Headline.workload ^ ": unstable stage reduced")
        true (row.Headline.reduction > 0.0);
      Alcotest.(check bool)
        (row.Headline.workload ^ ": fewer bad iterations")
        true
        (row.Headline.improved_bad < row.Headline.original_bad))
    r.Headline.rows

let test_all_tables_render () =
  List.iter
    (fun id ->
      match Registry.find id with
      | Some f -> check_table (f None)
      | None -> Alcotest.fail ("no runner for " ^ id))
    Registry.ids

let suite =
  [
    Alcotest.test_case "report validates" `Quick test_report_make_validates;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "registry find" `Quick test_registry_find;
    Alcotest.test_case "fig4 distributions" `Quick test_fig4_distributions;
    Alcotest.test_case "fig5 identifies irrelevant" `Quick test_fig5_identifies_irrelevant;
    Alcotest.test_case "fig6 tradeoff" `Quick test_fig6_tradeoff;
    Alcotest.test_case "fig7 distance trend" `Quick test_fig7_distance_trend;
    Alcotest.test_case "fig8 workload contrast" `Quick test_fig8_workload_contrast;
    Alcotest.test_case "fig9 savings" `Slow test_fig9_savings;
    Alcotest.test_case "table1 improvement" `Quick test_table1_improvement;
    Alcotest.test_case "table2 history helps" `Quick test_table2_history_helps;
    Alcotest.test_case "fig10 reductions" `Quick test_fig10_reductions;
    Alcotest.test_case "restriction speedup" `Quick test_restriction_speedup;
    Alcotest.test_case "headline band" `Quick test_headline_band;
    Alcotest.test_case "all tables render" `Slow test_all_tables_render;
  ]

open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space

let space = Space.create [ Param.int_range ~name:"x" ~lo:0 ~hi:10 ~default:0 () ]
let obj = Objective.create ~space ~direction:Objective.Higher_is_better (fun c -> c.(0))

let test_records_in_order () =
  let r, wrapped = Recorder.wrap obj in
  ignore (wrapped.Objective.eval [| 1.0 |]);
  ignore (wrapped.Objective.eval [| 3.0 |]);
  ignore (wrapped.Objective.eval [| 2.0 |]);
  Alcotest.(check int) "count" 3 (Recorder.count r);
  Alcotest.(check (array (float 1e-12)))
    "order preserved" [| 1.0; 3.0; 2.0 |]
    (Array.of_list
       (List.map (fun e -> e.Recorder.performance) (Recorder.entries r)));
  let indices = List.map (fun e -> e.Recorder.index) (Recorder.entries r) in
  Alcotest.(check (list int)) "indices" [ 0; 1; 2 ] indices

let test_passthrough_value () =
  let _, wrapped = Recorder.wrap obj in
  Alcotest.(check (float 1e-12)) "same value" 7.0 (wrapped.Objective.eval [| 7.0 |])

let test_config_copied () =
  let r, wrapped = Recorder.wrap obj in
  let c = [| 5.0 |] in
  ignore (wrapped.Objective.eval c);
  c.(0) <- 9.0;
  let e = List.hd (Recorder.entries r) in
  Alcotest.(check (float 1e-12)) "copied at record time" 5.0 e.Recorder.config.(0)

let test_best () =
  let r, wrapped = Recorder.wrap obj in
  Alcotest.(check bool) "empty" true (Recorder.best obj r = None);
  ignore (wrapped.Objective.eval [| 1.0 |]);
  ignore (wrapped.Objective.eval [| 8.0 |]);
  ignore (wrapped.Objective.eval [| 8.0 |]);
  ignore (wrapped.Objective.eval [| 4.0 |]);
  match Recorder.best obj r with
  | None -> Alcotest.fail "expected a best entry"
  | Some e ->
      Alcotest.(check (float 1e-12)) "best perf" 8.0 e.Recorder.performance;
      (* Tie broken towards the earliest. *)
      Alcotest.(check int) "earliest" 1 e.Recorder.index

let test_lookup () =
  let r, wrapped = Recorder.wrap obj in
  ignore (wrapped.Objective.eval [| 2.0 |]);
  Alcotest.(check (option (float 1e-12))) "hit" (Some 2.0) (Recorder.lookup r [| 2.0 |]);
  Alcotest.(check (option (float 1e-12))) "miss" None (Recorder.lookup r [| 3.0 |])

let test_clear () =
  let r, wrapped = Recorder.wrap obj in
  ignore (wrapped.Objective.eval [| 2.0 |]);
  Recorder.clear r;
  Alcotest.(check int) "cleared" 0 (Recorder.count r);
  Alcotest.(check bool) "no entries" true (Recorder.entries r = [])

let suite =
  [
    Alcotest.test_case "records in order" `Quick test_records_in_order;
    Alcotest.test_case "passthrough value" `Quick test_passthrough_value;
    Alcotest.test_case "config copied" `Quick test_config_copied;
    Alcotest.test_case "best" `Quick test_best;
    Alcotest.test_case "lookup" `Quick test_lookup;
    Alcotest.test_case "clear" `Quick test_clear;
  ]

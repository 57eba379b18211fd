open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space

let space =
  Space.create
    (List.init 2 (fun i ->
         Param.int_range ~name:(Printf.sprintf "p%d" i) ~lo:0 ~hi:100 ~default:10 ()))

let peak c =
  let d2 = ref 0.0 in
  Array.iteri
    (fun i v ->
      let d = (v -. if i = 0 then 60.0 else 40.0) /. 100.0 in
      d2 := !d2 +. (d *. d))
    c;
  100.0 *. exp (-4.0 *. !d2)

let drive ?(budget = 200) () =
  let options = { Simplex.default_options with Simplex.max_evaluations = budget } in
  let c = Controller.create ~options ~space ~direction:Objective.Higher_is_better () in
  let rec loop () =
    match Controller.pending c with
    | `Measure config ->
        Controller.report c (peak config);
        loop ()
    | `Done outcome -> (c, outcome)
  in
  loop ()

let test_online_equals_batch () =
  (* The controller is the same kernel inverted: identical search. *)
  let options = { Simplex.default_options with Simplex.max_evaluations = 200 } in
  let obj = Objective.create ~space ~direction:Objective.Higher_is_better peak in
  let batch = Simplex.optimize ~options obj in
  let _, online = drive () in
  Alcotest.(check (float 1e-9))
    "same best performance" batch.Simplex.best_performance
    online.Simplex.best_performance;
  Alcotest.(check (array (float 1e-9)))
    "same best configuration" batch.Simplex.best_config online.Simplex.best_config;
  Alcotest.(check int) "same evaluation count" batch.Simplex.evaluations
    online.Simplex.evaluations

let test_measurement_count () =
  let c, outcome = drive () in
  Alcotest.(check int) "reports = kernel evaluations" outcome.Simplex.evaluations
    (Controller.measurements c)

let test_pending_idempotent () =
  let c = Controller.create ~space ~direction:Objective.Higher_is_better () in
  match (Controller.pending c, Controller.pending c) with
  | `Measure a, `Measure b ->
      Alcotest.(check (array (float 1e-9))) "same config until reported" a b
  | _ -> Alcotest.fail "expected a measurement request"

let test_pending_configs_valid () =
  let c = Controller.create ~space ~direction:Objective.Higher_is_better () in
  let steps = ref 0 in
  let rec loop () =
    match Controller.pending c with
    | `Measure config when !steps < 50 ->
        incr steps;
        Alcotest.(check bool) "on grid" true (Space.is_valid space config);
        Controller.report c (peak config);
        loop ()
    | `Measure _ | `Done _ -> ()
  in
  loop ()

(* Drive a session whose readings are [first] for its first reports
   and [rest] for every later one; the outcome and the configurations
   the first reports measured. *)
let scripted ~direction first rest =
  let options = { Simplex.default_options with Simplex.max_evaluations = 40 } in
  let c = Controller.create ~options ~space ~direction () in
  let measured = ref [] in
  let rec loop readings =
    match Controller.pending c with
    | `Measure config -> (
        match readings with
        | v :: later ->
            measured := config :: !measured;
            Controller.report c v;
            loop later
        | [] ->
            Controller.report c rest;
            loop [])
    | `Done outcome -> outcome
  in
  let outcome = loop first in
  (outcome, List.rev !measured)

let test_best_so_far_tracks () =
  (* The second reading is worse than the first and every later one
     worse still: the first configuration measured is the answer. *)
  let outcome, measured =
    scripted ~direction:Objective.Higher_is_better [ 10.0; 5.0 ] 0.0
  in
  Alcotest.(check (float 1e-12)) "keeps the higher" 10.0
    outcome.Simplex.best_performance;
  Alcotest.(check (array (float 0.0))) "its configuration" (List.hd measured)
    outcome.Simplex.best_config

let test_best_so_far_lower_is_better () =
  let outcome, measured =
    scripted ~direction:Objective.Lower_is_better [ 10.0; 5.0 ] 100.0
  in
  Alcotest.(check (float 1e-12)) "keeps the lower" 5.0
    outcome.Simplex.best_performance;
  Alcotest.(check (array (float 0.0))) "its configuration" (List.nth measured 1)
    outcome.Simplex.best_config

let test_nan_never_best () =
  (* A NaN first reading pins nothing: the later 7 is the answer, and
     the NaN in between blocks no number after it. *)
  let outcome, measured =
    scripted ~direction:Objective.Higher_is_better
      [ Float.nan; 7.0; Float.nan; 3.0 ] Float.nan
  in
  Alcotest.(check (float 1e-12)) "the best number" 7.0
    outcome.Simplex.best_performance;
  Alcotest.(check (array (float 0.0))) "its configuration" (List.nth measured 1)
    outcome.Simplex.best_config

let test_batch_view_equals_reports () =
  (* Telling whole batches is reporting each reading in turn. *)
  let options = { Simplex.default_options with Simplex.max_evaluations = 60 } in
  let by_batch =
    Controller.create ~options ~space ~direction:Objective.Higher_is_better ()
  in
  let rec run () =
    match Controller.outcome by_batch with
    | Some outcome -> outcome
    | None ->
        Controller.tell by_batch (Array.map peak (Controller.asked by_batch));
        run ()
  in
  let batch = run () in
  let c, online = drive ~budget:60 () in
  Alcotest.(check (array (float 0.0))) "same best configuration"
    online.Simplex.best_config batch.Simplex.best_config;
  Alcotest.(check (float 0.0)) "same best performance"
    online.Simplex.best_performance batch.Simplex.best_performance;
  Alcotest.(check int) "same measurements" (Controller.measurements c)
    (Controller.measurements by_batch);
  Alcotest.check_raises "nothing left to tell"
    (Invalid_argument "Controller.tell: one reading per asked configuration")
    (fun () -> Controller.tell by_batch [||])

let test_report_after_done_rejected () =
  let c, _ = drive ~budget:20 () in
  Alcotest.check_raises "finished"
    (Invalid_argument "Controller.report: search already finished") (fun () ->
      Controller.report c 1.0)

let test_trusted_seed_init () =
  (* A fully-trusted initial simplex: the first request is already a
     transformation proposal. *)
  let seeds =
    [
      ([| 10.0; 10.0 |], Some 50.0);
      ([| 30.0; 10.0 |], Some 60.0);
      ([| 10.0; 30.0 |], Some 55.0);
    ]
  in
  let options =
    { Simplex.default_options with Simplex.init = Simplex.Init.Seeded seeds;
      max_evaluations = 30 }
  in
  let c = Controller.create ~options ~space ~direction:Objective.Higher_is_better () in
  match Controller.pending c with
  | `Measure config ->
      Alcotest.(check bool) "not one of the seeds" true
        (not (List.exists (fun (s, _) -> Space.config_equal s config) seeds))
  | `Done _ -> Alcotest.fail "should want a measurement"

let test_two_controllers_are_independent () =
  (* Two interleaved sessions must not share state (the effect-handler
     continuations are per instance). *)
  let a = Controller.create ~space ~direction:Objective.Higher_is_better () in
  let b = Controller.create ~space ~direction:Objective.Lower_is_better () in
  for step = 1 to 40 do
    (match Controller.pending a with
    | `Measure config -> Controller.report a (peak config)
    | `Done _ -> ());
    if step mod 2 = 0 then
      match Controller.pending b with
      | `Measure config -> Controller.report b (peak config)
      | `Done _ -> ()
  done;
  (* a maximizes, b minimizes the same function: their answers
     diverge. *)
  let rec finish c =
    match Controller.pending c with
    | `Measure config ->
        Controller.report c (peak config);
        finish c
    | `Done outcome -> outcome.Simplex.best_performance
  in
  let pa = finish a and pb = finish b in
  Alcotest.(check bool) "divergent answers" true (pa > pb)

let suite =
  [
    Alcotest.test_case "online equals batch" `Quick test_online_equals_batch;
    Alcotest.test_case "measurement count" `Quick test_measurement_count;
    Alcotest.test_case "pending idempotent" `Quick test_pending_idempotent;
    Alcotest.test_case "pending configs valid" `Quick test_pending_configs_valid;
    Alcotest.test_case "best so far" `Quick test_best_so_far_tracks;
    Alcotest.test_case "best so far (minimize)" `Quick test_best_so_far_lower_is_better;
    Alcotest.test_case "nan never best" `Quick test_nan_never_best;
    Alcotest.test_case "batch view equals reports" `Quick test_batch_view_equals_reports;
    Alcotest.test_case "report after done" `Quick test_report_after_done_rejected;
    Alcotest.test_case "trusted seed init" `Quick test_trusted_seed_init;
    Alcotest.test_case "two controllers independent" `Quick test_two_controllers_are_independent;
  ]

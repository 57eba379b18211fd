open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space
module Generator = Harmony_datagen.Generator
module Pool = Harmony_parallel.Pool

let space =
  Space.create [ Param.int_range ~name:"x" ~lo:0 ~hi:10 ~default:5 () ]

(* An objective whose fault schedule is an explicit per-configuration
   script: [schedule attempt] decides what physical attempt number
   [attempt] (0-based, per configuration) does. *)
let scripted ?(noisy = false) schedule =
  let attempts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let base =
    Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
        let key = Space.config_key c in
        let n = Option.value (Hashtbl.find_opt attempts key) ~default:0 in
        Hashtbl.replace attempts key (n + 1);
        schedule n c)
  in
  {
    base with
    Objective.randomness =
      (if noisy then Objective.Keyed else Objective.Deterministic);
  }

let transient_then n value =
  scripted (fun attempt _ ->
      if attempt < n then raise (Objective.Measurement_failed Objective.Transient)
      else value)

(* ------------------------------------------------------------------ *)
(* Retry / backoff on the simulated clock                              *)

let test_backoff_schedule () =
  let obj = transient_then 3 42.0 in
  let clock = Measure.Clock.create () in
  (match Measure.measure ~clock obj [| 5.0 |] with
  | Ok v -> Alcotest.(check (float 1e-9)) "value after retries" 42.0 v
  | Error _ -> Alcotest.fail "expected success after three transients");
  (* Backoff 10, 20, 40 before attempts 2..4: 70 simulated ms, no wall
     sleeps anywhere. *)
  Alcotest.(check (float 1e-9)) "simulated backoff" 70.0
    (Measure.Clock.now clock)

let test_backoff_cap () =
  let obj = transient_then 5 7.0 in
  let policy = { Measure.default_policy with Measure.max_attempts = 6 } in
  let clock = Measure.Clock.create () in
  (match Measure.measure ~policy ~clock obj [| 5.0 |] with
  | Ok v -> Alcotest.(check (float 1e-9)) "value" 7.0 v
  | Error _ -> Alcotest.fail "expected success");
  (* 10 + 20 + 40 + 80 (capped) + 80 (capped) *)
  Alcotest.(check (float 1e-9)) "capped schedule" 230.0
    (Measure.Clock.now clock)

let test_timeout_retried () =
  let obj =
    scripted (fun attempt _ -> if attempt = 0 then Float.nan else 9.0)
  in
  match Measure.measure obj [| 5.0 |] with
  | Ok v -> Alcotest.(check (float 1e-9)) "value after timeout" 9.0 v
  | Error _ -> Alcotest.fail "expected success after one timeout"

let test_persistent_gives_up_immediately () =
  let obj =
    scripted (fun _ _ -> raise (Objective.Measurement_failed Objective.Persistent))
  in
  match Measure.measure obj [| 5.0 |] with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
      Alcotest.(check int) "single attempt" 1 f.Measure.attempts;
      Alcotest.(check bool) "persistent" true
        (f.Measure.last_fault = Objective.Persistent)

let test_give_up_after_budget () =
  let obj =
    scripted (fun _ _ -> raise (Objective.Measurement_failed Objective.Transient))
  in
  match Measure.measure obj [| 5.0 |] with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
      Alcotest.(check int) "all attempts spent"
        Measure.default_policy.Measure.max_attempts f.Measure.attempts;
      Alcotest.(check bool) "transient" true
        (f.Measure.last_fault = Objective.Transient)

(* ------------------------------------------------------------------ *)
(* Median-of-k and MAD outlier rejection                               *)

let test_outlier_rejected () =
  (* Noisy objective: third reading corrupted by x8.  The median-of-3
     plus confirmation round must report the honest value. *)
  let obj = scripted ~noisy:true (fun attempt _ -> if attempt = 2 then 800.0 else 100.0) in
  match Measure.measure obj [| 5.0 |] with
  | Ok v -> Alcotest.(check (float 1e-9)) "honest median" 100.0 v
  | Error _ -> Alcotest.fail "expected success"

let test_outlier_majority_round_one () =
  (* Two of the first three readings corrupted: a single round's median
     would be fooled; the confirmation round votes the corruption out. *)
  let obj =
    scripted ~noisy:true (fun attempt _ ->
        if attempt = 1 || attempt = 2 then 800.0 else 100.0)
  in
  match Measure.measure obj [| 5.0 |] with
  | Ok v -> Alcotest.(check (float 1e-9)) "honest after confirmation" 100.0 v
  | Error _ -> Alcotest.fail "expected success"

let test_noisy_readings_survive_mad () =
  (* Honest measurement noise must not be rejected: readings within a
     few percent of each other pass the MAD filter and the median is
     reported. *)
  let readings = [| 99.0; 100.0; 101.0 |] in
  let obj = scripted ~noisy:true (fun attempt _ -> readings.(attempt mod 3)) in
  match Measure.measure obj [| 5.0 |] with
  | Ok v -> Alcotest.(check (float 1e-9)) "median of noisy" 100.0 v
  | Error _ -> Alcotest.fail "expected success"

(* ------------------------------------------------------------------ *)
(* The robust (total) objective                                        *)

let test_robust_penalty_and_summary () =
  let obj =
    scripted (fun _ _ -> raise (Objective.Measurement_failed Objective.Transient))
  in
  let robust, handle = Measure.robust obj in
  let v = robust.Objective.eval [| 5.0 |] in
  Alcotest.(check (float 1e-3)) "worst-case penalty"
    (Measure.penalty_for Objective.Higher_is_better)
    v;
  let s = Measure.summary handle in
  Alcotest.(check int) "one measurement" 1 s.Measure.measurements;
  Alcotest.(check int) "one give-up" 1 s.Measure.give_ups;
  Alcotest.(check int) "attempts" 4 s.Measure.attempts;
  Alcotest.(check int) "retries" 3 s.Measure.retries;
  Alcotest.(check int) "faults" 4 s.Measure.faults;
  Alcotest.(check (float 1e-9)) "backoff accounted" 70.0 s.Measure.backoff_ms

let test_robust_penalty_direction () =
  Alcotest.(check bool) "higher penalized low" true
    (Measure.penalty_for Objective.Higher_is_better < 0.0);
  Alcotest.(check bool) "lower penalized high" true
    (Measure.penalty_for Objective.Lower_is_better > 0.0)

(* The satellite fix: under retries, every physical re-measurement
   counts as a miss, and faults/retries surface in the stats record. *)
let test_stats_accounting_under_retries () =
  let base_count = ref 0 in
  let attempts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let faulty =
    Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
        let key = Space.config_key c in
        let n = Option.value (Hashtbl.find_opt attempts key) ~default:0 in
        Hashtbl.replace attempts key (n + 1);
        if n = 0 then raise (Objective.Measurement_failed Objective.Transient);
        incr base_count;
        c.(0))
  in
  let robust, _ = Measure.robust faulty in
  let cached = Objective.cached ~freeze_noise:true robust in
  Alcotest.(check (float 1e-9)) "first eval" 3.0 (cached.Objective.eval [| 3.0 |]);
  Alcotest.(check (float 1e-9)) "memo hit" 3.0 (cached.Objective.eval [| 3.0 |]);
  Alcotest.(check int) "base measured once" 1 !base_count;
  match Objective.stats cached with
  | None -> Alcotest.fail "expected stats"
  | Some s ->
      Alcotest.(check int) "hits" 1 s.Objective.hits;
      (* The one memo miss physically cost two measurements. *)
      Alcotest.(check int) "misses count physical attempts" 2 s.Objective.misses;
      Alcotest.(check int) "evals" 3 s.Objective.evals;
      Alcotest.(check int) "faults" 1 s.Objective.faults;
      Alcotest.(check int) "retries" 1 s.Objective.retries

let test_with_faults_deterministic_replay () =
  let make () =
    Objective.with_faults ~rates:(Objective.fault_profile 0.3) ~seed:17
      (Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
           c.(0)))
  in
  let trace obj =
    List.init 40 (fun i ->
        let c = [| float_of_int (i mod 11) |] in
        match obj.Objective.eval c with
        | v -> Printf.sprintf "%h" v
        | exception Objective.Measurement_failed k ->
            Objective.fault_to_string k)
  in
  Alcotest.(check (list string)) "same seed, same faults" (trace (make ()))
    (trace (make ()))

(* ------------------------------------------------------------------ *)
(* End-to-end: Session.tune under 20% transient faults                 *)

let tune_datagen ~faulty =
  let g = Generator.synthetic_webservice ~seed:11 () in
  let clean = Generator.objective g ~workload:Generator.shopping_mix in
  let objective, measure =
    if faulty then
      ( Objective.with_faults
          ~rates:{ (Objective.fault_profile 0.0) with Objective.transient = 0.2 }
          ~seed:3 clean,
        Some Measure.default_policy )
    else (clean, None)
  in
  let options =
    { Tuner.default_options with Tuner.max_evaluations = 150;
      measure }
  in
  let session = Session.create ~objective ~options () in
  (Session.tune session, clean)

let test_session_converges_under_faults () =
  let clean_result, _ = tune_datagen ~faulty:false in
  let faulty_result, clean = tune_datagen ~faulty:true in
  let reference = clean_result.Session.outcome.Tuner.best_performance in
  (* Transients do not corrupt values, so the faulty run's best is a
     genuine measurement; it must be within 5% of the fault-free best. *)
  let deployed = clean.Objective.eval faulty_result.Session.full_best_config in
  Alcotest.(check bool)
    (Printf.sprintf "within 5%% of fault-free best (%.2f vs %.2f)" deployed
       reference)
    true
    (deployed >= 0.95 *. reference);
  Alcotest.(check bool) "faults were actually injected" true
    (faulty_result.Session.faults > 0);
  Alcotest.(check bool) "retries were spent" true
    (faulty_result.Session.retries > 0);
  Alcotest.(check bool) "clean run not degraded" false
    clean_result.Session.degraded

let test_session_degraded_flag () =
  (* Everything fails: the session must flag degradation rather than
     return a silently poisoned result. *)
  let broken =
    {
      (Objective.create ~space ~direction:Objective.Higher_is_better (fun _ ->
           raise (Objective.Measurement_failed Objective.Persistent)))
      with
      Objective.randomness = Objective.Deterministic;
    }
  in
  let options =
    { Tuner.default_options with Tuner.max_evaluations = 20;
      measure = Some Measure.default_policy }
  in
  let session = Session.create ~objective:broken ~options () in
  let r = Session.tune session in
  Alcotest.(check bool) "degraded" true r.Session.degraded;
  Alcotest.(check bool) "faults counted" true (r.Session.faults > 0)

(* The fault ablation arms are pool-parallel; the table must be
   byte-identical at any domain count. *)
let test_fault_arms_jobs_deterministic () =
  let arm rate =
    let g = Generator.synthetic_webservice ~seed:11 () in
    let clean = Generator.objective g ~workload:Generator.shopping_mix in
    let objective =
      Objective.with_faults ~rates:(Objective.fault_profile rate) ~seed:5 clean
    in
    let options =
      { Tuner.default_options with Tuner.max_evaluations = 60;
        measure = Some Measure.default_policy }
    in
    let o = Tuner.tune ~options objective in
    let s = Option.value o.Tuner.measurement ~default:Measure.no_summary in
    Printf.sprintf "%.3f/%d/%d/%d" o.Tuner.best_performance s.Measure.faults
      s.Measure.retries s.Measure.give_ups
  in
  let rates = [ 0.05; 0.1; 0.2; 0.4 ] in
  let run domains = Pool.with_pool ~domains (fun pool -> Pool.map pool arm rates) in
  Alcotest.(check (list string)) "jobs 1 = jobs 4" (run 1) (run 4)

(* ------------------------------------------------------------------ *)
(* Batch measurement                                                   *)

let batch_configs =
  [| [| 1.0 |]; [| 4.0 |]; [| 1.0 |]; [| 7.0 |]; [| 4.0 |]; [| 2.0 |] |]

(* One faults+robust+memo stack, fresh per run so no state is shared
   between the sequential and batched runs. *)
let robust_stack () =
  let faulty =
    Objective.with_faults ~rates:(Objective.fault_profile 0.3) ~seed:17
      (Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
           (c.(0) *. 2.0) +. 1.0))
  in
  let robust, _handle = Measure.robust faulty in
  Objective.cached ~freeze_noise:true robust

let test_robust_batch_identity () =
  (* The whole vetting stack, batched at 1 and 4 domains, must return
     the sequential fold's bytes — fault draws are keyed by
     (configuration, attempt), so fanning distinct configurations out
     across domains replays exactly the same faults. *)
  let expected = Array.map (robust_stack ()).Objective.eval batch_configs in
  List.iter
    (fun domains ->
      let got =
        Pool.with_pool ~domains (fun pool ->
            Objective.eval_batch ~pool (robust_stack ()) batch_configs)
      in
      Alcotest.(check (array int64))
        (Printf.sprintf "identical at %d domains" domains)
        (Array.map Int64.bits_of_float expected)
        (Array.map Int64.bits_of_float got))
    [ 1; 4 ]

(* A robust objective's batch path measures each configuration
   exactly as its sequential path does, at any pool size. *)
let test_measure_batch_matches_sequential () =
  let make () = fst (Measure.robust (transient_then 2 42.0)) in
  let bits = Array.map Int64.bits_of_float in
  let sequential =
    let obj = make () in
    Array.map obj.Objective.eval batch_configs
  in
  let batched ?pool () = Objective.eval_batch ?pool (make ()) batch_configs in
  let check label got =
    Alcotest.(check (array int64)) label (bits sequential) (bits got)
  in
  check "no pool" (batched ());
  Pool.with_pool ~domains:4 (fun pool -> check "4 domains" (batched ~pool ()))

let test_measure_batch_failures_in_place () =
  (* A configuration that exhausts its retry budget is penalized in
     its own slot without disturbing the others. *)
  let obj, _ =
    Measure.robust
      (scripted (fun _ c ->
           if Float.equal c.(0) 4.0 then
             raise (Objective.Measurement_failed Objective.Persistent)
           else c.(0)))
  in
  let results = Objective.eval_batch obj batch_configs in
  Array.iteri
    (fun i v ->
      let expected =
        if Float.equal batch_configs.(i).(0) 4.0 then
          Measure.penalty_for Objective.Higher_is_better
        else batch_configs.(i).(0)
      in
      Alcotest.(check (float 1e-12)) "value" expected v)
    results

let suite =
  [
    Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
    Alcotest.test_case "backoff cap" `Quick test_backoff_cap;
    Alcotest.test_case "timeout retried" `Quick test_timeout_retried;
    Alcotest.test_case "persistent gives up" `Quick
      test_persistent_gives_up_immediately;
    Alcotest.test_case "give up after budget" `Quick test_give_up_after_budget;
    Alcotest.test_case "outlier rejected" `Quick test_outlier_rejected;
    Alcotest.test_case "outlier majority round one" `Quick
      test_outlier_majority_round_one;
    Alcotest.test_case "noisy readings survive" `Quick
      test_noisy_readings_survive_mad;
    Alcotest.test_case "robust penalty + summary" `Quick
      test_robust_penalty_and_summary;
    Alcotest.test_case "penalty direction" `Quick test_robust_penalty_direction;
    Alcotest.test_case "stats under retries" `Quick
      test_stats_accounting_under_retries;
    Alcotest.test_case "with_faults replay" `Quick
      test_with_faults_deterministic_replay;
    Alcotest.test_case "session converges under 20% faults" `Slow
      test_session_converges_under_faults;
    Alcotest.test_case "session degraded flag" `Quick test_session_degraded_flag;
    Alcotest.test_case "fault arms jobs-deterministic" `Slow
      test_fault_arms_jobs_deterministic;
    Alcotest.test_case "robust batch identity" `Quick test_robust_batch_identity;
    Alcotest.test_case "measure_batch matches sequential" `Quick
      test_measure_batch_matches_sequential;
    Alcotest.test_case "measure_batch failures in place" `Quick
      test_measure_batch_failures_in_place;
  ]

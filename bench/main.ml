(* The benchmark harness, in two parts:

   1. Reproduction: regenerate every table and figure of the paper
      (the same output as `harmony_cli experiment all`).
   2. Ablations: tables quantifying the design choices called out in
      DESIGN.md (initial-simplex strategy, estimator vertex choice,
      classifier plug-ins, sensitivity repeats under noise).

   Run with: dune exec bench/main.exe
   Evaluation domains (parallel parts): HARMONY_JOBS=N (default: the
   runtime's recommended domain count).  Per-evaluation costs live in
   bench/evals.exe and perfbench/. *)

open Harmony
open Harmony_objective
module Ws = Harmony_webservice
module Generator = Harmony_datagen.Generator
module Rng = Harmony_numerics.Rng
module Space = Harmony_param.Space
module Report = Harmony_experiments.Report
module Pool = Harmony_parallel.Pool
module Telemetry = Harmony_telemetry.Telemetry
module Export = Harmony_telemetry.Export

(* Each bench part runs under its own telemetry handle with a wall
   clock (milliseconds since the part started — bin/-side clocks are
   allowed, lib/ never reads one) and leaves a Chrome trace next to
   the working directory as BENCH_<id>.json.  The handle is the same
   registry the tuning stack reports into, so a part that threads it
   down (see ablation_estimator) records real simplex/measure spans. *)
let bench_part id f =
  let start = Unix.gettimeofday () in
  let telemetry =
    Telemetry.create ~clock:(fun () -> (Unix.gettimeofday () -. start) *. 1e3) ()
  in
  let result = Telemetry.span telemetry ("bench." ^ id) (fun () -> f telemetry) in
  Telemetry.gauge telemetry "bench.wall_ms"
    ((Unix.gettimeofday () -. start) *. 1e3);
  let file = "BENCH_" ^ id ^ ".json" in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Export.chrome telemetry));
  result

let jobs =
  match Sys.getenv_opt "HARMONY_JOBS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> Pool.default_domains ())
  | None -> Pool.default_domains ()

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures                              *)

let reproduction pool =
  Format.printf "@.############ Reproduction: every table and figure ############@.@.";
  Harmony_experiments.Registry.run_all ~pool Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Part 2: ablations                                                   *)

(* 2a. Initial-simplex strategies on the web-service model.  Each
   (workload, init) arm builds its own objective and tuner, so the
   arms fan out across the pool without changing any number. *)
let ablation_init pool =
  let arms =
    List.concat_map
      (fun mix ->
        List.map
          (fun init -> (mix, init))
          [
            ("extremes", Simplex.Init.Extremes);
            ("spread", Simplex.Init.Spread);
            ("around-default", Simplex.Init.Around_default 0.25);
          ])
      [ ("shopping", Ws.Tpcw.shopping); ("ordering", Ws.Tpcw.ordering) ]
  in
  let rows =
    Pool.map pool
      (fun ((mix_label, mix), (init_label, init)) ->
        let obj = Ws.Model.objective ~mix () in
        let options =
          { Tuner.default_options with Tuner.init; max_evaluations = 150 }
        in
        let o = Tuner.tune ~options obj in
        let m = Tuner.Metrics.of_outcome ~convergence_fraction:0.02 obj o in
        [
          mix_label; init_label;
          Report.f1 m.Tuner.Metrics.performance;
          string_of_int m.Tuner.Metrics.convergence_iteration;
          Report.f1 m.Tuner.Metrics.worst_performance;
          string_of_int m.Tuner.Metrics.bad_iterations;
        ])
      arms
  in
  Report.make ~id:"ablation-init" ~title:"Initial-simplex strategy (150-eval budget)"
    ~columns:[ "workload"; "init"; "WIPS"; "convergence"; "worst WIPS"; "bad iters" ]
    ~notes:[ "spread is the paper's Section 4.1 improvement" ]
    rows

(* 2b. Estimator vertex choice: prediction error on held-out points of
   a tuning trace, in a static and a drifting environment. *)
let ablation_estimator pool telemetry =
  let obj = Ws.Model.objective ~mix:Ws.Tpcw.shopping () in
  let space = obj.Objective.space in
  (* The bench part's handle records this tune's simplex/measure spans
     directly; its evaluation batches fan out across the pool without
     changing a byte of the outcome or the trace. *)
  let outcome =
    Tuner.tune ~telemetry ~pool
      ~options:{ Tuner.default_options with Tuner.max_evaluations = 120 }
      obj
  in
  let points =
    List.map (fun e -> (e.Recorder.config, e.Recorder.performance)) outcome.Tuner.trace
  in
  (* Targets the training stage actually asks about: near-misses of
     the historical configurations (one grid neighbour away), not
     far-field extrapolations. *)
  let targets =
    List.concat_map
      (fun (c, _) -> List.filteri (fun i _ -> i < 2) (Space.neighbors space c))
      (List.filteri (fun i _ -> i mod 5 = 0) points)
  in
  let median_abs_error ~drift choice =
    (* In the drifting variant, older measurements are scaled away from
       the truth; only the recent half still reflects the system. *)
    let n = List.length points in
    let points =
      List.mapi
        (fun i (c, p) ->
          if drift && 2 * i < n then (c, 0.5 *. p) else (c, p))
        points
    in
    let errors =
      Array.of_list
        (List.map
           (fun target ->
             let est = Estimator.estimate ~choice ~space ~points ~target () in
             Float.abs (est -. obj.Objective.eval target))
           targets)
    in
    Harmony_numerics.Stats.median errors
  in
  let rows =
    List.concat_map
      (fun (env, drift) ->
        List.map
          (fun (label, choice) ->
            [ env; label; Report.f2 (median_abs_error ~drift choice) ])
          [ ("nearest", Estimator.Nearest); ("latest", Estimator.Latest) ])
      [ ("static", false); ("drifting", true) ]
  in
  Report.make ~id:"ablation-estimator"
    ~title:
      (Printf.sprintf
         "Triangulation vertex choice: median |error| on %d near-history configs"
         (List.length targets))
    ~columns:[ "environment"; "vertex choice"; "median abs error (WIPS)" ]
    ~notes:
      [
        "the paper's footnote: nearest for static environments, recent data when the environment changes";
        "latest-only degrades badly here: once tuning converges, the most recent \
points cluster and the fitted simplex collapses";
      ]
    rows

(* 2c. Data-analyzer classifier plug-ins on workload characterization. *)
let ablation_classifier () =
  let module Classifier = Harmony_ml.Classifier in
  let mixes = [| Ws.Tpcw.browsing; Ws.Tpcw.shopping; Ws.Tpcw.ordering |] in
  let rng = Rng.create 23 in
  let observe mix = Ws.Tpcw.observed_frequencies rng mix ~samples:200 in
  let training =
    let features = Array.init 60 (fun i -> observe mixes.(i mod 3)) in
    let labels = Array.init 60 (fun i -> i mod 3) in
    { Classifier.features; labels }
  in
  let held_out = Array.init 150 (fun i -> (observe mixes.(i mod 3), i mod 3)) in
  let accuracy c =
    let correct =
      Array.fold_left
        (fun acc (f, l) -> if c.Classifier.classify f = l then acc + 1 else acc)
        0 held_out
    in
    float_of_int correct /. float_of_int (Array.length held_out)
  in
  let classifiers =
    [
      Harmony_ml.Nearest.least_squares training;
      Harmony_ml.Nearest.knn ~k:5 training;
      Harmony_ml.Kmeans.classifier (Rng.create 3) ~k:3 training;
      Harmony_ml.Dtree.classifier training;
      Harmony_ml.Mlp.classifier (Rng.create 4) ~epochs:150 training;
    ]
  in
  let rows =
    List.map
      (fun c -> [ c.Classifier.name; Report.pct (accuracy c) ])
      classifiers
  in
  Report.make ~id:"ablation-classifier"
    ~title:"Workload classification accuracy (held-out TPC-W frequency vectors)"
    ~columns:[ "classifier"; "accuracy" ]
    ~notes:[ "least-squares nearest neighbour is the paper's choice (Section 4.2)" ]
    rows

(* 2d. Sensitivity repeats under measurement noise: how well the
   noisy rankings recover the noise-free top-5.  Every seed arm
   creates its own noise RNG, so the arms are pool-safe. *)
let ablation_sensitivity_repeats pool =
  let g = Generator.synthetic_webservice () in
  let clean = Generator.objective g ~workload:Generator.shopping_mix in
  let truth = Sensitivity.analyze clean in
  let top_true =
    List.filteri (fun i _ -> i < 5)
      (Array.to_list (Sensitivity.ranked truth))
    |> List.map (fun s -> s.Sensitivity.index)
  in
  (* Averaged over several noise seeds: a single draw of a max-min
     estimate is far too variable to rank designs by. *)
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let overlap ~level ~repeats =
    let one seed =
      let noisy =
        Objective.with_noise
          (Rng.create (seed + (1000 * repeats) + (100 * int_of_float (level *. 100.))))
          ~level clean
      in
      let r = Sensitivity.analyze ~repeats noisy in
      let top =
        List.filteri (fun i _ -> i < 5) (Array.to_list (Sensitivity.ranked r))
        |> List.map (fun s -> s.Sensitivity.index)
      in
      List.length (List.filter (fun i -> List.mem i top_true) top)
    in
    let total = List.fold_left ( + ) 0 (Pool.map pool one seeds) in
    float_of_int total /. float_of_int (List.length seeds)
  in
  let rows =
    List.concat_map
      (fun level ->
        List.map
          (fun repeats ->
            [
              Report.pct level; string_of_int repeats;
              Printf.sprintf "%.1f/5" (overlap ~level ~repeats);
            ])
          [ 1; 3; 5 ])
      [ 0.05; 0.10; 0.25 ]
  in
  Report.make ~id:"ablation-repeats"
    ~title:"Sensitivity ranking robustness: top-5 overlap with the noise-free ranking"
    ~columns:[ "perturbation"; "repeats"; "top-5 overlap" ]
    ~notes:
      [
        "repeats average repeated measurements (an extension of the paper's tool)";
        "they damp spurious sensitivity magnitudes on flat parameters, but the \
ranking loss under heavy noise is dominated by max-min selection bias";
      ]
    rows

(* 2e. The fault-tolerant measurement pipeline: convergence quality vs
   injected fault rate at a fixed seed.  Every rate arm builds its own
   faulty objective (per-configuration fault draws are seeded), so the
   arms fan out across the pool and the table is byte-identical at any
   domain count. *)
let ablation_faults pool =
  let budget = 150 in
  let tune_with ~rate =
    let g = Generator.synthetic_webservice ~seed:11 () in
    let clean = Generator.objective g ~workload:Generator.shopping_mix in
    let objective, measure =
      if Float.equal rate 0.0 then (clean, None)
      else
        ( Objective.with_faults ~rates:(Objective.fault_profile rate) ~seed:5
            clean,
          Some Measure.default_policy )
    in
    let options =
      { Tuner.default_options with Tuner.max_evaluations = budget; measure }
    in
    (Tuner.tune ~options objective, clean)
  in
  let fault_free, _ = tune_with ~rate:0.0 in
  let reference = fault_free.Tuner.best_performance in
  let rows =
    Pool.map pool
      (fun rate ->
        let outcome, clean = tune_with ~rate in
        (* Score the returned configuration on the clean objective:
           what the system would actually get by deploying it. *)
        let deployed = clean.Objective.eval outcome.Tuner.best_config in
        let m =
          Tuner.Metrics.of_outcome ~reference clean
            { outcome with Tuner.best_performance = deployed }
        in
        let s =
          Option.value outcome.Tuner.measurement ~default:Measure.no_summary
        in
        [
          Report.pct rate;
          Report.f1 deployed;
          Report.pct (deployed /. reference);
          string_of_int m.Tuner.Metrics.convergence_iteration;
          string_of_int s.Measure.faults;
          string_of_int s.Measure.retries;
          string_of_int s.Measure.give_ups;
        ])
      [ 0.0; 0.05; 0.10; 0.20; 0.40 ]
  in
  Report.make ~id:"ablation-faults"
    ~title:
      (Printf.sprintf
         "Measurement faults vs convergence (synthetic rule data, %d-eval budget, seed 5)"
         budget)
    ~columns:
      [ "fault rate"; "deployed perf"; "vs fault-free"; "convergence";
        "faults"; "retries"; "give-ups" ]
    ~notes:
      [
        "fault rate r injects transients at r, outliers at r/2, timeouts at r/4, persistent at r/8";
        "the measurement policy: 4 attempts with capped exponential backoff, \
median-of-3 with MAD outlier rejection, worst-case penalty on give-up";
      ]
    rows

(* 2f. The parallel evaluation engine itself: wall clock of the full
   experiment registry at increasing domain counts.  Output is
   byte-identical at every width (the determinism test in test/
   asserts it); only the wall clock moves. *)
let ablation_parallel () =
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let baseline = ref 1.0 in
  let rows =
    List.map
      (fun domains ->
        let dt =
          time (fun () ->
              Pool.with_pool ~domains (fun pool ->
                  Harmony_experiments.Registry.tables ~pool ()))
        in
        if domains = 1 then baseline := dt;
        [
          string_of_int domains;
          Printf.sprintf "%.2f" dt;
          Printf.sprintf "%.2fx" (!baseline /. dt);
        ])
      [ 1; 2; 4 ]
  in
  Report.make ~id:"ablation-parallel"
    ~title:"Registry wall clock vs evaluation domains (experiment all)"
    ~columns:[ "domains"; "wall clock (s)"; "speedup" ]
    ~notes:
      [
        Printf.sprintf "host parallelism: Domain.recommended_domain_count = %d"
          (Pool.default_domains ());
        "speedup saturates at min(domains, cores, 11 experiments); the longest \
single experiment bounds the critical path";
      ]
    rows

let ablations pool =
  Format.printf "@.############ Ablations ############@.@.";
  List.iter
    (fun t -> Report.print Format.std_formatter t)
    [
      bench_part "ablation-init" (fun _ -> ablation_init pool);
      bench_part "ablation-estimator" (ablation_estimator pool);
      bench_part "ablation-classifier" (fun _ -> ablation_classifier ());
      bench_part "ablation-repeats" (fun _ -> ablation_sensitivity_repeats pool);
      bench_part "ablation-faults" (fun _ -> ablation_faults pool);
      bench_part "ablation-parallel" (fun _ -> ablation_parallel ());
    ];
  Format.printf "@.telemetry: BENCH_<id>.json (Chrome traces, one per ablation)@."

let () =
  Pool.with_pool ~domains:jobs (fun pool ->
      reproduction pool;
      ablations pool)

(* The tune-history workload: the paper's history-reuse loop.

   The live system is the analytic (MVA) model of the web service under
   a TPC-W mix, with 3% measurement noise and seeded faults at 5%,
   measured through [Measure.default_policy].  Set-up seeds one
   experience database with 30 cold runs; each timed op is one run of
   [Session.tune ~characteristics] with a budget of 100 on a fresh
   session over that database.  Characteristics are observed interaction
   frequencies; about one run in three repeats an earlier run's vector
   exactly, so the trusted-history path runs beside the re-measured
   one.  No service or persist code runs.

   The traced round splits each run into the three public parts
   [Session.tune] is made of (Analyzer.prepare, Tuner.tune,
   History.add_outcome) and times every physical evaluation; it must
   reproduce the untraced rounds' per-run digests. *)

open Harmony
open Harmony_param
open Harmony_objective
module Ws = Harmony_webservice
module Rng = Harmony_numerics.Rng

let budget = 100
let cold_runs = 30
let runs_per_round = 150
let mixes = [| Ws.Tpcw.browsing; Ws.Tpcw.shopping; Ws.Tpcw.ordering |]
let options = { Tuner.default_options with Tuner.max_evaluations = budget }
let policy = Measure.default_policy

type plan = {
  mix : Ws.Tpcw.mix;
  chars : float array;
  label : string;
  noise_seed : int;
  fault_seed : int;
  repeat : bool;  (* [chars] is an earlier run's vector, exactly *)
}

(* The cold seeding runs and the timed runs of one round.  Fresh runs
   cycle through the three mixes, and every third timed run repeats an
   earlier run's vector, so each round has the same shape. *)
let plans ~seed =
  let rng = Rng.create seed in
  let make i ~repeat mix chars =
    let noise_seed = Rng.int rng 0x3fffffff in
    let fault_seed = Rng.int rng 0x3fffffff in
    {
      mix;
      chars;
      label = Printf.sprintf "%s#%d" mix.Ws.Tpcw.label i;
      noise_seed;
      fault_seed;
      repeat;
    }
  in
  let fresh i =
    let mix = mixes.(i mod Array.length mixes) in
    make i ~repeat:false mix (Ws.Tpcw.observed_frequencies rng mix ~samples:500)
  in
  let cold = Array.init cold_runs fresh in
  let timed = Array.make runs_per_round cold.(0) in
  for i = 0 to runs_per_round - 1 do
    let serial = cold_runs + i in
    timed.(i) <-
      (if i mod 3 = 2 then
         let j = Rng.int rng serial in
         let earlier = if j < cold_runs then cold.(j) else timed.(j - cold_runs) in
         make serial ~repeat:true earlier.mix earlier.chars
       else fresh serial)
  done;
  (cold, timed)

(* Physical evaluations: every call that reaches the model is counted,
   and in a traced round timed.  Faulted attempts never reach it. *)
type eval_meter = {
  tracer : Meter.tracer option;
  mutable evals : int;
  mutable eval_s : float;
}

let live_system ?meter plan =
  let model = Ws.Model.objective ~mix:plan.mix () in
  let physical =
    match meter with
    | None -> model
    | Some m ->
        let eval c =
          m.evals <- m.evals + 1;
          match m.tracer with
          | None -> model.Objective.eval c
          | Some tr ->
              let t0 = Meter.now () in
              let v = model.Objective.eval c in
              let t1 = Meter.now () in
              m.eval_s <- m.eval_s +. (t1 -. t0);
              Meter.child tr "objective.eval" t0 t1;
              v
        in
        { model with Objective.eval }
  in
  Objective.with_faults ~rates:(Objective.fault_profile 0.05)
    ~seed:plan.fault_seed
    (Objective.with_noise (Rng.create plan.noise_seed) ~level:0.03 physical)

let seed_database cold =
  let db = History.create () in
  Array.iter
    (fun plan ->
      let session =
        Session.create ~objective:(live_system plan) ~options ~measure:policy ()
      in
      let r = Session.tune session in
      ignore
        (History.add_outcome db ~label:plan.label ~characteristics:plan.chars
           r.Session.outcome))
    cold;
  db

(* One run, as users call it. *)
let run_session m db plan =
  let session =
    Session.create ~objective:(live_system ~meter:m plan) ~db ~options
      ~measure:policy ()
  in
  let r = Session.tune ~characteristics:plan.chars ~label:plan.label session in
  r.Session.outcome

type parts = {
  mutable prepare_s : float;
  mutable tune_s : float;
  mutable add_s : float;
  mutable trusted_seen : int;
}

(* The same run split into its three public parts, each timed. *)
let run_split tr m parts ~seq db plan =
  let objective = live_system ~meter:m plan in
  let t0 = Meter.now () in
  Meter.op_begin tr ~seq "tune.run" t0;
  let prep =
    Analyzer.prepare ~fallback:options.Tuner.init (Analyzer.create db) objective
      ~characteristics:plan.chars
  in
  let t1 = Meter.now () in
  Meter.child tr "analyzer.prepare" t0 t1;
  Meter.enter tr "tuner.tune" t1;
  let outcome =
    Tuner.tune
      ~options:
        { options with Tuner.init = prep.Analyzer.init; measure = Some policy }
      objective
  in
  let t2 = Meter.now () in
  Meter.leave tr "tuner.tune" t2;
  ignore (History.add_outcome db ~label:plan.label ~characteristics:plan.chars outcome);
  let t3 = Meter.now () in
  Meter.child tr "history.add_outcome" t2 t3;
  Meter.op_end tr "tune.run" t3;
  parts.prepare_s <- parts.prepare_s +. (t1 -. t0);
  parts.tune_s <- parts.tune_s +. (t2 -. t1);
  parts.add_s <- parts.add_s +. (t3 -. t2);
  (match prep.Analyzer.matched with
  | Some e
    when Harmony_numerics.Stats.euclidean_distance e.History.characteristics
           plan.chars
         < 1e-9 ->
      parts.trusted_seen <- parts.trusted_seen + 1
  | Some _ | None -> ());
  outcome

(* The run's checks: a feasible best, within budget, that is the best
   of its own trace or, on the trusted path, one of the historical
   measurements the run was seeded with (trusted vertices are not
   re-measured, so they never enter the trace). *)
let run_ok ~trusted outcome =
  let best = outcome.Tuner.best_performance in
  let is_best (config, performance) =
    Space.config_equal config outcome.Tuner.best_config
    && Float.equal performance best
  in
  Space.is_valid Ws.Wsconfig.space outcome.Tuner.best_config
  && outcome.Tuner.evaluations <= budget
  && (List.exists
        (fun e -> is_best (e.Recorder.config, e.Recorder.performance))
        outcome.Tuner.trace
     || List.exists is_best trusted)
  && not (List.exists (fun e -> e.Recorder.performance > best) outcome.Tuner.trace)

(* The measurements of every entry stored under exactly [chars]: the
   vertices a trusted run may be seeded with. *)
let trusted_history db chars =
  List.concat_map
    (fun e ->
      if Harmony_numerics.Stats.euclidean_distance e.History.characteristics chars
         < 1e-9
      then
        List.map
          (fun (c, p) -> (Space.snap Ws.Wsconfig.space c, p))
          e.History.evaluations
      else [])
    (History.entries db)

let run_digest plan outcome =
  let h = Meter.fnv Meter.fnv_offset plan.label in
  let h = Array.fold_left Meter.fnv_float h outcome.Tuner.best_config in
  let h = Meter.fnv_float h outcome.Tuner.best_performance in
  Meter.fnv_int h outcome.Tuner.evaluations

let round ~seed ?tracer () =
  let cold, timed = plans ~seed in
  let t0 = Meter.now () in
  let db = seed_database cold in
  let setup_s = Meter.now () -. t0 in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let n = Array.length timed in
  let latencies = Array.make n 0.0 in
  let outcomes = Array.make n 0 in
  let failed = ref 0 in
  let minor_words = ref 0.0 and heap_words = ref 0 in
  let attempts = ref 0 and retries = ref 0 and faults = ref 0 and give_ups = ref 0 in
  let converge = ref [] and perf = ref [] and trusted = ref 0 in
  let parts = { prepare_s = 0.0; tune_s = 0.0; add_s = 0.0; trusted_seen = 0 } in
  let m = { tracer; evals = 0; eval_s = 0.0 } in
  Array.iteri
    (fun i plan ->
      let before = History.size db in
      let trusted_seeds = if plan.repeat then trusted_history db plan.chars else [] in
      let words0 = Gc.minor_words () in
      let t0 = Meter.now () in
      let outcome =
        match tracer with
        | Some tr -> run_split tr m parts ~seq:i db plan
        | None -> run_session m db plan
      in
      let t1 = Meter.now () in
      minor_words := !minor_words +. (Gc.minor_words () -. words0);
      heap_words := max !heap_words (Meter.heap_words ());
      latencies.(i) <- t1 -. t0;
      let s = Option.value outcome.Tuner.measurement ~default:Measure.no_summary in
      attempts := !attempts + s.Measure.attempts;
      retries := !retries + s.Measure.retries;
      faults := !faults + s.Measure.faults;
      give_ups := !give_ups + s.Measure.give_ups;
      if plan.repeat then incr trusted;
      let metrics = Tuner.Metrics.of_outcome (Ws.Model.objective ~mix:plan.mix ()) outcome in
      converge := float_of_int metrics.Tuner.Metrics.convergence_iteration :: !converge;
      perf := outcome.Tuner.best_performance :: !perf;
      if not (run_ok ~trusted:trusted_seeds outcome && History.size db = before + 1)
      then incr failed;
      outcomes.(i) <- run_digest plan outcome)
    timed;
  let major1 = (Gc.quick_stat ()).Gc.major_collections in
  let busy_s = Array.fold_left ( +. ) 0.0 latencies in
  let per_run s = s *. 1e3 /. float_of_int n in
  if Option.is_some tracer && parts.trusted_seen <> !trusted then incr failed;
  {
    Meter.setup_s;
    latencies;
    busy_s;
    ops = n;
    failed = !failed;
    counts =
      [
        ("ops", n);
        ("objective.evals", m.evals);
        ("measure.attempts", !attempts);
        ("measure.retries", !retries);
        ("measure.faults", !faults);
        ("measure.give_ups", !give_ups);
        ("analyzer.trusted", !trusted);
        ("history.entries", History.size db);
      ];
    gc =
      [
        ("gc.minor_words", int_of_float !minor_words);
        ("gc.major_collections", major1 - major0);
      ];
    quality = [ ("converge_evals", !converge); ("tuned_wips", !perf) ];
    layers =
      [
        ("op_us", busy_s *. 1e6 /. float_of_int n);
        ("analyzer.prepare_ms", per_run parts.prepare_s);
        ("history.add_ms", per_run parts.add_s);
        ("tuner.self_ms", per_run (parts.tune_s -. m.eval_s));
        ( "objective.eval_us",
          if m.evals = 0 then 0.0 else m.eval_s *. 1e6 /. float_of_int m.evals );
      ];
    outcomes;
    digest = Meter.hex (Array.fold_left Meter.fnv_int Meter.fnv_offset outcomes);
    heap_words = !heap_words;
  }

open Harmony_param
open Harmony_objective

module Telemetry = Harmony_telemetry.Telemetry

type t = {
  objective : Objective.t;
  db : History.t;
  db_path : string option;
  checkpoint_every : int option;
  options : Tuner.options;
  telemetry : Telemetry.t;
  mutable report : Sensitivity.report option;
  mutable tunes : int;  (* tune calls so far; seeds each run's trace root *)
}

let create ~objective ?db ?db_path ?checkpoint_every ?on_salvage
    ?(options = Tuner.default_options) ?measure ?(telemetry = Telemetry.off) () =
  (match (checkpoint_every, db_path) with
  | Some k, (Some _ | None) when k < 1 ->
      invalid_arg "Session.create: checkpoint_every must be >= 1"
  | Some _, None ->
      invalid_arg "Session.create: checkpoint_every requires db_path"
  | Some _, Some _ | None, (Some _ | None) -> ());
  let db =
    match (db, db_path) with
    | Some _, Some _ -> invalid_arg "Session.create: both db and db_path given"
    | Some db, None -> db
    | None, Some path -> History.load_or_create ?warn:on_salvage path
    | None, None -> History.create ()
  in
  let options =
    match measure with
    | None -> options
    | Some _ -> { options with Tuner.measure }
  in
  { objective; db; db_path; checkpoint_every; options; telemetry;
    report = None; tunes = 0 }

let save_database t =
  match t.db_path with None -> () | Some path -> History.save t.db path

let objective t = t.objective
let database t = t.db

let prioritize ?max_points t =
  match t.report with
  | Some report -> report
  | None ->
      let report =
        Sensitivity.analyze ~telemetry:t.telemetry ?max_points t.objective
      in
      t.report <- Some report;
      report

let last_report t = t.report

type tune_result = {
  outcome : Tuner.outcome;
  tuned_indices : int list;
  used_experience : bool;
  full_best_config : Space.config;
  degraded : bool;
  faults : int;
  retries : int;
  projection : Subspace.t option;
}

(* A provisional snapshot of the database for a mid-run checkpoint: the
   committed entries plus one in-progress entry holding the evaluations
   made so far.  Built on a copy so the live database never contains
   the provisional entry. *)
let checkpoint_database t ?label ?characteristics evaluations path =
  let copy = History.create () in
  List.iter
    (fun e ->
      ignore
        (History.add copy ~label:e.History.label
           ~characteristics:e.History.characteristics
           ~evaluations:e.History.evaluations ()))
    (History.entries t.db);
  ignore
    (History.add copy
       ~label:(Option.value label ~default:"run" ^ " [in progress]")
       ~characteristics:(Option.value characteristics ~default:[||])
       ~evaluations ());
  History.save copy path

let tune ?top_n ?characteristics ?label ?pool ?options t =
  let options = Option.value options ~default:t.options in
  (* Each run gets a trace root derived from the session's own call
     counter, so a multi-run session's traces are distinguishable and
     the ids are reproducible without any ambient state. *)
  t.tunes <- t.tunes + 1;
  let ctx = Telemetry.Ctx.root ~client:"session" ~seq:t.tunes in
  Telemetry.span t.telemetry ~ctx "session.tune"
  @@ fun () ->
  (* Opt-in incremental durability: every [checkpoint_every] completed
     evaluations, persist the experience gathered so far, so a mid-run
     kill loses at most that many measurements. *)
  let options =
    match (t.checkpoint_every, t.db_path) with
    | None, (Some _ | None) | Some _, None -> options
    | Some every, Some path ->
        let rev_pending = ref [] in
        let since_save = ref 0 in
        let base = options.Tuner.on_evaluation in
        let hook entry =
          (match base with None -> () | Some f -> f entry);
          rev_pending :=
            (Array.copy entry.Recorder.config, entry.Recorder.performance)
            :: !rev_pending;
          incr since_save;
          if !since_save >= every then begin
            since_save := 0;
            checkpoint_database t ?label ?characteristics
              (List.rev !rev_pending) path
          end
        in
        { options with Tuner.on_evaluation = Some hook }
  in
  (* Optional projection onto the most sensitive parameters. *)
  let projection =
    match top_n with
    | None -> None
    | Some n ->
        let report = prioritize t in
        let indices = Sensitivity.top_n report n in
        Some (Subspace.project t.objective ~indices ())
  in
  let working_objective =
    match projection with
    | None -> t.objective
    | Some sub -> Subspace.objective sub
  in
  let outcome, used_experience =
    match characteristics with
    | None ->
        ( Tuner.tune ~telemetry:t.telemetry ~ctx ?pool ~options
            working_objective,
          false )
    | Some characteristics ->
        let analyzer = Analyzer.create t.db in
        let outcome, preparation =
          Analyzer.tune_with_experience ~telemetry:t.telemetry ~ctx ?pool
            ~options ?label analyzer working_objective ~characteristics
        in
        (outcome, preparation.Analyzer.matched <> None)
  in
  let tuned_indices =
    match projection with
    | None -> List.init (Space.dims t.objective.Objective.space) Fun.id
    | Some sub -> Subspace.indices sub
  in
  let full_best_config =
    match projection with
    | None -> outcome.Tuner.best_config
    | Some sub -> Subspace.embed sub outcome.Tuner.best_config
  in
  let degraded, faults, retries =
    match outcome.Tuner.measurement with
    | None -> (false, 0, 0)
    | Some s ->
        (* Degraded: some vertex kept failing and was penalized, or the
           budget ran out while the pipeline was still fighting faults. *)
        ( s.Measure.give_ups > 0
          || (s.Measure.faults > 0 && not outcome.Tuner.converged),
          s.Measure.faults,
          s.Measure.retries )
  in
  (* With checkpointing on, replace the last provisional snapshot with
     the clean end-of-run state (the recorded entry when characteristics
     were given, no in-progress residue either way). *)
  (match (t.checkpoint_every, t.db_path) with
  | None, (Some _ | None) | Some _, None -> ()
  | Some _, Some _ -> save_database t);
  { outcome; tuned_indices; used_experience; full_best_config; degraded;
    faults; retries; projection }

(* The tuning trace in the *full* parameter space: with [~top_n] the
   tuner only saw the projected subspace, so each trace configuration
   is embedded back (frozen parameters at their pinned values) before
   rendering.  Rendering the subspace trace directly would silently
   drop the frozen columns. *)
let trace_csv t result =
  let outcome =
    match result.projection with
    | None -> result.outcome
    | Some sub ->
        {
          result.outcome with
          Tuner.trace =
            List.map
              (fun e ->
                { e with Recorder.config = Subspace.embed sub e.Recorder.config })
              result.outcome.Tuner.trace;
        }
  in
  Tuner.trace_csv t.objective.Objective.space outcome

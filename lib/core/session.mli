(** High-level Active Harmony workflow.

    Ties the pieces together the way the paper's improved system uses
    them: (1) prioritize parameters once per new workload, (2) focus
    tuning on the top-n sensitive parameters, (3) characterize the
    incoming workload and train from the closest prior experience,
    (4) tune with the improved search refinement, and (5) store the
    run back into the experience database.

    {[
      let session = Session.create ~objective () in
      let report = Session.prioritize session in
      let outcome =
        Session.tune session ~top_n:6 ~characteristics ()
      in
      ...
    ]} *)

open Harmony_param
open Harmony_objective

type t

val create :
  objective:Objective.t -> ?db:History.t -> ?db_path:string ->
  ?checkpoint_every:int -> ?on_salvage:(int -> unit) ->
  ?options:Tuner.options -> ?measure:Measure.policy ->
  ?telemetry:Harmony_telemetry.Telemetry.t -> unit -> t
(** A session around an objective.  [db] defaults to a fresh empty
    database; with [db_path] instead, the database is loaded from that
    file when it exists ({!History.load_or_create}) and {!save_database}
    writes it back — experience then persists across executions.  A
    corrupt database file degrades to its salvageable prefix;
    [on_salvage] (if given) receives the dropped line count.

    [checkpoint_every] (requires [db_path]) turns on incremental
    durability: during {!tune}, every K completed evaluations the
    database is atomically re-saved with the evaluations made so far as
    a provisional "[in progress]" entry, so a mid-run kill loses at
    most K measurements.  A run that completes normally replaces the
    provisional snapshot with the clean final state.

    [options] defaults to {!Tuner.default_options} (improved spread
    init); [measure], when given, overrides [options.measure] and runs
    every tune through the fault-tolerant measurement pipeline.

    [telemetry], when a live handle, instruments the whole stack: each
    {!tune} runs under a [session.tune] root span, and the handle is
    passed down to the sensitivity sweep, the history lookup, the
    simplex kernel and the measurement pipeline.  Telemetry observes
    and never steers — results are byte-identical with it off.
    @raise Invalid_argument when both [db] and [db_path] are given,
    when [checkpoint_every < 1], or when [checkpoint_every] is given
    without [db_path]. *)

(* lint: allow U1 — test hook: the session tests persist without checkpointing through this *)
val save_database : t -> unit
(** Persist the experience database to the session's [db_path]; a
    no-op for sessions created without one. *)

(* lint: allow U1 — the model golden generator runs the prioritizing tool through this *)
val prioritize : ?max_points:int -> t -> Sensitivity.report
(** Run the parameter prioritizing tool (cached: repeated calls return
    the first report). *)

type tune_result = {
  outcome : Tuner.outcome;
  tuned_indices : int list;       (** parameters actually tuned *)
  used_experience : bool;         (** true when history seeded the simplex *)
  full_best_config : Space.config; (** best configuration in the full space *)
  degraded : bool;  (** measurements kept failing: a vertex was
                        penalized after exhausting the retry policy, or
                        the budget ran out mid-faults — the result is
                        the best-known configuration, not a clean
                        convergence *)
  faults : int;     (** faulty readings the measurement pipeline saw *)
  retries : int;    (** physical re-measurements it spent on them *)
  projection : Subspace.t option;
      (** the subspace actually tuned when [top_n] was given; use
          {!trace_csv} to render the trace in the full space *)
}

val tune :
  ?top_n:int ->
  ?characteristics:float array ->
  ?label:string ->
  ?pool:Harmony_parallel.Pool.t ->
  ?options:Tuner.options ->
  t ->
  tune_result
(** Tune the objective.

    - With [top_n], only the n most sensitive parameters are tuned
      (running {!prioritize} first if needed); the rest stay at their
      defaults.
    - With [characteristics], the data analyzer seeds the simplex from
      the closest experience, and the run is recorded back into the
      database under those characteristics.
    - With [pool], the tuner's deterministic evaluation batches fan
      out across the pool's domains; the tuning result is
      byte-identical with or without it (see {!Tuner.tune}).
    - [options] overrides the session's tuner options for this run. *)

val trace_csv : t -> tune_result -> string
(** The run's tuning trace as CSV over the {e full} parameter space:
    header [iteration,<all param names...>,performance].  When the run
    was projected with [top_n], frozen parameters appear as constant
    columns at their pinned values (rather than being silently
    dropped, as rendering the subspace trace directly would). *)

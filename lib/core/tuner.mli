(** Tuning an objective in-process: a {!Controller} driven batch by
    batch with {!Objective.eval_batch}, recording every
    (configuration, performance) measurement — the tuning trace.  The
    trace is what the paper's evaluation is about: not just the final
    configuration but the performance of the system {e while getting
    there} (Section 4.1), summarized by convergence time, worst
    performance, and oscillation statistics. *)

open Harmony_param
open Harmony_objective

type options = {
  init : Simplex.Init.t;
  max_evaluations : int;
  tolerance : float;
  measure : Measure.policy option;
      (** when set, every evaluation goes through the fault-tolerant
          measurement pipeline ({!Measure.robust}): retries with
          capped backoff, median-of-k vetting, and worst-case
          penalties for measurements that stay broken *)
  on_evaluation : (Recorder.entry -> unit) option;
      (** called after each recorded evaluation — the hook
          {!Session}'s incremental experience checkpointing uses *)
}

val default_options : options
(** [Spread] init, 400 evaluations, tolerance 1e-3, no measurement
    policy, no evaluation hook — mirror of
    {!Simplex.default_options}. *)

val original_options : options
(** The pre-improvement Active Harmony behaviour: [Extremes]
    initial simplex (Table 1's "original implementation"). *)

type outcome = {
  best_config : Space.config;
  best_performance : float;  (** the {!Controller.outcome}'s best *)
  trace : Recorder.entry list;  (** every vetted measurement, in order;
                                    a given-up vertex appears with its
                                    penalty value *)
  evaluations : int;
  converged : bool;
  measurement : Measure.summary option;
      (** fault/retry accounting when [options.measure] was set *)
}

val tune :
  ?telemetry:Harmony_telemetry.Telemetry.t ->
  ?ctx:Harmony_telemetry.Telemetry.Ctx.t ->
  ?pool:Harmony_parallel.Pool.t ->
  ?options:options ->
  Objective.t ->
  outcome
(** With a live [telemetry] handle, each evaluation is bracketed by a
    [measure] span (the [End] carries the vetted performance), a
    [tuner.evaluations] counter counts them, and the handle is shared
    with the controller's search (init, step and restart spans) and
    {!Measure.robust} (retry/fault counters).  Telemetry observes and
    never steers: the tuning outcome is byte-identical with the handle
    off.  An exception from a measurement or the [on_evaluation] hook
    closes the search's spans as in {!Simplex.optimize} and propagates.

    With a trace context [ctx], every [measure] span carries the ids
    of a child context numbered in evaluation order
    ({!Harmony_telemetry.Telemetry.Ctx.child_i} with name
    ["measure"]), linking each physical measurement back to the run
    that requested it.  Batch evaluations emit their spans on the
    calling domain after the pool joins, so the ids — like the rest of
    the trace — are byte-identical at any domain count.

    With a [pool], the simplex phases that produce whole configuration
    sets (initial vertices, shrink, restarts) are measured as one
    {!Objective.eval_batch} each; the outcome, trace, and telemetry
    are byte-identical to the sequential run at any domain count. *)

val trace_csv : Space.t -> outcome -> string
(** The tuning trace as CSV: header
    [iteration,<param names...>,performance], one measurement per
    line — convenient for plotting the oscillation figures. *)

(** Trace summary metrics. *)
module Metrics : sig
  type t = {
    performance : float;            (** final best measured performance *)
    convergence_iteration : int;    (** the paper's "convergence time
                                        (iterations)" *)
    settling_iteration : int;       (** last iteration that still improved
                                        the best-so-far by >0.5% *)
    worst_performance : float;      (** Table 1's "worst performance" — worst
                                        measurement in the oscillation stage *)
    bad_iterations : int;           (** Table 2's count of bad-performance
                                        iterations *)
    initial_mean : float;           (** mean performance over the initial
                                        oscillation window *)
    initial_stddev : float;         (** its standard deviation — Table 2's
                                        "average (standard deviation)" *)
  }

  val of_outcome :
    ?convergence_fraction:float -> ?bad_fraction:float -> ?reference:float ->
    Objective.t -> outcome -> t
  (** [convergence_iteration] is the first measurement index (1-based)
      from which the best-so-far performance stays within
      [convergence_fraction] (default 0.05) of [reference] — the
      run's final best unless a common [reference] is given (compare
      two variants against the same target, as the paper's tables
      do).  [bad_iterations] counts measurements worse than
      [bad_fraction] (default 0.8) of the reference (direction-aware).
      The initial oscillation window is everything before convergence;
      [worst_performance], [initial_mean] and [initial_stddev] are
      computed over it. *)

  val pp : Format.formatter -> t -> unit
end

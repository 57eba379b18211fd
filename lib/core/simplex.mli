(** The Active Harmony tuning kernel: a Nelder-Mead simplex search
    adapted to discrete parameter spaces (paper Section 2), with
    pluggable initial-simplex strategies (Section 4.1).

    Continuous simplex proposals are snapped to the nearest grid
    point.  The search works directly under the objective's direction
    (maximizing WIPS or minimizing time). *)

open Harmony_param
open Harmony_objective

module Init : sig
  (** How the k+1 initial configurations are chosen. *)
  type t =
    | Extremes
        (** the original Active Harmony predefined simplex: n+1
            distinct corners of the box (rotating which half of the
            parameters sit at their maximum) — "tries the extreme
            values for the parameters" (Figure 1a) *)
    | Spread
        (** the paper's improvement: interior configurations equally
            distributed over the search space — "for each of n
            parameters, we increase 1/n of its extreme values every
            time in the first n explorations" (Figure 1b) *)
    | Around_default of float
        (** a simplex centred on the default configuration; the float
            is the per-parameter offset as a fraction of its range *)
    | Seeded of (Space.config * float option) list
        (** explicit vertices, e.g. from historical data.  A vertex
            with [Some perf] is {e trusted}: its (possibly estimated)
            performance is used without re-measuring — the paper's
            training stage (Sections 4.2-4.3).  Missing vertices are
            filled from a [Spread] simplex. *)

  val vertices : t -> Space.t -> (Space.config * float option) list
  (** The k+1 initial vertices (deduplicated, snapped). *)
end

type options = {
  init : Init.t;
  max_evaluations : int;  (** budget of objective evaluations *)
  tolerance : float;      (** stop when the normalized simplex diameter
                              falls below this *)
}

val default_options : options
(** [Spread] init, 400 evaluations, tolerance 1e-3. *)

type outcome = {
  best_config : Space.config;
  best_performance : float;
  evaluations : int;    (** objective evaluations actually spent *)
  iterations : int;     (** simplex transformation steps *)
  converged : bool;     (** true when stopped by the tolerance test *)
}

val optimize :
  ?telemetry:Harmony_telemetry.Telemetry.t ->
  ?pool:Harmony_parallel.Pool.t ->
  ?options:options ->
  Objective.t ->
  outcome
(** Run the search.  All proposals are snapped into the objective's
    space, so the objective is only ever called on valid grid
    configurations.

    [optimize] drives a {!Search}, measuring each batch it asks for
    with {!Objective.eval_batch}: the phases that produce whole
    configuration sets — the initial simplex, the shrink step, each
    oriented restart — ask for one batch, and with a [pool] those
    configurations are measured in parallel.  The
    evaluation sequence, budget accounting, and result are
    byte-identical with and without a pool at any domain count.

    With a live [telemetry] handle the search emits a [simplex.init]
    span around the initial-simplex evaluation, a [simplex.step] span
    per transformation step (its [kind] argument is
    reflect/expand/contract/shrink/converged, mirrored as a
    [simplex.<kind>] instant), a [simplex.restart] span per oriented
    restart, and [simplex.steps]/[simplex.restarts] counters.
    Telemetry observes and never steers: the search path is identical
    with the handle off. *)

(** The search as an ask/tell state machine held in one plain record:
    it asks for a batch of configurations, the caller measures them
    and tells the values back, and the search runs on to its next
    batch or its end.  {!optimize} measures each batch with
    {!Objective.eval_batch}; the online {!Controller} hands a batch out
    one configuration per client report.  Both see the same search:
    the same batches in the same order, and the same telemetry events
    between them, so a [simplex.step] span may open in one {!tell} and
    close in a later one. *)
module Search : sig
  type t

  val start :
    ?telemetry:Harmony_telemetry.Telemetry.t ->
    ?options:options ->
    space:Space.t ->
    direction:Objective.direction ->
    unit ->
    t
  (** Start a search and run it to its first batch.
      @raise Invalid_argument as {!optimize} does: on a budget below
      n+2 evaluations, or on a degenerate initial simplex that needed
      no measurement. *)

  val asked : t -> Space.config array
  (** The batch to measure next, in order; empty once the search has
      finished.  The search keeps these arrays: do not mutate them. *)

  val tell : t -> float array -> unit
  (** The measurements of {!asked}, in its order.  Runs the search to
      its next batch or its end.
      @raise Invalid_argument when the lengths differ, when the search
      has finished, or when the measured initial simplex is
      degenerate; a search that raised is not to be used again. *)

  val outcome : t -> outcome option
  (** [Some] once the search has finished. *)

  val abandon : t -> unit
  (** A measurement of {!asked} raised: close the [simplex.init] or
      [simplex.restart] span, as {!optimize} does before re-raising. *)
end

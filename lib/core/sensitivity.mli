(** The parameter prioritizing tool (Section 3).

    For each parameter, explore its values while every other parameter
    is held at its default, and define the sensitivity as

    {v |P_a - P_b| / |v'_a - v'_b| v}

    where [P_a]/[P_b] are the maximum/minimum observed performance,
    [v'] the parameter value normalized onto [0, 1] (so wide-ranged
    parameters get no excessive weight), and [a]/[b] the argmax/argmin
    points.  Large sensitivity means changing the parameter moves the
    performance directly, so it deserves tuning priority; flat
    parameters can be discarded or deferred.  The tool assumes
    parameter interactions are small (the paper points users to
    factorial designs otherwise). *)

open Harmony_objective

type score = {
  index : int;            (** parameter index in the space *)
  name : string;
  sensitivity : float;
  best_value : float;     (** parameter value at the best sweep point *)
  worst_value : float;
  evaluations : int;      (** sweep points measured *)
}

type report = { scores : score array (** in parameter order *) }

val analyze :
  ?telemetry:Harmony_telemetry.Telemetry.t ->
  ?pool:Harmony_parallel.Pool.t ->
  ?max_points:int ->
  ?repeats:int ->
  Objective.t ->
  report
(** One-at-a-time sweep of every parameter.  Parameters with more
    than [max_points] (default 16) grid values are subsampled evenly
    (endpoints always included).  [repeats] (default 1) measures each
    sweep point several times and averages — an extension beyond the
    paper that damps the max-min estimator's noise amplification on
    noisy systems (ablated in the benches).

    [pool] fans the per-parameter sweeps out across domains — they
    are independent by construction, so the report is identical to
    the sequential one.  Objectives marked {!Objective.noisy} ignore
    [pool] and stay sequential: their shared noise stream would make
    the draw order (and hence the scores) depend on scheduling.

    With a live [telemetry] handle the whole sweep is bracketed by a
    [sensitivity] span, each parameter yields a [sensitivity.param]
    instant (emitted after the sweeps, in parameter order, so the
    trace does not depend on pool scheduling), and
    [sensitivity.evaluations] counts the points measured. *)

val ranked : report -> score array
(** Scores sorted by decreasing sensitivity (ties by parameter
    order). *)

val top_n : report -> int -> int list
(** Indices of the [n] most sensitive parameters, ascending by index
    (clamped to the dimension count). *)

val evaluations : report -> int
(** Total objective evaluations the analysis spent. *)

val pp : Format.formatter -> report -> unit

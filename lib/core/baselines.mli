(** Baseline search strategies.

    Comparators for the simplex tuner: full enumeration (the
    exhaustive search behind Figure 4's performance distributions), its
    Monte-Carlo approximation for spaces too large to enumerate, and
    grid simulated annealing. *)

open Harmony_param
open Harmony_objective

type outcome = {
  best_config : Space.config;
  best_performance : float;
  trace : Recorder.entry list;
  evaluations : int;
}

val exhaustive : ?limit:int -> Objective.t -> outcome
(** Evaluate every grid configuration.
    @raise Invalid_argument when the space cardinality exceeds
    [limit] (default 1_000_000). *)

val random_sweep :
  Harmony_numerics.Rng.t -> samples:int -> Objective.t -> float array
(** [samples] uniform grid draws: the performances {!exhaustive}
    would see, approximated for spaces too large to enumerate. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val simulated_annealing :
  Harmony_numerics.Rng.t ->
  ?max_evaluations:int ->
  ?initial_temperature:float ->
  Objective.t ->
  outcome
(** Grid simulated annealing: random single-coordinate neighbour
    moves, Metropolis acceptance, geometric cooling to ~1% of the
    initial temperature (default: 10% of the first measurement's
    magnitude) over the budget (default 400). *)

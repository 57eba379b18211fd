(** Evaluation recording.

    "During the tuning process, Active Harmony will keep a record of
    all the parameter values together with the associated performance
    results" (Section 4.2).  Wrapping an objective in a recorder
    captures that log; it is the raw material of the experience
    database and of the tuning-trace metrics. *)

open Harmony_param

type entry = { index : int; config : Space.config; performance : float }

type t

val wrap : ?on_record:(entry -> unit) -> Objective.t -> t * Objective.t
(** [wrap obj] returns a recorder and an objective that behaves like
    [obj] but logs every evaluation (in order) into the recorder.
    [on_record] is called with each entry right after it is logged —
    the hook incremental checkpointing hangs off (exceptions it raises
    propagate out of the evaluation). *)

val entries : t -> entry list
(** All evaluations, oldest first. *)

val count : t -> int

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val clear : t -> unit

val best : Objective.t -> t -> entry option
(** Best recorded entry under the objective's direction (ties broken
    towards the earliest). *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val lookup : t -> Space.config -> float option
(** Most recent recorded measurement of exactly this configuration,
    if any — lets a tuner skip re-measuring known points. *)

(** Evaluation recording.

    "During the tuning process, Active Harmony will keep a record of
    all the parameter values together with the associated performance
    results" (Section 4.2).  Wrapping an objective in a recorder
    captures that log; it is the raw material of the experience
    database and of the tuning-trace metrics. *)

open Harmony_param

type entry = { index : int; config : Space.config; performance : float }

type t

val wrap : Objective.t -> t * Objective.t
(** [wrap obj] returns a recorder and an objective that behaves like
    [obj] but logs every evaluation (in order) into the recorder. *)

val entries : t -> entry list
(** All evaluations, oldest first. *)

val count : t -> int

val best : Objective.t -> t -> entry option
(** Best recorded entry under {!Objective.improves}: a NaN reading
    loses to any number, and ties go to the earliest. *)

(** Tuning a subset of parameters.

    "We let the system tune the n most sensitive parameters while
    leaving the rest of the parameters with their default values"
    (Section 5.2).  A projected objective exposes only the selected
    dimensions; evaluations embed them back into a full base
    configuration. *)

open Harmony_param
open Harmony_objective

type t

val project : Objective.t -> indices:int list -> ?base:Space.config -> unit -> t
(** [project obj ~indices ()] keeps the listed parameter indices
    (deduplicated, ascending); all other parameters are frozen at
    [base] (default: the space's defaults).
    @raise Invalid_argument on an empty or out-of-range index list. *)

val objective : t -> Objective.t
(** The reduced-dimensional objective. *)

val embed : t -> Space.config -> Space.config
(** Lift a reduced configuration to the full space. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val restrict : t -> Space.config -> Space.config
(** Drop the frozen coordinates of a full configuration. *)

val indices : t -> int list

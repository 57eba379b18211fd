(** Discrete-event simulation engine.

    A simulation is an event loop over a time-ordered heap of
    callbacks.  Handlers receive the engine so they can read the clock
    and schedule further events.  Equal-time events fire in schedule
    order (deterministic). *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time (starts at 0). *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** Schedule a handler [delay] time units from now.
    @raise Invalid_argument on a negative delay. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val schedule_at : t -> time:float -> (t -> unit) -> unit
(** Schedule at an absolute time, which must not be in the past. *)

val run : ?until:float -> t -> unit
(** Fire events in time order until the queue empties, or — when
    [until] is given — until the clock would pass it (the clock is
    then left at [until]; remaining events stay queued). *)

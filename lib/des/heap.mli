(** A binary min-heap keyed by float priority with FIFO tie-breaking.

    The event queue of the discrete-event simulator: events at equal
    times fire in insertion order, which keeps simulations
    deterministic.

    The heap is monomorphic — unboxed float keys and int payloads on
    parallel arrays — so push/pop allocate nothing; callers that need
    richer payloads keep them in a slab and queue the index (as
    {!Sim} does with its handler table). *)

type t

val create : unit -> t
val is_empty : t -> bool
val push : t -> float -> int -> unit

val min_key : t -> float
(** The smallest key, without removing or allocating.
    @raise Invalid_argument on an empty heap. *)

val pop_payload : t -> int
(** Remove the minimum and return its payload, without allocating.
    @raise Invalid_argument on an empty heap. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val clear : t -> unit
(** Empty the heap, keeping its storage for reuse. *)

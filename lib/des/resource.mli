(** A capacity-limited server pool with a bounded FIFO accept queue.

    Models one tier of the web-service pipeline: [capacity] parallel
    servers (worker processes / connections), and a waiting queue of
    at most [queue_limit] requests (the accept/backlog queue).  A
    request that arrives when all servers are busy and the queue is
    full is rejected — the paper's accept-count parameters control
    exactly this. *)

type t

val create : capacity:int -> ?queue_limit:int -> unit -> t
(** [queue_limit] defaults to unbounded.  Requires [capacity >= 1] and
    [queue_limit >= 0]. *)

val capacity : t -> int

val submit :
  Sim.t ->
  t ->
  service_time:float ->
  on_complete:(Sim.t -> unit) ->
  on_reject:(Sim.t -> unit) ->
  unit
(** Submit a request.  Either it starts service now, waits in FIFO
    order, or — if the queue is full — [on_reject] fires
    immediately.  [on_complete] fires when service finishes.
    [service_time] is fixed at submission (sampled by the caller). *)

val utilization_time : t -> float
(** Integral of (busy servers) over simulation time so far: divide by
    elapsed time and capacity for average utilization. *)

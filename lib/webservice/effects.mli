(** How the ten tunables shape tier behaviour.

    This module is the shared physics of the analytic model and the
    discrete-event simulator: given a configuration and a workload
    mix, it derives cache hit probabilities, per-interaction service
    times (with thrashing and contention inflation), pool sizes, and
    queue limits.  The formulas are synthetic but engineered to
    reproduce the qualitative structure the paper reports:

    - desirable configurations lie strictly inside the box (extreme
      values thrash or starve) — the premise of Section 4.1;
    - the MySQL network buffer and delayed-insert queue dominate under
      the ordering mix, the proxy cache memory under the shopping mix
      (Figure 8's discussion);
    - accept queues trade rejection rate against queueing delay. *)

type t

val derive : Wsconfig.t -> mix:Tpcw.mix -> t

val cache_hit_probability : t -> Tpcw.interaction -> float
(** Probability that the proxy serves the interaction from cache;
    [0.] for non-cacheable interactions. *)

val proxy_hit_ms : t -> Tpcw.interaction -> float
(** Proxy service time when serving from cache. *)

val proxy_forward_ms : t -> Tpcw.interaction -> float
(** Proxy work to forward a miss and relay the response. *)

val app_service_ms : t -> Tpcw.interaction -> float
(** Application-tier service time: CPU demand plus buffered transfer
    cost, inflated by memory thrashing. *)

val db_service_ms : t -> Tpcw.interaction -> float
(** Database service time: read demand, delayed-queue-discounted
    write demand, net-buffer transfer cost, inflated by memory and
    lock contention. *)

val proxy_servers : t -> int
val proxy_queue_limit : t -> int
val app_servers : t -> int
val app_queue_limit : t -> int
val db_servers : t -> int
val db_queue_limit : t -> int

(* lint: allow U1 — hook the model reference suite compares the fused means through *)
val mean_cache_hit : t -> float
(** Mix-weighted probability that a request is a cache hit. *)

(* lint: allow U1 — hook the model reference suite compares the fused means through *)
val mean_proxy_ms : t -> float
(* lint: allow U1 — hook the model reference suite compares the fused means through *)
val mean_app_ms : t -> float
(* lint: allow U1 — hook the model reference suite compares the fused means through *)
val mean_db_ms : t -> float
(** Mix-weighted per-request expected demand at each tier (app/db
    weighted by miss probability) — the inputs of the analytic
    model. *)

val means_into : t -> floatarray -> unit
(** [means_into t out] writes {!mean_cache_hit}, {!mean_proxy_ms},
    {!mean_app_ms} and {!mean_db_ms} into cells 0 to 3 of [out] in one
    pass over the mix, allocating nothing; each is bit-identical to
    its function.
    @raise Invalid_argument when [out] has fewer than 4 cells. *)

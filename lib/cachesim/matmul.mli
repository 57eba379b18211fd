(** Blocked matrix multiplication against the cache simulator.

    C (m x n) += A (m x k) * B (k x n), all row-major double-precision
    arrays, computed in (mb x nb x kb) blocks.  The element-access
    trace is replayed through an L1/L2 hierarchy and costed: one cycle
    per access plus per-level miss penalties — the classic tile-size
    tuning problem for scientific libraries. *)

type hierarchy = {
  l1 : Cache.t;
  l2 : Cache.t;
  l1_miss_cycles : int;  (** extra cycles on an L1 miss that hits L2 *)
  l2_miss_cycles : int;  (** extra cycles on an L2 miss (memory) *)
}

type result = {
  cycles : float;
  l1_hit_rate : float;
  l2_hit_rate : float;  (** of the accesses that missed L1 *)
  flops : int;          (** 2*m*n*k *)
}

val run :
  ?hierarchy:hierarchy -> m:int -> n:int -> k:int ->
  mb:int -> nb:int -> kb:int -> unit -> result
(** Simulate one blocked multiplication.  Block sizes are clamped into
    [1, dimension].  The hierarchy is reset first.
    @raise Invalid_argument on non-positive dimensions. *)

val objective :
  ?hierarchy:hierarchy -> m:int -> n:int -> k:int -> unit ->
  Harmony_objective.Objective.t
(** Lower-is-better simulated cycles over {!space} (block sizes capped
    at the matrix dimensions). *)

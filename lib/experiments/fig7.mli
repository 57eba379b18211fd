(** Figure 7: tuning with experiences recorded under workloads at
    increasing distance from the current one.

    The system faces workload A; the tuning server is first trained
    with historical data recorded under a workload A' whose
    characteristics lie at Euclidean distance d from A's.  The paper
    shows tuning time growing with d while the tuning result stays
    roughly flat: experience close to the current workload helps
    most. *)

type point = {
  distance : float;        (** characteristic-space distance A to A' *)
  tuning_time : int;       (** convergence iteration when seeded with A' *)
  performance : float;     (** tuned performance under A *)
}

type result = {
  points : point list;
  cold_time : int;         (** no-history reference *)
  cold_performance : float;
}

(* lint: allow U1 — paper artifact: the experiment tests assert on its rows *)
val run :
  ?pool:Harmony_parallel.Pool.t ->
  ?seed:int ->
  ?distances:float list ->
  unit ->
  result
(** Distances default to 0.0, 0.1 ... 0.6 in normalized
    characteristic space (the paper's x-axis 0..6 rescaled).  [pool]
    fans the independent (drift, distance) arms out across domains;
    the result is identical to the sequential one. *)

val table : ?pool:Harmony_parallel.Pool.t -> ?seed:int -> unit -> Report.table

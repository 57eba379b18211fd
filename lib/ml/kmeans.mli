(** Lloyd's k-means clustering.

    One of the data analyzer's clustering mechanisms (Figure 2).
    Useful for compressing an experience database: cluster historical
    workload characteristics and keep one representative per
    cluster. *)

type result = {
  centroids : float array array;
  assignment : int array;   (** cluster of each input point *)
  inertia : float;          (** sum of squared distances to centroids *)
  iterations : int;
}

val fit :
  Harmony_numerics.Rng.t -> k:int -> ?max_iter:int -> float array array -> result
(** [fit rng ~k points] clusters [points] into [k] groups
    (k-means++ seeding, Lloyd iterations until stable or [max_iter],
    default 100).  Requires [1 <= k <= Array.length points] and a
    rectangular non-empty matrix. *)

val classifier : Harmony_numerics.Rng.t -> k:int -> Classifier.training -> Classifier.t
(** Cluster the training features, give each cluster the majority
    label of its members, classify queries by nearest centroid. *)

(** Common interface of the data analyzer's classification plug-ins.

    Figure 2 of the paper lists decision trees, k-means, and neural
    networks as interchangeable "machine learning clustering
    mechanisms"; the current implementation uses least-squares
    nearest-neighbour.  All of ours fit this signature: train on
    labelled feature vectors, then map an observed vector to the label
    of the best-matching class. *)

type t = {
  name : string;
  classify : float array -> int;
      (** Index of the matched class (into the training labels). *)
}

type training = { features : float array array; labels : int array }

val validate_training : training -> int
(** Checks shapes (non-empty, rectangular, labels in range, equal
    lengths) and returns the feature dimension.
    @raise Invalid_argument otherwise. *)

val num_classes : training -> int
(** [1 + max label]. *)

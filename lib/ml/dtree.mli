(** CART-style decision tree over numeric features (Gini impurity,
    axis-aligned threshold splits).  Listed in Figure 2 as one of the
    data analyzer's predefined classification methods. *)

type tree =
  | Leaf of int
  | Node of { feature : int; threshold : float; left : tree; right : tree }
      (** queries with [x.(feature) <= threshold] go left *)

(* lint: allow U1 — the tree tests fit and inspect trees through this *)
val fit : ?max_depth:int -> ?min_samples:int -> Classifier.training -> tree
(** Greedy top-down induction; stops at pure nodes, [max_depth]
    (default 8), or fewer than [min_samples] (default 2) examples. *)

(* lint: allow U1 — the tree tests fit and inspect trees through this *)
val classify : tree -> float array -> int

val classifier : ?max_depth:int -> ?min_samples:int -> Classifier.training -> Classifier.t

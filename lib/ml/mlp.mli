(** A small multilayer perceptron (one tanh hidden layer, softmax
    output, SGD with cross-entropy) — the "ANN" plug-in of Figure 2.

    Deliberately tiny: workload-characterization vectors are short
    (14 entries for TPC-W interaction frequencies) and the number of
    stored experience classes small. *)

type t

(* lint: allow U1 — the MLP tests read class probabilities through this *)
val fit :
  Harmony_numerics.Rng.t ->
  ?hidden:int ->
  ?epochs:int ->
  ?learning_rate:float ->
  Classifier.training ->
  t
(** Defaults: 16 hidden units, 200 epochs, learning rate 0.05.
    Features are internally standardized (per-dimension mean/stddev
    from the training set). *)

(* lint: allow U1 — the MLP tests read class probabilities through this *)
val predict_probabilities : t -> float array -> float array
(** Softmax class probabilities. *)

val classifier :
  Harmony_numerics.Rng.t ->
  ?hidden:int ->
  ?epochs:int ->
  ?learning_rate:float ->
  Classifier.training ->
  Classifier.t

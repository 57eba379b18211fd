(** Analytic test objectives with known optima, for the unit and
    property tests of the search kernels.  All are defined over
    explicit discrete grids. *)

open Harmony_objective

val quadratic_bowl : ?dims:int -> ?target:float array -> unit -> Objective.t
(** Lower-is-better; minimum value [0] at [target] (defaults to the
    grid centre).  Each dimension spans [0, 100] step [1]. *)

val rosenbrock : ?dims:int -> unit -> Objective.t
(** The classic banana valley on a [-2.048, 2.048] grid with step
    0.016; lower-is-better with minimum 0 at all-ones. *)

val rastrigin : ?dims:int -> unit -> Objective.t
(** Highly multimodal; lower-is-better with minimum 0 at the origin,
    grid [-5.12, 5.12] step 0.08. *)

val interior_peak : ?dims:int -> ?peak:float array -> unit -> Objective.t
(** Higher-is-better single peak strictly inside the box — models the
    paper's observation that good web-server configurations are far
    from extreme values.  Peak value 100. *)

val step_plateau : ?dims:int -> unit -> Objective.t
(** Piecewise-constant landscape (plateaus), higher-is-better; stresses
    simplex behaviour on flat regions, like rule-generated synthetic
    data. *)

val with_irrelevant : Objective.t -> int list -> Objective.t
(** [with_irrelevant obj idxs] rebuilds the objective so the listed
    coordinates are ignored (replaced by their defaults before
    evaluation): ground-truth irrelevant parameters for sensitivity
    tests (Section 5.2). *)

val negate : Objective.t -> Objective.t
(** Flip the direction by negating measurements, to run a minimizer
    as a maximizer. *)

val with_snap : Objective.t -> Objective.t
(** Snap configurations onto the grid before evaluating; makes an
    objective total over continuous proposals.  Over [Keyed]
    randomness the result is [Stream]: configurations that snap to
    one point share its attempt sequence. *)

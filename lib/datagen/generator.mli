(** Seeded synthetic-data generator: our substitute for DataGen 3.0.

    The generated object behaves like the paper's rule data: the joint
    space of tunable parameters and workload characteristics is
    partitioned into axis-aligned cells (a regular k-d partition —
    each cell is one CNF rule), and the performance inside a cell is
    constant: the value of a smooth ground-truth {e response} at the
    cell centre.  The partition is evaluated procedurally, so spaces
    far too large to materialize (the paper's 2^1000 motivation) still
    evaluate in O(dims); {!to_rules} materializes the explicit rule
    set for small spaces.

    The ground-truth response is a weighted sum of per-parameter
    unimodal bumps (interior optima), plus small pairwise interaction
    terms, with bump weights modulated by the workload characteristics
    — so different workloads give different parameter sensitivities,
    exactly the structure Sections 5 and 6 of the paper rely on.
    Designated {e irrelevant} parameters get zero weight and are never
    split on, so changing them never changes performance. *)

open Harmony_param
open Harmony_objective

type t

(* lint: allow U1 — the generator tests build small datasets through this *)
val generate :
  space:Space.t ->
  ?workload_dims:int ->
  ?irrelevant:int list ->
  ?cells_per_param:int ->
  ?cells_per_workload:int ->
  ?interaction_strength:float ->
  ?perf_range:float * float ->
  seed:int ->
  unit ->
  t
(** Defaults: 3 workload dimensions, no irrelevant parameters, 8
    cells per parameter, 4 per workload dimension, interaction
    strength 0.1, performance rescaled onto [1, 50] (the paper's
    Figure 4 normalization). *)

val synthetic_webservice : ?seed:int -> unit -> t
(** The Section 5 dataset: 15 tunable parameters named D..R (each an
    integer grid 1..10), of which H and M are performance-irrelevant,
    plus 3 workload characteristics (browsing, shopping, ordering
    weights). *)

val space : t -> Space.t
val irrelevant : t -> int list

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val mix : browsing:float -> shopping:float -> ordering:float -> float array
(** Workload-characteristic vector; weights are normalized to sum
    to 1. *)

val browsing_mix : float array
val shopping_mix : float array
val ordering_mix : float array
(** TPC-W-style mixes: browsing 0.95/0.04/0.01, shopping
    0.80/0.15/0.05, ordering 0.50/0.25/0.25 (browse/shop/order
    weight). *)

val objective : t -> workload:float array -> Objective.t
(** Higher-is-better objective over the tunable space with the
    workload fixed, with rule-data semantics: a configuration
    evaluates to the response at its containing cell's centre.
    @raise Invalid_argument when the workload arity is not the
    dataset's. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val objective_of_rules :
  Rules.t -> space:Space.t -> ?workload:float array -> unit -> Objective.t
(** Tune directly against an explicit rule set (e.g. one written in
    {!Rules.of_text} notation): the rule input vector is the
    configuration followed by the fixed [workload] characteristics
    (default none).  Higher-is-better.
    @raise Invalid_argument when the rule arity is not
    [Space.dims space + Array.length workload]. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val to_rules : ?max_rules:int -> t -> Rules.t
(** Materialize the explicit CNF rule set (one rule per cell) over the
    joint space.
    @raise Invalid_argument when the cell count exceeds [max_rules]
    (default 100_000). *)

(** The Active Harmony resource specification language, extended with
    parameter restriction (Appendix B of the paper).

    A specification is an ordered list of bundles such as

    {v
      { harmonyBundle B { int {1 8 1} }}
      { harmonyBundle C { int {1 9-$B 1} }}
    v}

    where a bound may be an arithmetic expression over the values of
    {e earlier} bundles ([$B]).  Restriction prunes infeasible regions
    before the search starts: only "meaningful" configurations are
    enumerated/sampled. *)

type expr =
  | Const of int
  | Ref of string  (** [$Name]: the value chosen for an earlier bundle *)
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr  (** integer division *)

type bundle = { name : string; lo : expr; hi : expr; step : expr }

type t = private bundle list

exception Parse_error of string

(* lint: allow U1 — the simplex reference suite and the fuzzers build specs with this *)
val of_bundles : bundle list -> t
(** @raise Invalid_argument on duplicate names or a bound referring to
    a bundle that is not strictly earlier. *)

val parse : string -> t
(** Parse the concrete syntax above.
    @raise Parse_error on malformed input. *)

val to_string : t -> string
(** Round-trippable concrete syntax. *)

val names : t -> string list

(* lint: allow U1 — the simplex reference suite rebuilds bounds with this *)
val eval_expr : (string -> int) -> expr -> int
(** [eval_expr lookup e] evaluates [e]; [lookup] resolves [$Name]
    references.
    @raise Division_by_zero on division by zero. *)

(* lint: allow U1 — the simplex reference suite compares bounds through this *)
val bounds : t -> int array -> int -> int * int * int
(** [bounds t values i] is the [(lo, hi, step)] of bundle [i] given the
    values chosen for bundles [0 .. i-1] (later entries of [values]
    are ignored).  The range is empty when [hi < lo]. *)

val to_space : t -> Space.t
(** The box space of the static bounds: per-bundle [(lo, hi)]
    intervals that hold for {e every} feasible assignment, computed by
    interval arithmetic over the bound expressions — the smallest box
    containing the restricted space.  A box-constrained search kernel
    can run over this space with {!repair} projecting proposals into
    the restricted region.  Each bundle's step is its step expression
    evaluated at the interval midpoints of its references; defaults
    sit at interval midpoints, snapped.
    @raise Invalid_argument if interval evaluation proves a bundle's
    range always empty. *)

val feasible_count : ?limit:int -> t -> int
(** Number of feasible configurations, by recursive enumeration.
    Stops and returns [limit] once the count reaches [limit]
    (default [max_int]). *)

val enumerate : t -> int array Seq.t
(** Lazy enumeration of all feasible configurations, lexicographic in
    bundle order. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val sample : Harmony_numerics.Rng.t -> t -> int array option
(** Sequential conditional sampling: each bundle uniform within its
    conditional range.  [None] if an empty range is reached.  (Not
    uniform over the feasible set, but every feasible configuration
    has positive probability.) *)

val repair : t -> float array -> float array
(** Walk the bundles in order, snapping each coordinate into its
    conditional range given the already-repaired prefix.  When a range
    is empty the coordinate is set to its conditional lower bound and
    the result may be infeasible (check it against {!bounds} after
    truncation).  This is how a box-constrained search kernel respects
    restrictions. *)

(** A search space: an ordered set of tunable parameters.

    A configuration is a [float array] whose [i]-th entry is the value
    of the [i]-th parameter.  The Active Harmony tuner treats each
    parameter as an independent dimension (paper, Section 2). *)

type config = float array

type t

val create : Param.t list -> t
(** @raise Invalid_argument on duplicate parameter names or an empty
    list. *)

val params : t -> Param.t array
val dims : t -> int
val param : t -> int -> Param.t

val defaults : t -> config
(** Configuration with every parameter at its default value. *)

val snap : t -> config -> config
(** Snap every coordinate onto its parameter grid (fresh array). *)

val is_valid : t -> config -> bool
(** All coordinates on-grid and in range, with the right arity. *)

val normalize : t -> config -> float array
(** Per-coordinate [0, 1] normalization (for distances and
    sensitivities). *)

val cardinality : t -> float
(** Number of grid configurations, as a float (spaces like 2^1000 in
    the paper's motivation overflow any integer type). *)

val random : Harmony_numerics.Rng.t -> t -> config
(** Uniform over the grid. *)

val neighbors : t -> config -> config list
(** Configurations at +/- one step in exactly one coordinate. *)

val enumerate : t -> config Seq.t
(** Lazy row-major enumeration of every grid configuration.  Only
    sensible for small spaces (exhaustive search, Figure 4). *)

(* lint: allow U1 — the analyzer's seed-pick reference measures distances with this *)
val distance : t -> config -> config -> float
(** Euclidean distance in normalized coordinates. *)

val config_key : config -> string
(** Compact hashable key: the exact bit pattern of every coordinate.
    Two configurations share a key iff they are bit-identical, which
    grid-snapped configurations produced by the same [Param] always
    are — the memo key for [Objective.cached]. *)

val config_equal : config -> config -> bool
(** Coordinate-wise equality within 1e-9. *)

val pp_config : t -> Format.formatter -> config -> unit

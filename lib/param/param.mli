(** A tunable parameter.

    Following the paper (Section 3), each parameter is specified with
    four values: minimum, maximum, default value, and the distance
    between two neighbour values (the step).  A parameter's legal
    values form the grid [min; min+step; ...; max]. *)

type t = private {
  name : string;
  min_value : float;
  max_value : float;
  step : float;
  default : float;
}

val make :
  name:string -> min_value:float -> max_value:float -> step:float ->
  default:float -> t
(** Builds a parameter.  The default is snapped onto the grid.
    @raise Invalid_argument if [max_value < min_value], [step <= 0],
    or the default lies outside the range. *)

val int_range : name:string -> lo:int -> hi:int -> ?step:int -> default:int -> unit -> t
(** Convenience constructor for integer-valued parameters
    (step defaults to 1). *)

val num_values : t -> int
(** Number of grid points. *)

val value_at : t -> int -> float
(** [value_at p i] is the [i]-th grid point.
    @raise Invalid_argument if [i] is out of range. *)

val values : t -> float array
(** All grid points, ascending. *)

val index_of : t -> float -> int
(** Index of the grid point nearest to the given value (after
    clamping into range). *)

val clamp : t -> float -> float
(** Clamp into [min_value, max_value]. *)

val snap : t -> float -> float
(** Clamp, then round to the nearest grid point.  This is the paper's
    adaptation of the simplex method to discrete spaces: "using the
    resulting values from the nearest integer point in the space". *)

val is_valid : t -> float -> bool
(** True when the value is (within 1e-9 of) a grid point in range. *)

val normalize : t -> float -> float
(** [normalize p v] maps the range onto [0, 1]
    (the paper's [v' = (v - vmin) / (vmax - vmin)]); a single-point
    range maps to [0]. *)

val denormalize : t -> float -> float
(** Inverse of {!normalize} followed by {!snap}. *)

val snap_in_place : t array -> float array -> unit
(** [snap_in_place ps c] sets every [c.(i)] to [snap ps.(i) c.(i)],
    boxing no float (a search step snaps every proposal).
    @raise Invalid_argument when the lengths differ. *)

val normalize_into : t array -> float array -> floatarray -> int -> unit
(** [normalize_into ps c dst pos] writes [normalize ps.(i) c.(i)] to
    [dst] at [pos + i] for every [i], boxing no float.
    @raise Invalid_argument when [ps] and [c] differ in length (and
    as {!Float.Array.set} when [dst] is too short). *)

val pp : Format.formatter -> t -> unit

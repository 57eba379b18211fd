(** Categorical (enumerated) parameters.

    Active Harmony tunes "what algorithm is being used (e.g., heap
    sort vs. quick sort)" as readily as buffer sizes (paper,
    Section 2).  A categorical parameter is encoded on the integer
    grid [0 .. n-1]; these helpers translate between labels and the
    encoded values so objectives can pattern-match on the label. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val param : name:string -> ?default:string -> string list -> Param.t
(** [param ~name labels] builds the encoded parameter.  [default] must
    be one of the labels (defaults to the first).
    @raise Invalid_argument on an empty or duplicated label list, or
    an unknown default. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val label_of : string list -> float -> string
(** Decode a configuration coordinate (snapped to the nearest index
    and clamped).
    @raise Invalid_argument on an empty label list. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val value_of : string list -> string -> float
(** Encode a label.
    @raise Not_found if absent. *)

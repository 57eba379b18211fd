(** Plain-text tables for the experiment harness: every figure and
    table of the paper is regenerated as one of these. *)

type table = {
  id : string;          (** e.g. "fig5", "table1" *)
  title : string;
  columns : string list;
  rows : string list list;
  notes : string list;  (** paper-vs-measured commentary *)
}

val make :
  id:string -> title:string -> columns:string list ->
  ?notes:string list -> string list list -> table

val print : Format.formatter -> table -> unit
(** Render with aligned columns, a rule under the header, and notes
    underneath. *)

val f1 : float -> string
(** One-decimal float. *)

val f2 : float -> string

val pct : float -> string
(** Percentage with one decimal, e.g. "12.5%". *)

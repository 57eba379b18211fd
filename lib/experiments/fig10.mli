(** Appendix B / Figure 10: search-space reduction by parameter
    restriction.

    Two scenarios from the paper:

    - {b connectors}: a node runs a fixed total of A processes split
      between disk-I/O (B), computation (C) and networking (D)
      processes; knowing B+C+D=A, only B and C need tuning, with
      C's range conditioned on B — the dashed region of Figure 10 is
      pruned.
    - {b row partition}: a k-row matrix is split into n row blocks;
      block i's size range is conditioned on the earlier blocks.

    We count feasible configurations with and without restriction and
    verify the enumerated restricted space contains exactly the
    meaningful configurations. *)

type scenario = {
  name : string;
  unrestricted : int;  (** configurations before restriction *)
  restricted : int;    (** configurations after restriction *)
  reduction : float;   (** 1 - restricted/unrestricted *)
  spec : string;       (** the resource-specification-language text *)
}

type result = { scenarios : scenario list }

val connectors_spec : total:int -> Harmony_param.Rsl.t
(** The B/C/(D) specification for A = [total] processes, at least one
    process per task type. *)

(* lint: allow U1 — paper artifact: the rsl tests count Figure 10's partitions through this *)
val partition_spec : rows:int -> blocks:int -> Harmony_param.Rsl.t
(** Row-partition specification: [blocks - 1] free sizes, each at
    least 1, leaving at least 1 row per remaining block. *)

(* lint: allow U1 — paper artifact: the experiment tests assert on its rows *)
val run : ?total:int -> ?rows:int -> ?blocks:int -> unit -> result
(** Defaults: A=10 processes; 20 rows into 4 blocks. *)

val table : unit -> Report.table

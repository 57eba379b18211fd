(** Appendix B's closing claim: "by observing the relations among
    parameters and eliminating infeasible configurations, this
    technique ... speeds up the tuning process."

    We tune the connector-allocation scenario (B + C + D = A processes
    across disk/compute/network tasks) two ways with the same budget:

    - {b restricted}: the tuner works over the RSL box with proposals
      projected into the feasible region ({!Harmony_param.Rsl.repair});
    - {b unrestricted}: the tuner sees the naive B, C box where
      infeasible combinations (B + C >= A) simply measure terribly —
      what a tuner without the restriction language faces.

    Both minimize the completion time of the slowest task group. *)

type row = {
  variant : string;
  feasible_space : int;         (** configurations the search can express *)
  settling_time : int;          (** iterations until the last >0.5% improvement *)
  best_time : float;            (** completion time found *)
  wasted_infeasible : int;      (** evaluations spent on infeasible configs *)
}

type result = { rows : row list; optimum : float }

(* lint: allow U1 — paper artifact: the experiment tests assert on its rows *)
val run : ?total:int -> ?max_evaluations:int -> unit -> result
(** Defaults: A = 24 processes, 150 evaluations. *)

val table : unit -> Report.table

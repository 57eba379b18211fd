(** Table 1: improved search refinement.

    Original (extreme-valued initial simplex) versus improved
    (interior spread) tuning of the web service under the shopping and
    ordering workloads.  Columns follow the paper: tuned performance
    (WIPS), convergence time (iterations), and the worst performance
    seen during the oscillation stage.  The paper reports ~35% shorter
    convergence with similar tuned performance, and a smaller initial
    oscillation for the shopping workload. *)

type row = {
  workload : string;
  variant : string;           (** "original" or "improved" *)
  performance : float;
  convergence_time : int;
  worst_performance : float;
}

type result = {
  rows : row list;
  convergence_reduction : (string * float) list;
      (** per workload: 1 - improved/original convergence time *)
}

(* lint: allow U1 — paper artifact: the experiment tests assert on its rows *)
val run : ?max_evaluations:int -> unit -> result
(** Default budget: 150 evaluations per run (the scale of the
    paper's runs).  Convergence is measured against each run's own
    final best, within 2%. *)

val table : ?max_evaluations:int -> unit -> Report.table

(** Table 2: tuning with and without prior histories.

    The web service serves a workload with and without first training
    the tuning server on historical data recorded under {e another}
    workload (never seen for the current one): the shopping run is
    trained with browsing-workload experience, the ordering run with
    shopping-workload experience.  Columns follow the paper:
    convergence time and the initial performance-oscillation mean
    (standard deviation); we also report the bad-performance iteration
    counts the paper quotes in the text (9 vs 1 for shopping, 11 vs 3
    for ordering). *)

type row = {
  workload : string;
  with_history : bool;
  convergence_time : int;
  initial_mean : float;
  initial_stddev : float;
  bad_iterations : int;
  performance : float;
}

type result = {
  rows : row list;
  convergence_reduction : (string * float) list;
}

(* lint: allow U1 — paper artifact: the experiment tests assert on its rows *)
val run : ?max_evaluations:int -> ?seed:int -> unit -> result

val table : ?max_evaluations:int -> ?seed:int -> unit -> Report.table

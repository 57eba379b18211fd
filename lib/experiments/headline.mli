(** The paper's headline claim (Abstract / Section 8): taken together,
    the improvements reduce the time spent in the initial unstable
    performance stage by 35% up to 50%, while making the process more
    stable (fewer configurations with bad performance).

    We compare the original system (extreme initial simplex, no
    history) against the fully improved one (spread initial simplex
    plus training on prior-run experience) on both web-service
    workloads. *)

type row = {
  workload : string;
  original_unstable : int;     (** iterations before convergence, original *)
  improved_unstable : int;
  reduction : float;           (** 1 - improved/original *)
  original_bad : int;          (** bad-performance iterations *)
  improved_bad : int;
}

type result = { rows : row list }

(* lint: allow U1 — paper artifact: the experiment tests assert on its rows *)
val run : ?max_evaluations:int -> ?seed:int -> unit -> result

val table : ?max_evaluations:int -> ?seed:int -> unit -> Report.table

(** Figure 9: tuning only the n most sensitive web-service parameters.

    For n = 1, 3, 6, 10 and both the shopping and ordering workloads:
    tuning time (bars) and resulting WIPS (points).  The paper reports
    up to 71.8% tuning-time savings at under 2.5% WIPS loss. *)

type cell = {
  workload : string;
  n : int;
  tuning_time : int;
  wips : float;
}

type result = { cells : cell list }

(* lint: allow U1 — paper artifact: the experiment tests assert on its rows *)
val run : ?ns:int list -> unit -> result

val table : unit -> Report.table

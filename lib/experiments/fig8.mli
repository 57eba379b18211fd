(** Figure 8: parameter sensitivity in the cluster-based web service.

    The prioritizing tool applied to the ten web-service parameters
    under the shopping and ordering workloads.  The paper's headline
    observations: the MySQL network buffer matters most when serving
    the ordering workload (database-heavy), the proxy cache memory
    when serving the shopping workload (browse/cacheable-heavy), and
    the HTTP buffer / accept-count parameters are relatively
    unimportant for both. *)

type result = {
  names : string array;
  shopping : float array;   (** sensitivity per parameter *)
  ordering : float array;
}

(* lint: allow U1 — paper artifact: the experiment tests assert on its rows *)
val run : unit -> result

val table : unit -> Report.table

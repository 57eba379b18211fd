(** Figure 4: performance distribution of the search space.

    The paper compares the distribution of (normalized 1..50)
    performance values over the whole search space, obtained by
    exhaustive search, for the real cluster-based web service under a
    shopping workload against the DataGen synthetic data — showing
    the synthetic data emulates the measured system.

    Our spaces are too large to enumerate literally, so the
    distribution is estimated from a seeded uniform sample of the
    grid (a Monte-Carlo exhaustive search); both systems use the same
    sample size. *)

type result = {
  buckets : string array;            (** "1-5", "6-10", ... "46-50" *)
  webservice_fraction : float array; (** fraction of configurations *)
  synthetic_fraction : float array;
  samples : int;
}

(* lint: allow U1 — paper artifact: the experiment tests assert on its rows *)
val run : ?samples:int -> ?seed:int -> unit -> result
(** Defaults: 20_000 samples, seed 7. *)

val table : ?samples:int -> ?seed:int -> unit -> Report.table

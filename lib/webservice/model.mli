(** Closed-queueing-network throughput model of the 3-tier service.

    A fast, deterministic stand-in for running the benchmark: N
    emulated browsers with exponential think time circulate through
    proxy, application, and database stations.  Solved by Schweitzer
    approximate mean value analysis with the Seidmann multi-server
    transformation, plus a retry penalty when the application tier's
    accept queue overflows.

    The model evaluates one configuration in microseconds, which makes
    exhaustive-ish sweeps (Figure 4) and long tuning traces cheap; the
    discrete-event {!Simulation} validates its shape. *)

type options = {
  clients : int;        (** emulated browsers (default 120) *)
  think_ms : float;     (** mean think time (default 1000 ms) *)
}

(* lint: allow U1 — hook the model reference suite compares the fast path through *)
val default_options : options

(** The Schweitzer AMVA fixed-point solver, exposed with its scratch
    state so hot paths can re-solve without allocating: all
    per-station arrays live in a caller-owned (or per-domain)
    {!Amva.scratch}. *)
module Amva : sig
  type scratch

  (* lint: allow U1 — hook the model reference suite compares the fast path through *)
  val scratch : unit -> scratch

  (* lint: allow U1 — hook the model reference suite compares the fast path through *)
  val solve :
    ?scratch:scratch ->
    clients:int ->
    think_ms:float ->
    demands_ms:float array ->
    servers:int array ->
    unit ->
    float
  (** Throughput (interactions per ms) after at most 200 iterations.
      The solve stops earlier only at the exact fixed point — once
      throughput and every queue length repeat bitwise, the remaining
      iterations are the identity, so the result is the 200-iteration
      solve's, bit for bit.
      @raise Invalid_argument on zero stations, mismatched lengths,
      [clients < 1], a server count below 1, or a negative or
      non-finite think time or demand. *)

  (* lint: allow U1 — test hook: the webservice tests check the AMVA population balance through this *)
  val queue_lengths : scratch -> float array
  (** Per-station mean queue lengths of the scratch's last solve. *)
end

(* lint: allow U1 — hook the model reference suite compares the fast path through *)
val mmck_blocking : servers:int -> queue:int -> offered:float -> float
(** Blocking probability of an M/M/c/K station with [servers] servers
    and [queue] waiting places under [offered] Erlangs (arrival rate x
    mean service time); [0.] when [offered <= 0].  Requires
    [servers >= 1]. *)

type result = {
  wips : float;             (** web interactions per second *)
  cache_hit : float;        (** mix-weighted cache hit probability *)
  utilization : float * float * float;  (** proxy, app, db *)
  bottleneck : string;      (** name of the most utilized station *)
  reject_fraction : float;  (** estimated accept-queue overflow *)
}

(* lint: allow U1 — hook the model reference suite compares the fast path through *)
val evaluate : ?options:options -> Wsconfig.t -> mix:Tpcw.mix -> result
(** Solve the model for one configuration.  Stations 0, 1 and 2 are
    the proxy, app and db tiers.
    @raise Invalid_argument when [clients < 1], when [think_ms] is
    negative or not finite, or when the configuration gives a station
    no server or a non-finite demand. *)

(* lint: allow U1 — hook the model reference suite compares the fast path through *)
val wips : ?options:options -> Wsconfig.t -> mix:Tpcw.mix -> float

val objective : ?options:options -> mix:Tpcw.mix -> unit -> Harmony_objective.Objective.t
(** Higher-is-better WIPS over {!Wsconfig.space}. *)

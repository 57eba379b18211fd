(** The fault-tolerant measurement policy.

    A live system does not behave like an infallible
    [config -> float]: trial runs fail, time out, and return corrupted
    readings.  This module turns a faulty objective into a vetted one:

    - {b retry with capped exponential backoff} on transient failures
      and timeouts (all waiting happens on a {!Clock.t} — a simulated
      clock, so tests never sleep);
    - {b median-of-k re-measurement} for noisy objectives, so a single
      corrupted reading cannot pass as the truth;
    - {b MAD-based outlier rejection} among the k readings
      ({!Harmony_numerics.Stats.mad});
    - a {b give-up policy}: a measurement that stays broken surfaces
      as [(float, failure) result] from {!measure}, and as a
      direction-aware worst-case penalty from the total objective
      {!robust} builds — a failed vertex is penalized instead of
      poisoning the simplex.

    Fault injection for tests and ablations lives in
    {!Objective.with_faults}. *)

open Harmony_param

(** Simulated time in milliseconds.  Backoff advances it; nothing ever
    wall-sleeps. *)
module Clock : sig
  type t

  (* lint: allow U1 — the simulated clock tests inject to read backoff time *)
  val create : ?now:float -> unit -> t

  (* lint: allow U1 — the simulated clock tests inject to read backoff time *)
  val now : t -> float
end

type policy = {
  max_attempts : int;     (** physical attempts per wanted reading *)
  backoff_ms : float;     (** delay before the first retry *)
  backoff_factor : float; (** delay multiplier per retry (>= 1) *)
  backoff_cap_ms : float; (** backoff ceiling *)
  samples : int;          (** readings per logical measurement of a
                              {e noisy} objective (median-of-k);
                              deterministic objectives take one *)
  mad_threshold : float;  (** reject readings farther than this many
                              MADs from the median *)
}

val default_policy : policy
(** 4 attempts, 10 ms backoff doubling to an 80 ms cap, median-of-3,
    MAD threshold 6. *)

type failure = {
  attempts : int;                 (** physical attempts spent *)
  faults : int;                   (** faulty readings along the way *)
  last_fault : Objective.fault;   (** what finally made it give up *)
}

(* lint: allow U1 — the model golden generator prints failures through this *)
val pp_failure : Format.formatter -> failure -> unit

(* lint: allow U1 — hook the model reference suite compares reading vetting through *)
val measure :
  ?policy:policy ->
  ?clock:Clock.t ->
  Objective.t ->
  Space.config ->
  (float, failure) result
(** One robust logical measurement: retries, backoff, median-of-k and
    outlier rejection per the policy.  [Error] when no usable reading
    survived the attempt budget (a {!Objective.Persistent} fault gives
    up immediately — retrying a broken configuration is wasted
    budget).
    @raise Invalid_argument on a malformed policy. *)

type summary = {
  measurements : int;  (** logical measurements requested *)
  attempts : int;      (** physical attempts spent *)
  retries : int;       (** attempts forced by a faulty reading *)
  faults : int;        (** faulty readings observed (failures,
                           timeouts, rejected outliers) *)
  give_ups : int;      (** measurements that exhausted the policy and
                           were penalized *)
  backoff_ms : float;  (** simulated time spent backing off *)
}

val no_summary : summary
val pp_summary : Format.formatter -> summary -> unit

type handle
(** Live view onto a {!robust} objective's counters. *)

val summary : handle -> summary

val penalty_for : Objective.direction -> float
(** The default worst-case penalty for a given-up measurement:
    [-1e9] when higher is better, [+1e9] when lower is. *)

val robust :
  ?telemetry:Harmony_telemetry.Telemetry.t ->
  ?policy:policy ->
  ?clock:Clock.t ->
  ?penalty:float ->
  Objective.t ->
  Objective.t * handle
(** [robust obj] is a total objective whose every evaluation is a
    {!measure}: faults are retried, readings vetted, and a measurement
    that still fails evaluates to [penalty] (default
    {!penalty_for} the objective's direction) — worst-case, so the
    simplex walks away from it rather than being poisoned.  Exposes
    merged {!Objective.stats} where [misses] count {e physical}
    measurements and [faults]/[retries] come from this layer; the
    handle gives the full {!summary}.  Thread-safe; for byte-identical
    parallel runs give each arm its own [robust] (and faulty)
    objective, as the parallel engine's arms already do.

    Counts are recorded on a telemetry registry — [telemetry] when a
    live handle is given (counters [measure.measurements] /
    [measure.attempts] / [measure.retries] / [measure.faults] /
    [measure.give_ups], gauge [measure.backoff_ms]), a private
    registry otherwise — and {!summary} reads them back, so there is
    exactly one counting path. *)

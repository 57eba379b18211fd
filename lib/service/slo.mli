(** SLO budgets and a multi-window burn-rate monitor.

    The budgets half parses [bench/service_slo.json] so the loadgen
    harness, the CLI and the in-service monitor agree on one set of
    objectives.  The monitor half is a deterministic multi-window
    burn-rate alert on the logical clock: a fast window catches acute
    breaches, a slow window confirms them, and the ok → warn → page
    state machine is hysteretic so it cannot flap at a threshold. *)

module Telemetry = Harmony_telemetry.Telemetry

type state = Healthy | Warn | Page

val state_to_string : state -> string
(** ["ok"], ["warn"], ["page"]. *)

val state_rank : state -> int
(** [Healthy] 0, [Warn] 1, [Page] 2 — the gauge encoding. *)

val worst : state -> state -> state
(** The more severe of two states (combined service state). *)

type burn_config = {
  fast_window : int;  (** feeds in the fast window (admission ticks) *)
  slow_window : int;  (** feeds in the slow window; also ring size *)
  budget : float;  (** tolerated violating fraction, e.g. 0.01 for p99 *)
  warn_burn : float;  (** fast burn that arms Warn *)
  page_burn : float;  (** fast burn that (with slow confirmation) pages *)
}

(* lint: allow U1 — the telemetry golden generator builds its monitor from this *)
val default_burn : burn_config
(** 8-feed fast window, 64-feed slow window, 1% budget, warn at 2x
    burn, page at 8x. *)

(** {1 Budgets (bench/service_slo.json)} *)

type budgets = {
  handle_hist : string;  (** histogram name for handle latency *)
  handle_q : float;  (** objective quantile, e.g. 0.99 *)
  handle_max : float;  (** max ticks at that quantile *)
  delay_hist : string;  (** histogram name for admission queue delay *)
  delay_max : float;  (** max p99 queue-delay ticks (unscaled) *)
  excess_rejection_max : float;  (** tolerated rejection excess rate *)
  burn : burn_config;  (** optional "burn" object; defaults otherwise *)
}

(* lint: allow U1 — loadgen's SLO gate reads bench/service_slo.json through this *)
val budgets_of_json : string -> (budgets, string) result
(** Parse the JSON text of [bench/service_slo.json].  The [burn]
    object is optional (each field defaults from {!default_burn});
    invalid burn configurations are an [Error], not a clamp. *)

(** What the in-service monitor watches: the two histograms and the
    per-observation violation thresholds derived from the budgets. *)
type spec = {
  handle_histogram : string;
  handle_threshold : float;
  delay_histogram : string;
  delay_threshold : float;
  burn : burn_config;
}

(* lint: allow U1 — loadgen's SLO gate reads bench/service_slo.json through this *)
val spec_of_budgets : budgets -> spec

(** {1 Burn-rate monitor} *)

type t
(** One monitored objective.  Not thread-safe: feed from the service's
    sequential admission path only. *)

val create : burn_config -> t
(** @raise Invalid_argument on an invalid configuration (windows < 1,
    slow < fast, budget outside (0, 1], page < warn). *)

val feed : t -> total:int -> violations:int -> state * state
(** Record one tick's {e cumulative} observation counts (the monitor
    takes deltas internally, so callers can pass histogram snapshots
    directly) and step the state machine.  Returns
    [(before, after)]. *)

val state : t -> state
val pages : t -> int
(** Transitions into [Page] so far. *)

val violations_in : Telemetry.histogram_snapshot -> threshold:float -> int
(** Observations in buckets whose upper bound exceeds [threshold] —
    conservative when the threshold falls strictly inside a bucket,
    exact when it is a bucket bound. *)

(** Admission control for the service edge: bounded inflight budgets,
    a per-client token-bucket rate limiter, logical deadlines, and
    hysteretic load shedding by priority class.

    Every decision is a function of a deterministic logical clock (one
    tick per batch) and integer arithmetic, so seeded runs stay
    byte-reproducible at any domain count.  Rejections are total
    values — the service renders them as [Rejected] replies with a
    machine-readable [retry-after=N] hint; nothing is dropped and
    nothing raises on the admission path.

    The module holds no global state: a value of type {!t} belongs to
    one service and is consulted only from the submitting domain
    (admission runs sequentially, in arrival order, before any work is
    dispatched to the pool), so it needs no locking. *)

type config = {
  max_inflight : int;
      (** Per-shard budget of admitted messages per dispatch round;
          [0] disables the cap.  Critical messages are exempt. *)
  rate : int;
      (** Tokens granted to each client bucket every [refill_every]
          ticks; [0] disables rate limiting. *)
  burst : int;
      (** Bucket capacity (and initial fill) when [rate > 0]. *)
  refill_every : int;
      (** Ticks between bucket refills when [rate > 0]. *)
  degrade_window : int;
      (** Hysteresis window length in ticks; [0] disables degraded
          mode. *)
  degrade_high : int;
      (** Sheds per window at or above which a shard enters degraded
          mode at the next window rollover. *)
  degrade_low : int;
      (** Sheds per window at or below which a degraded shard
          recovers at the next window rollover.  Between [degrade_low]
          and [degrade_high] the shard keeps its current mode. *)
}

(* lint: allow U1 — tests build the configs they inject on this *)
val unlimited : config
(** All features off: every check admits.  Useful as a base record. *)

val default_config : config
(** The serve-loop defaults behind the CLI flags: rate limiting off,
    [max_inflight = 64], and a 16-tick hysteresis window with
    [degrade_high = max_inflight] and [degrade_low = max_inflight/8]. *)

type priority =
  | Critical  (** register / deregister: never shed, exempt from the
                  inflight cap (a session's completion must land). *)
  | Normal    (** report / report-failed: shed only by cap or rate. *)
  | Low       (** query / metrics: shed first when degraded. *)

type reason =
  | Deadline_expired  (** the message's logical deadline passed. *)
  | Rate_limited      (** the client's token bucket is empty. *)
  | Over_capacity     (** the shard's inflight budget is exhausted. *)
  | Degraded_shed     (** the shard is degraded and the message is
                          [Low] priority. *)
  | Cancelled         (** the batch was cooperatively cancelled before
                          this message ran. *)

type verdict =
  | Admit
  | Reject of { reason : reason; retry_after : int; degraded : bool }
      (** [retry_after] is in ticks; [0] means "retry immediately with
          fresh work" (expired or cancelled messages are not worth
          resubmitting as-is). *)

type t

val create :
  ?telemetry:(int -> Harmony_telemetry.Telemetry.t) ->
  shards:int ->
  config ->
  t
(** [create ~shards config] builds admission state for [shards]
    shards.  [telemetry i] supplies shard [i]'s handle (typically the
    service's own shard handles so merged exports see admission
    counters); defaults to {!Harmony_telemetry.Telemetry.off}.
    @raise Invalid_argument on a non-sensical [config] (negative
    fields, [rate > 0] with [burst < 1] or [refill_every < 1], or
    [degrade_window > 0] with [degrade_high < 1] or
    [degrade_low > degrade_high]) or [shards < 1]. *)

val now : t -> int
(** The logical clock: the number of {!tick} calls so far. *)

val tick : t -> unit
(** Advance the clock one batch.  Window rollovers happen here: a
    shard whose window elapsed evaluates the hysteresis thresholds
    against the sheds it counted, flips its degraded flag accordingly,
    and starts a fresh window. *)


val check :
  t ->
  shard:int ->
  client:string ->
  priority:priority ->
  ?enqueued_at:int ->
  ?deadline:int ->
  ?ctx:Harmony_telemetry.Telemetry.Ctx.t ->
  unit ->
  verdict
(** Admission decision for one message, in arrival order.  Checks run
    deadline first, then degraded shedding, then the client's token
    bucket, then the shard inflight cap.  [Admit] consumes one
    inflight slot (release it with {!complete}) and one token, and
    observes [now - enqueued_at] in the queue-delay histogram when
    [enqueued_at] is given ([ctx] attaches the message's trace id to
    the bucket that delay lands in).  A [deadline] of [d] admits
    messages up to and including tick [d]. *)

val check_service : t -> verdict
(** Admission for a service-level probe ([Service_metrics]): [Low]
    priority against shard 0's degraded flag, exempt from buckets and
    caps (it has no client and occupies no shard slot). *)

val complete : t -> shard:int -> unit
(** Release one inflight slot on [shard]; call once per admitted
    message after its dispatch round joins. *)

val reject_text : reason:reason -> retry_after:int -> degraded:bool -> string
(** Render a rejection as the reply-text grammar
    ["<reason>: retry-after=<n>[ degraded]"] with reasons
    [deadline-expired], [rate-limited], [overloaded], [shed],
    [cancelled].  The service wraps this in [Server.Rejected], so
    clients see ["error shed: retry-after=3 degraded"]. *)

val verdict_text : verdict -> string option
(** [reject_text] for a [Reject]; [None] for [Admit]. *)

(* lint: allow U1 — loadgen's retry loop reads rejections through this *)
val retry_after_of_text : string -> int option
(** Parse the [retry-after=N] hint back out of a reply line; [None]
    when the line is not an admission rejection.  Total on arbitrary
    input (the chaos harness feeds it every reply it sees). *)

(* lint: allow U1 — loadgen's retry loop reads rejections through this *)
val is_rejection_text : string -> bool
(** Whether a reply line carries the admission-rejection grammar. *)

(** Registry names for the decision counters and the queue-delay
    histogram, recorded on the owning shard's telemetry handle. *)

val c_admitted : string
val c_rejected : string
(* lint: allow U1 — loadgen's admission and chaos gates read this counter *)
val c_rate_limited : string
(* lint: allow U1 — loadgen's admission and chaos gates read this counter *)
val c_over_capacity : string
(* lint: allow U1 — loadgen's admission and chaos gates read this counter *)
val c_shed : string
(* lint: allow U1 — loadgen's admission and chaos gates read this counter *)
val c_deadline_expired : string
val c_cancelled : string
(* lint: allow U1 — loadgen's admission and chaos gates read this counter *)
val c_degrade_transitions : string
(* lint: allow U1 — the telemetry golden generator names the histogram through this *)
val h_queue_delay : string

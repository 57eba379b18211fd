(** Objective functions: what the tuner measures.

    An objective wraps a search space with an evaluation function and
    a direction.  Throughput-style metrics (the paper's WIPS) are
    higher-is-better; latency/time metrics are lower-is-better.  The
    tuner and all experiment code work against this interface, so the
    synthetic rule data, the web-service simulator, and analytic test
    functions are interchangeable. *)

open Harmony_param

type direction = Higher_is_better | Lower_is_better

type fault = Transient | Persistent | Timeout | Outlier
(** What can go wrong with one physical measurement of a live system:
    a transient failure (clears on retry), a persistently broken
    configuration (every attempt fails — BestConfig's "invalid
    configuration" case), a timed-out run (signalled by a [nan]
    reading rather than an exception), or a
    silently corrupted reading (an {!Outlier}, only detectable
    statistically). *)

exception Measurement_failed of fault
(** Raised by faulty objectives ({!with_faults}, or any real
    measurement backend) when an evaluation fails outright.  The
    {!Measure} policy layer catches it; nothing else should. *)

val fault_to_string : fault -> string

type stats = {
  hits : int;    (** evaluations answered from the memo table *)
  misses : int;  (** {e physical} measurements of the underlying
                     objective — with a retrying measurement layer,
                     every re-measurement counts *)
  evals : int;   (** [hits + misses] *)
  faults : int;  (** faulty readings observed by the measurement
                     policy: caught failures, timeouts, rejected
                     outliers *)
  retries : int; (** physical attempts beyond the first of each
                     logical measurement *)
}
(** Counters of a [cached] and/or [Measure.robust] objective
    (immutable snapshot). *)

val empty_stats : stats

type dispatcher = { run : 'a. ('a -> float) -> 'a array -> float array }
(** How a batch of independent measurements is fanned out: the
    sequential dispatcher maps in the caller, the pool dispatcher uses
    {!Harmony_parallel.Pool.map_array}.  Both return results in input
    order, so a combinator's batch strategy is dispatcher-agnostic. *)

type randomness =
  | Deterministic  (** a function of the configuration *)
  | Keyed
      (** draws are a function of (configuration, attempt):
          {!with_faults}, and [Measure.robust] over it *)
  | Stream
      (** the order in which distinct configurations are measured
          changes the draws: some layer draws from one shared stream
          ({!with_noise}), or a layer that merges configurations
          (a grid snap) sits over keyed draws *)
(** What randomness the stack up to a layer carries.  [{ t with ... }]
    layers inherit it, and nothing above a [Stream] clears it. *)

type t = {
  space : Space.t;
  direction : direction;
  eval : Space.config -> float;
  batch : (dispatcher -> Space.config array -> float array) option;
      (** how this layer evaluates a whole array of configurations at
          once (input-order results); [None] means {!eval_batch} falls
          back to dispatching [eval] directly (deterministic
          objectives) or to a sequential input-order fold (noisy
          ones).  Combinator authors wrap the layer below with
          {!run_batch}. *)
  randomness : randomness;
  stats : (unit -> stats) option;  (** set by [cached]; use {!stats} *)
}

val create : space:Space.t -> direction:direction -> (Space.config -> float) -> t

val eval_batch :
  ?pool:Harmony_parallel.Pool.t -> t -> Space.config array -> float array
(** [eval_batch ?pool t configs] measures every configuration and
    returns the readings in input order, byte-identical to the
    sequential fold [Array.map t.eval configs] at any pool size:

    - a [cached] layer makes one memo pass per batch — hits (and
      in-batch duplicates) answer up front, only the distinct misses
      reach the dispatcher, and hit/miss totals match the sequential
      fold exactly;
    - keyed randomness ([with_faults], [Measure.robust]) batches by
      configuration: distinct configurations fan out, repeated
      occurrences of one configuration keep their in-order attempt
      sequence on a single task;
    - shared-stream noise ([with_noise]) forces the whole batch onto
      the sequential fold, and a by-key layer anywhere above it runs
      its groups in order on the caller's domain, so the draw order
      never changes.

    Without [pool] the dispatch itself is sequential; the memo pass
    and per-layer bookkeeping are identical either way, so 1-domain
    and N-domain runs produce the same bytes.  When evaluations raise,
    the first exception by configuration group (rather than strictly
    by input position) is re-raised after the batch completes. *)

val run_batch : t -> dispatcher -> Space.config array -> float array
(** The engine underneath {!eval_batch}, with an explicit dispatcher:
    [t.batch] when the layer has a strategy, otherwise the
    deterministic fan-out / noisy sequential-fold fallback.  For
    combinator authors delegating to the layer below. *)

val batch_by_key :
  t -> (Space.config -> float) -> dispatcher -> Space.config array -> float array
(** [batch_by_key below eval] is the batch strategy for a layer over
    [below] whose randomness is keyed per configuration: one
    dispatcher task per distinct configuration (grouped by
    {!Space.config_key}, in first-occurrence order), repeated
    occurrences evaluated in input order within the task.  When
    [below] carries [Stream] randomness the groups run in the same
    order on the sequential dispatcher, whatever dispatcher is
    passed. *)

val better : t -> float -> float -> bool
(** [better t a b] is true when performance [a] is strictly preferable
    to [b] under the objective's direction. *)

val improves : direction -> float -> float -> bool
(** The best-measured rule: [reading] is a number and [best] is NaN,
    or [reading] is strictly preferable to [best].  Folded over
    readings in order, a NaN never becomes the best or blocks a later
    number, and a tie keeps the earlier reading. *)

val worst_of : t -> float array -> float

val noisy : t -> bool
(** Whether the stack carries any randomness ([Keyed] or [Stream]):
    [with_noise] or [with_faults] was applied at some layer. *)

val stats : t -> stats option
(** Memo counters when the objective (or an objective it was derived
    from with [with_*] combinators) is [cached]; [None] otherwise. *)

val with_noise : Harmony_numerics.Rng.t -> level:float -> t -> t
(** [with_noise rng ~level t] multiplies every measurement by a factor
    uniform in [1-level, 1+level] — the paper's run-to-run
    perturbation (Section 5.2, 0% to +/-25%).  Marks the objective
    {!noisy}. *)

type fault_rates = {
  transient : float;         (** per-attempt probability of a transient
                                 failure *)
  persistent : float;        (** per-configuration probability that every
                                 attempt fails *)
  timeout : float;           (** per-attempt probability of a timed-out
                                 measurement (a [nan] reading) *)
  outlier : float;           (** per-attempt probability of multiplicative
                                 corruption of the reading *)
  outlier_magnitude : float; (** corruption factor: a corrupted reading is
                                 multiplied or divided by this (> 0) *)
}

val fault_profile : float -> fault_rates
(** [fault_profile rate] is the standard injection mix the CLI's
    [--faults RATE] uses: transients at [rate], outliers at [rate/2],
    timeouts at [rate/4], persistently broken configurations at
    [rate/8], magnitude 8.
    @raise Invalid_argument when [rate] is outside [0, 1]. *)

val with_faults : ?rates:fault_rates -> seed:int -> t -> t
(** Seeded, deterministic fault injection over the whole measurement
    path — the test harness for everything in {!Measure}.  Each fault
    decision is a pure function of [(seed, configuration, attempt
    index)], where the attempt index counts physical evaluations of
    that configuration: replaying a run replays its faults exactly,
    independent of what other configurations were measured in
    between.  Transient and persistent faults raise
    {!Measurement_failed}; timeouts return [nan]; outliers
    multiply or divide the true reading by [outlier_magnitude].
    Marks the objective {!noisy} (a transient objective is not a
    function of the configuration), so [cached] refuses to sit
    directly on top of it — vet measurements with [Measure.robust]
    first.
    @raise Invalid_argument on rates outside [0, 1] or a non-positive
    magnitude. *)

val cached : ?telemetry:Harmony_telemetry.Telemetry.t -> ?freeze_noise:bool -> t -> t
(** Memoize measurements per configuration (key: {!Space.config_key},
    so bit-identical configurations — which grid-snapped proposals
    are — share an entry).  Repeated configurations return their
    recorded value instead of re-measuring: the paper's "save time by
    not retrying all those configurations again" within one execution.
    Counters are exposed through {!stats}.  Thread-safe: concurrent
    evaluations from pool domains serialize on the memo table so the
    same configuration is never measured twice.

    Ordering with respect to noise is explicit, never silent:
    memoizing a {!noisy} objective freezes the first random draw of
    every configuration, so [cached] raises [Invalid_argument] on a
    noisy objective unless [~freeze_noise:true] acknowledges the
    freeze (cache-after-noise).  To keep noise live, cache the
    deterministic objective first and apply [with_noise] on top
    (noise-after-cache).  Unbounded table — intended for tuning-scale
    evaluation counts.

    Counts are recorded on a telemetry registry — [telemetry] when a
    live handle is given (counters [objective.memo.hits] /
    [objective.memo.misses]), a private registry otherwise — and
    {!stats} reads them back, so there is exactly one counting path.
    Several cached objectives sharing one handle merge their counts. *)

(** Deterministic telemetry: a span tracer plus a metrics registry.

    Every instrumented module takes an explicit handle ({!t}) — there
    is no global tracer, no ambient clock, and a disabled handle
    ({!off}) makes every operation a no-op, so instrumentation is free
    when unused and the repo's determinism contract (byte-identical
    tuner output with telemetry on or off, DESIGN.md §11) holds by
    construction: recording observes the computation, never steers it.

    {b Clocks.}  Timestamps come from an injectable [clock].  The
    default is a {e logical} clock: each recorded event is stamped
    with its sequence number, so a seeded run produces a byte-identical
    trace.  [bin/] may inject a monotonic wall clock (e.g. for the
    serve loop); [lib/] never reads one (lint rule D1).

    {b Cost.}  An operation costs what its consumer keeps.  An event
    takes the handle's lock once (clock tick, span depth, retained
    event and flight-ring slot in one critical section); trace ids are
    raw 64-bit hashes turned into hex only at export; span correlation
    args are built only when the handle records events; counters,
    gauges and histograms are resolved once into typed handles
    ({!counter}, {!gauge_handle}, {!histogram}) backed by per-name
    slots.

    {b Thread-safety.}  Counters are atomic slots and may be bumped
    from any pool domain without a lock; every other operation takes
    the handle's mutex (the flight ring's, when one is attached).
    Span begin/end pairs are only meaningful when emitted from a
    single domain (true of the sequential tuning loop and of a service
    shard's messages). *)

type t

type value = Str of string | Num of float | Int of int | Bool of bool
(** Argument values attached to events (exported as JSON). *)

type event =
  | Begin of { name : string; ts : float; args : (string * value) list }
  | End of { name : string; ts : float; args : (string * value) list }
  | Instant of { name : string; ts : float; args : (string * value) list }

(** Trace correlation context, threaded explicitly (never ambient)
    from the service edge down through server, controller, tuner and
    measurement.  Ids are 64-bit FNV-1a hashes of
    [client ^ "\x00" ^ string_of_int seq] (a root) and of
    [parent_span_id ^ "\x00" ^ name] (a child, with the parent's id in
    hex) — fully deterministic, so traces remain byte-reproducible at
    any domain count.  A context holds its ids raw; deriving one builds
    no string, and the accessors below render hex. *)
module Ctx : sig
  type t

  val root : client:string -> seq:int -> t
  (** The trace root for the [seq]-th message of [client]; trace id
      and span id coincide, parent id is empty. *)

  val child : t -> string -> t
  (** A child span context keyed by name (deterministic: same parent
      and name gives the same span id). *)

  val child_i : t -> string -> int -> t
  (** An indexed child, for fan-out (batch evaluation slots): the
      child named [name ^ "#" ^ string_of_int i]. *)

  (* lint: allow U1 — the telemetry reference suite compares ids through this *)
  val trace_id : t -> string

  (* lint: allow U1 — the telemetry reference suite compares ids through this *)
  val span_id : t -> string

  (* lint: allow U1 — the telemetry reference suite compares ids through this *)
  val parent_id : t -> string
  (** 16 hex digits each; [parent_id] is [""] on a root. *)

  val args : t -> (string * value) list
  (** [trace_id]/[span_id] (and [parent_id] when non-root) as event
      arguments — what a span given [~ctx] carries. *)
end

val off : t
(** The disabled handle: every operation is a no-op, [events] is
    empty, every counter reads 0.  The default everywhere. *)

val create :
  ?clock:(unit -> float) ->
  ?record_events:bool ->
  ?flight:Flight.t ->
  ?gc_stats:bool ->
  unit ->
  t
(** A live handle.  Without [clock], timestamps are the logical event
    sequence number (deterministic); with [clock], every event calls
    it for a timestamp (inject wall clocks only from [bin/]).

    [record_events] (default [true]) controls whether span/instant
    payloads are retained for export.  With [record_events:false] the
    handle is {e metrics-only}: the logical clock, {!event_count} and
    every counter/gauge/histogram advance exactly as they would with
    recording on (so metric values are byte-identical either way), but
    {!events} stays empty and memory stays O(registry) — what a
    long-running sharded service wants for its per-shard handles.

    [flight] attaches a {!Flight} recorder: every event (even with
    [record_events:false]) is mirrored into its fixed-capacity ring
    with its context's trace id.  The handle adopts the ring's mutex
    as its own lock, so the mirror costs no second lock.

    [gc_stats] (default [false]; inherently nondeterministic, so
    opt-in from [bin/] only, like wall clocks) samples [Gc.quick_stat]
    into
    [telemetry.gc.minor_words] / [major_words] / [promoted_words] /
    [compactions] / [heap_words] gauges each time the root span
    closes. *)

val enabled : t -> bool

val retains_events : t -> bool
(** Whether events are kept for {!events} (a live handle created with
    [record_events]).  Every other consumer of an event — the flight
    ring and histogram exemplars — reads only its context's trace id,
    which a child context shares with its parent, so a caller may skip
    deriving child contexts for a handle that does not retain
    events. *)

val now : t -> float
(** Current clock reading without recording an event (0 when off). *)

(** {1 Tracing} *)

val span :
  t -> ?ctx:Ctx.t -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] brackets [f ()] between a [Begin] and an [End]
    event; the [End] is recorded even when [f] raises.

    [ctx] correlates the [Begin]: a recorded event carries [args]
    followed by {!Ctx.args}[ ctx] (built only when the handle records
    events), and the flight ring keeps the context's trace id. *)

val span_begin :
  t -> ?ctx:Ctx.t -> ?args:(string * value) list -> string -> unit
val span_end : t -> ?args:(string * value) list -> string -> unit
(** Explicit bracketing for when the end arguments are only known
    after the work (e.g. the measured performance).  Every
    [span_begin] must be paired with a [span_end] of the same name. *)

val instant : t -> ?ctx:Ctx.t -> ?args:(string * value) list -> string -> unit
(** A point event. *)

val events : t -> event list
(** All recorded events, in record order. *)

val event_count : t -> int

(** {1 Metrics registry}

    Every counter, gauge and histogram is a per-name slot.  A hot call
    site resolves its slot once into a typed handle and then updates
    it with no lookup; the string-keyed {!incr}, {!gauge},
    {!gauge_max}, {!observe} and {!declare_histogram} resolve and
    update the same slots.  A slot is
    exported from its first update on, so resolving a name ahead of
    use never changes an export.  Resolving a name that already has a
    slot returns that slot: no per-resolve handle is kept. *)

type counter
(** A counter slot of one handle ([off]'s is inert). *)

val counter : t -> string -> counter

val add : counter -> int -> unit
(** Add to the counter (atomic, lock-free; [0] still makes it
    exported). *)

val incr : t -> ?by:int -> string -> unit
(** [add (counter t name) by] (default [by] 1). *)

type gauge
(** A gauge slot of one handle ([off]'s is inert). *)

val gauge_handle : t -> string -> gauge
(** Resolve a gauge.  Like a counter slot, it is exported from its
    first write on. *)

val set : gauge -> float -> unit
(** Set the gauge: {!gauge} without the name lookup. *)

val gauge : t -> string -> float -> unit
(** Set a gauge by name. *)

val gauge_max : t -> string -> float -> unit
(** Set a gauge to the max of its current value and [v] (high-water
    marks, e.g. pool queue depth). *)

type histogram
(** A histogram slot of one handle ([off]'s is inert). *)

val histogram : t -> ?bounds:float array -> string -> histogram
(** Resolve a histogram.  [bounds] (sorted; default decades from 1e-3
    to 1e5, plus an overflow bucket) are the ones {!observe_into}
    fixes if it is the histogram's first update; when several resolves
    precede it, the first one's bounds count. *)

val observe_into : ?ctx:Ctx.t -> histogram -> float -> unit
(** Add an observation.  [ctx] attaches its trace id to the bucket the
    observation lands in (the bucket remembers the last one), exported
    in OpenMetrics exemplar syntax by [Export.prometheus] and readable
    back via {!exemplars}. *)

(* lint: allow U1 — the telemetry reference suite drives the registry through this *)
val observe :
  t -> ?bounds:float array -> ?ctx:Ctx.t -> string -> float -> unit
(** {!observe_into} by name.  Bucket upper bounds are fixed by the
    histogram's first update — this call's [bounds] (or the defaults)
    if it is the first; later bounds are ignored. *)

val declare_histogram : t -> ?bounds:float array -> string -> unit
(** Export an empty histogram with the given bucket bounds without
    recording an observation, so a caller can pin finer bounds than
    the decade defaults before instrumented code observes into it
    (e.g. the service pinning per-message handle-latency buckets).
    No-op if the histogram has already been updated or declared. *)

val counter_value : t -> string -> int

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val gauges : t -> (string * float) list

type histogram_snapshot = {
  count : int;
  sum : float;
  buckets : (float * int) list;
      (** (upper bound, occupancy) ascending; the final bound is
          [infinity] (the overflow bucket) *)
}

val histograms : t -> (string * histogram_snapshot) list

val histogram_value : t -> string -> histogram_snapshot option
(** One histogram by name ([None] when absent or the handle is off). *)

type exemplar = { ex_bound : float; ex_trace_id : string; ex_val : float }
(** The last trace id (16 hex digits) that landed in the bucket with upper bound
    [ex_bound], together with the observed value. *)

val exemplars : t -> string -> exemplar list
(** Exemplars of a histogram, ascending by bucket bound; buckets that
    never saw an exemplar-carrying observation are omitted. *)

val flight : t -> Flight.t option
(** The attached flight recorder, if any. *)

(** {1 Cross-handle aggregation}

    A sharded service gives every shard its own handle (so parallel
    shards never contend on one mutex and per-shard traces stay
    deterministic) and merges the registries on demand. *)

(* lint: allow U1 — loadgen's SLO gate reads its p99s through this *)
val quantile : histogram_snapshot -> float -> float
(** [quantile snap q] is a conservative upper estimate of the [q]-th
    quantile ([0 <= q <= 1]): the smallest bucket upper bound whose
    cumulative occupancy reaches [ceil (q * count)].  [infinity] when
    the quantile lands in the overflow bucket; [nan] on an empty
    histogram or an out-of-range [q]. *)

val merged : t list -> t
(** A fresh live handle whose registry aggregates the inputs:
    counters sum, gauges combine by [Float.max] (service gauges are
    high-water marks or recovery totals re-emitted as counters), and
    histograms merge bucket-pointwise when their bounds agree (exact)
    — otherwise each source bucket is credited at its upper bound
    (count and sum stay exact, occupancies are conservative).
    Disabled handles contribute nothing; events are not carried over.
    The result is an ordinary handle: exporters accept it as-is. *)

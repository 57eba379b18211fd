(** Offline analysis of harmony trace files.

    Loads Export.jsonl streams (with optional [{"type":"segment"}]
    marker lines, the loadgen [--trace] format), flight-recorder dumps
    (event lines carrying a ["shard"] field) and Export.chrome JSON,
    then reconstructs [server.handle] spans and attributes their
    latency to named phases.  Pure and total: loading never raises on
    malformed input, and every analysis returns a rendering for the
    CLI to print. *)

type ev_kind = Begin | End | Instant

type event = {
  kind : ev_kind;
  name : string;
  ts : float;
  trace_id : string;  (** [""] when the event carries no correlation args *)
  span_id : string;
  parent_id : string;
}

type histogram = {
  h_name : string;
  h_count : int;
  h_sum : float;
  h_buckets : (float * int) list;  (** (upper bound, occupancy), ascending *)
  h_exemplars : (float * string * float) list;
      (** (bucket bound, trace id, observed value) *)
}

type segment = {
  seg_name : string;
  events : event list;
  counters : (string * float) list;
  gauges : (string * float) list;
  histograms : histogram list;
}

type t = {
  segments : segment list;
  dropped : int;
      (** malformed records skipped by the loader: unparsable JSON, a
          missing type or name, an unknown type *)
  malformed : string option;
      (** the first of them, as ["line N: reason"] (["event N: ..."]
          in a Chrome trace) *)
}

(** Parse a trace from raw text.  A single JSON object with a
    [traceEvents] member is read as a Chrome trace; anything else is
    read line by line as JSONL, starting a new segment at every
    segment marker or flight-dump shard change. *)
val of_string : string -> (t, string) result

(** {1 Phases} *)

type phase = Queue | Journal | Search | Handle | Backoff | Other

val phase_to_string : phase -> string
val phase_index : phase -> int
val phases : phase list

(** [false] only for [Other] — the catch-all for spans the attribution
    table cannot name. *)
val named : phase -> bool

(** Map a span name to its phase: [server.journal.*] to [Journal],
    admission spans to [Queue], the search/measurement pipeline
    ([server.search], [simplex*], [controller*], [tuner*], [measure*],
    [session.*], ...) to [Search], [server.handle] itself to
    [Handle]. *)
val phase_of_name : string -> phase

(** {1 Handle-span reconstruction} *)

type child = {
  c_name : string;
  c_start : float;
  c_finish : float;
  c_depth : int;  (** 1 = direct child of the handle span *)
  c_closed : bool;
      (** [false]: never saw its end inside the handle span (the search
          kernel's effect-based spans can suspend and close during a
          later message); clipped at the handle end. *)
}

type handle_rec = {
  r_trace : string;
  r_seg : string;
  r_start : float;
  r_finish : float;
  r_phases : float array;  (** indexed by [phase_index] *)
  r_children : child list;  (** start order *)
}

val duration : handle_rec -> float

(** Every reconstructed [server.handle] span, across all segments. *)
val handles : t -> handle_rec list

(** {1 Aggregated attribution} *)

type attribution = {
  a_spans : int;
  a_total : float;
  a_phases : float array;
  a_p99 : float;  (** p99 handle duration, exact over span durations *)
  a_p99_spans : int;
  a_p99_total : float;
  a_p99_phases : float array;
  a_p99_attributed : float;
      (** fraction of the p99-tail spans' time in named phases *)
}

(** [None] when the trace contains no handle spans. *)
val attribution : t -> attribution option

(** {1 Metric lookups} *)

(** Latest segment wins — the loadgen writes the merged fleet-wide
    registry last. *)
val find_histogram : t -> string -> histogram option

(** Upper bound of the bucket the q-quantile observation falls in;
    [None] on an empty histogram. *)
val hist_quantile : histogram -> float -> float option

(** The exemplar (trace id, observed value) recorded in the p99
    bucket. *)
val p99_exemplar : histogram -> (string * float) option

(** {1 Renderers} *)

val render_attribution : ?markdown:bool -> t -> attribution -> string

(** Span tree, critical path and per-phase split for every handle span
    with the given trace id. *)
val render_path : t -> string -> (string, string) result

(** Per-span-name self-time totals over every span in the trace. *)
val render_self : t -> string

(** Metrics snapshot: counters, gauges and histogram quantiles per
    segment. *)
val render_top : t -> string

(** The whole-trace summary [harmony_cli stats] prints: event count,
    per-name span count / total / mean / max, instant counts, and the
    counters, gauges and histograms (count / sum), each sorted by
    name.  Spans pair up on one stack over the events in record
    order, across segments; an end that does not close the innermost
    open span, and a span still open at the end, count as unmatched. *)
val render_stats : t -> string

val render_diff : t -> attribution -> t -> attribution -> string

(** Resolve the [server.handle_ms] p99-bucket exemplar to a handle
    span and render its critical path end to end. *)
val check_exemplar : t -> (string, string) result

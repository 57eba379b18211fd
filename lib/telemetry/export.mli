(** Serialize a telemetry handle to the supported trace formats. *)

type format =
  | Jsonl  (** one JSON object per line: events then metrics *)
  | Chrome  (** Chrome [trace_event] JSON (about:tracing / Perfetto) *)
  | Prometheus  (** text exposition of the metrics registry only *)

val format_to_string : format -> string

val format_of_string : string -> format option
(** Accepts ["jsonl"], ["chrome"]/["trace"], ["prom"]/["prometheus"]
    (and a few aliases), case-insensitively. *)

val format_of_filename : string -> format
(** Infer a format from a file extension: [.jsonl] → JSONL, [.json] →
    Chrome, [.prom]/[.txt]/[.metrics] → Prometheus; anything else
    defaults to JSONL. *)

val jsonl : Telemetry.t -> string
(** Events in record order (one object per line, [type] ∈
    begin/end/instant), followed by one line per counter, gauge and
    histogram.  The format [harmony_cli stats] and [harmony_trace]
    parse back. *)

val chrome : Telemetry.t -> string
(** A complete Chrome trace JSON object: spans as B/E pairs, instants
    as [i], counters and gauges as trailing [C] events. *)

val prometheus : Telemetry.t -> string
(** The metrics registry in Prometheus text exposition format.  Names
    are sanitized to the legal charset and prefixed [harmony_];
    histogram buckets are cumulative with an [le="+Inf"] bucket. *)

val render : Telemetry.t -> format -> string

(** The Active Harmony tuning server.

    The system to be tuned registers its tunable parameters with a
    resource-specification-language program (Appendix B), then
    alternates between asking for the next configuration and reporting
    the measured performance; the server runs the adaptation
    controller behind the scenes.  The line-based message codec makes
    wrapping the server in a socket loop trivial, and the in-process
    {!handle} entry point is what the tests and examples use.

    {v
      client -> server          server -> client
      -----------------         -----------------
      register max              assign B=3 C=4
      { harmonyBundle B ... }
      query                     assign B=3 C=4
      report 42.5               assign B=4 C=2
      report failed             assign B=4 C=2   (re-assigned: retry it)
      report 57.0               ... eventually:
      query                     done B=4 C=2 perf=57.0
    v}

    Fault tolerance: a client whose trial run failed sends
    [report failed].  The server re-assigns the same configuration up
    to [max_report_failures - 1] times (the client retries with its
    own backoff); a configuration that stays broken is fed to the
    controller as a worst-case penalty so the search moves away from
    it.  The final [Done] is the controller's {!Controller.outcome},
    which never prefers a NaN report to a number.

    Durability lives one layer up: [Server] is the pure in-memory
    session machine, and [Harmony_service.Service] journals,
    snapshots and recovers it, one session per client id; a lone
    session runs there as a one-shard service
    ([Service.handle_single]).  Because the whole
    search stack is deterministic, replaying a session's messages
    through a fresh [Server] regenerates every reply byte-for-byte,
    which is what that recovery rests on. *)

type direction = Minimize | Maximize

type message =
  | Register of { spec : string; direction : direction }
      (** RSL text; restarts the server's session *)
  | Query  (** what configuration should I run? *)
  | Report of float  (** performance of the last assigned configuration *)
  | Report_failed
      (** the last assigned configuration could not be measured (crash,
          timeout, invalid configuration) *)
  | Metrics
      (** read-only introspection: dump the server's telemetry
          registry (valid in any state, never journaled) *)

type reply =
  | Assign of (string * int) list  (** bundle name, value — in spec order *)
  | Done of { best : (string * int) list; performance : float }
  | Rejected of string  (** protocol or parse error *)
  | Stats of string
      (** the metrics registry in Prometheus text form (reply to
          {!Metrics}; empty when the server has no live telemetry
          handle) *)

type t

type specs
(** A table of compiled specifications: the RSL bundles, box space and
    parameter names of every spec text a live session of its servers
    registered, keyed by the exact text.  A register whose text is in
    the table shares its entry instead of parsing the text again; an
    entry leaves with the last session that holds it (re-registered
    over, aborted, or {!close}d).  A text that fails to parse, to
    build a space, or to start a search never enters it.  Not
    thread-safe: the servers sharing one table must handle their
    messages on one domain at a time. *)

val specs : unit -> specs
(** An empty table. *)

val create :
  ?specs:specs -> ?options:Simplex.options -> ?max_report_failures:int ->
  ?reject_reregister:bool ->
  ?telemetry:Harmony_telemetry.Telemetry.t -> unit -> t
(** A server with no registered client yet.  [specs] is the table its
    sessions compile their specs into (default: one of its own); the
    sharded service gives every session on a shard the shard's table,
    so sessions that register the same text hold one compiled copy.
    No reply depends on whether a register found its text compiled.
    [options] bounds each session's search (budget, tolerance, initial
    simplex).
    [max_report_failures] (default 3, must be >= 1) is how many
    consecutive [Report_failed] a configuration gets before it is
    penalized as worst-case and the search moves on.

    [reject_reregister] (default [false], preserving the historical
    restart-on-register behaviour) makes a [Register] arriving while a
    session is still mid-tuning answer with a total [Rejected] reply
    instead of silently discarding the live session; re-registering
    after the session finished (or aborted) still starts a fresh one.
    The sharded service sets this for every per-client session, so a
    duplicate register from an already-active client id is an error,
    not a session reset.

    With a live [telemetry] handle, every {!handle} call is bracketed
    by a [server.handle] span (its [kind] argument names the message),
    counted in [server.messages], and its latency observed in the
    [server.handle_ms] histogram (units are the handle's clock — inject
    a wall clock from [bin/] for real milliseconds).  The session's controller shares the handle, so the search kernel's
    [simplex.*] spans and instants advance the logical clock while a
    message is being handled — on the default logical clock,
    [server.handle_ms] therefore measures the {e search work} each
    message triggered (0 for an idempotent re-query, more for a step
    or a restart), which is what the service's p99 handle-latency SLO
    is asserted against.  The same registry is what the {!Metrics}
    message dumps.
    @raise Invalid_argument when [max_report_failures < 1]. *)

val handle :
  ?ctx:Harmony_telemetry.Telemetry.Ctx.t -> t -> message -> reply
(** Process one message.  [ctx] is the trace-correlation context for
    the message (the sharded service derives one per client message);
    without it the server derives a deterministic fallback root from
    its own arrival counter.  The [server.handle] span carries the
    context's ids, the search work gets a child span
    ([server.search]), and the handle-latency observation attaches the
    trace id as a bucket exemplar.

    [Query] before [Register], or
    [Report]/[Report_failed] without an outstanding assignment, yields
    [Rejected]; so does registering a spec that parses but cannot be
    tuned (e.g. a single feasible configuration — a degenerate initial
    simplex).  [handle] never raises: if the search kernel fails
    mid-session (a spec degenerate in one dimension is only detected
    once the initial vertices are measured), the session is aborted,
    the message is [Rejected], and the client must re-register.  Every
    assignment is feasible under the registered restrictions (box
    proposals are projected with {!Rsl.repair}). *)

val close : t -> unit
(** End the live session, if any, releasing its compiled spec; the
    server is then as if nothing were registered.  What the service
    does when a client deregisters. *)

val parse_message : string -> (message, string) result
(** Parse the text form: ["register min|max\n<rsl...>"], ["query"],
    ["report <float>"], ["report failed"], ["metrics"].  Total: never
    raises, even on arbitrary bytes (fuzzed in the property suite). *)

val reply_to_string : reply -> string
(** ["assign B=3 C=4"], ["done B=4 C=2 perf=57"], ["error <msg>"];
    [Stats] renders as ["stats"] followed by the Prometheus text on
    subsequent lines (the only multi-line reply). *)

val message_to_string : message -> string
(** Inverse of {!parse_message} (reports render with enough digits to
    round-trip the float exactly — journal replay depends on it). *)

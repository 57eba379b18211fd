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
    it, and when the budget runs out mid-faults the final [Done]
    degrades gracefully to the best configuration a client actually
    measured.

    Durability: with {!attach_journal}, every state-changing message
    is appended to a write-ahead journal (length+CRC framed, fsync'd)
    {e before} it is applied, its reply right after.  {!recover}
    rebuilds the exact server state after a crash by replaying the
    journal over the last snapshot; because the whole search stack is
    deterministic, replay regenerates every reply byte-for-byte, and
    the recorded replies double as an integrity cross-check.  A torn
    or corrupt journal never raises — recovery degrades to the
    longest self-consistent prefix. *)

open Harmony_param

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

val create :
  ?options:Simplex.options -> ?max_report_failures:int ->
  ?reject_reregister:bool ->
  ?telemetry:Harmony_telemetry.Telemetry.t -> unit -> t
(** A server with no registered client yet.  [options] bounds each
    session's search (budget, tolerance, initial simplex).
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
    a wall clock from [bin/] for real milliseconds); journal appends,
    fsyncs and compactions are counted under [server.journal.*].  The
    session's controller shares the handle, so the search kernel's
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
    context's ids, the search work and each WAL write get child spans
    ([server.search], [server.journal.append]), and the handle-latency
    observation attaches the trace id as a bucket exemplar.

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

val spec : t -> Rsl.t option
(** The currently registered specification, if any. *)

val fault_counters : t -> int * int
(** [(failed_reports, penalized)] for the current session:
    [Report_failed] messages received, and configurations written off
    as worst-case after exhausting their re-assignments.  [(0, 0)]
    when nothing is registered. *)

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

(** {1 Durability & crash recovery} *)

(** One journal record: a client message as received, the reply the
    server produced for it (rendered with {!reply_to_string}), or a
    message the admission layer shed before it reached the server.
    All carry the message's sequence number; replies to received
    messages are cross-checks that deterministic replay must
    regenerate byte-for-byte, while a shed message's reply is replayed
    literally (the message never touched state, and admission state is
    not replayable). *)
module Event : sig
  type t = Recv of message | Reply of string | Shed of message

  val encode : seq:int -> t -> string
  (** The journal-record payload: ["<seq> recv <message>"],
      ["<seq> reply <reply>"] or ["<seq> shed <message>"]. *)

  val decode : string -> (int * t) option
  (** Total inverse of {!encode}; [None] on anything malformed. *)
end

val attach_journal :
  ?compact_every:int ->
  ?wrap:(Harmony_persist.Persist.sink -> Harmony_persist.Persist.sink) ->
  t ->
  journal:string ->
  unit ->
  unit
(** Start write-ahead journaling to [journal] (plus
    [journal ^ ".snapshot"] for compaction).  Attach to a {e fresh}
    server: any existing files at those paths are discarded — use
    {!recover} to resume a previous run.  Every [Register], [Report]
    and [Report_failed] is made durable (fsync) before it mutates
    state; [Query] is read-only and not journaled.  Once the journal
    exceeds [compact_every] records (default 64) and holds at least
    half as many bytes as the session's replayable essence, it is
    compacted: the essence is written atomically to the snapshot and
    the journal restarts empty, so the on-disk footprint stays
    O(current session) and each snapshot writes at most twice the
    journal bytes it replaces ({!Harmony_persist.Wal.compact_if_due}).  [wrap] interposes on the journal's file
    sink (the crash harness injects {!Harmony_persist.Persist.fault_sink}
    here).  While journaling, {!handle} can raise the sink's I/O
    exceptions ({!Harmony_persist.Persist.Crashed}, [Sys_error],
    [Unix.Unix_error]): a server that cannot persist an event must not
    acknowledge it.  A message whose journal record would exceed
    {!Harmony_persist.Frame.max_payload} is answered [Rejected],
    neither applied nor journaled.
    @raise Invalid_argument when [compact_every < 1]. *)

val detach_journal : t -> unit
(** Stop journaling and close the file; the journal and snapshot are
    left on disk exactly as last written (recoverable). *)

val journal_shed : t -> message -> reply:string -> unit
(** Make an admission-layer rejection durable: journal
    [Event.Shed message] plus the literal [reply] text under the next
    sequence number, without applying the message.  Recovery replays
    the recorded reply byte-for-byte.  No-op when no journal is
    attached; only meaningful for messages that would be journaled
    ([Register] / [Report] / [Report_failed]).
    @raise Invalid_argument for [Query]/[Metrics] with a journal
    attached (those are never journaled, shed or not). *)

type recovery = {
  server : t;  (** rebuilt server, already journaling to the same path *)
  last_reply : reply option;
      (** reply to the last durable message — [None] when nothing was
          replayed; a resuming client can simply send [query] *)
  replayed : int;  (** client messages re-applied *)
  dropped : int;
      (** decoded records discarded: stale (superseded by the
          snapshot), malformed, or past the first replay divergence —
          torn trailing bytes are dropped by the frame scan before
          records exist and are not counted *)
}

val recover :
  ?options:Simplex.options ->
  ?max_report_failures:int ->
  ?reject_reregister:bool ->
  ?telemetry:Harmony_telemetry.Telemetry.t ->
  ?compact_every:int ->
  journal:string ->
  unit ->
  recovery
(** Rebuild a server from [journal] (and its snapshot) after a crash:
    load the snapshot's events, append the journal's (skipping records
    the snapshot already covers), and replay the client messages in
    order through the deterministic search stack, checking each
    recorded reply.  [options], [max_report_failures] and
    [reject_reregister] must match the crashed server's for replay to
    be faithful.  Never raises on
    corrupt input: missing files recover to a fresh server, torn or
    corrupt tails are dropped, and the first inconsistency ends the
    replay — the longest valid prefix wins.  On the way out the
    recovered state is compacted into a fresh snapshot, so a crash
    loop cannot re-accumulate damage; the journal continues after the
    highest seq either file held ({!Harmony_persist.Wal.checkpoint}).  With a live [telemetry] handle
    the replay totals surface as [server.recovery.replayed] /
    [server.recovery.dropped] gauges.
    @raise Invalid_argument when [compact_every < 1] (and [Sys_error] /
    [Unix.Unix_error] if the files cannot be re-opened for writing). *)

val journal_evaluations : string -> ((string * int) list * float) list
(** The client-measured evaluations of the journal's current session,
    oldest first: each [Report] paired with the assignment it
    measured.  This is what flows into the experience database, so a
    recovered run's entry can be compared byte-for-byte with an
    uninterrupted one.  Total: corrupt input yields the valid
    prefix. *)

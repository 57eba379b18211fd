(** The sharded multi-session tuning service.

    One {!Harmony.Server} holds one tuning conversation.  This module
    turns it into a {e service}: a registry of thousands of concurrent
    sessions keyed by client id, sharded by a deterministic hash of
    the id, with every message routed to its client's session.  Each
    shard owns its sessions, its own write-ahead journal (with
    snapshot compaction), and its own telemetry handle, so shards
    share nothing and a batch of messages can be handled with the
    shards fanned across a {!Harmony_parallel.Pool} — replies come
    back in input order and are byte-identical to the sequential path
    at any domain count.

    {v
      client -> service              service -> client
      ------------------             -----------------
      c7 register max                c7 assign B=3 C=4
      { harmonyBundle B ... }
      c7 report 42.5                 c7 assign B=4 C=2
      c9 register min                c9 assign N=1
      c7 query                       c7 assign B=4 C=2
      ...                            c7 done B=4 C=2 perf=57
      c7 done                        c7 bye
      service-metrics                stats
                                     <merged Prometheus text>
    v}

    {b Protocol.}  Every client message is a {!Harmony.Server} message
    prefixed by the client id; [<id> done] deregisters the client; the
    unprefixed [service-metrics] dumps the merged per-shard registries
    in Prometheus text form.  Sessions are created by the client's
    first [register]; a duplicate [register] from an already-active
    client id is a total error reply, never a silent session reset
    (the per-client sessions run with [reject_reregister]).

    {b Determinism.}  A client id always hashes to the same shard;
    each shard handles its messages in arrival order through the
    deterministic single-session stack; telemetry is per-shard with a
    logical clock.  Hence the full reply stream, every metric, and
    every journal byte are independent of the domain count.

    {b Durability.}  This is the one journaled state machine:
    {!attach_journals} gives every shard a crash-safe write-ahead
    journal ([<path>.shard<i>]); {!recover} re-opens all of them,
    replays each shard's messages through the deterministic stack with
    byte-for-byte reply cross-checks, and degrades shard-by-shard: one
    corrupt shard costs that shard's tail, never the other shards'
    sessions.  A lone session is a one-shard service driven through
    {!handle_single}, so [harmony_cli serve --journal FILE] writes
    [FILE.shard0].

    {b Overload.}  With an {!Admission} config the service polices its
    edge: per-shard inflight budgets, per-client token buckets,
    logical deadlines, and hysteretic degraded-mode shedding by
    priority class.  Rejections are total [Rejected] replies carrying
    a [retry-after=N] hint (see {!Admission.reject_text}); they are
    journaled as [shed] records so recovery replays them byte-for-byte
    — and because a rejected message never touches its session, the
    accepted-reply subsequence stays byte-identical to a dedicated
    single-session server.  DESIGN.md §15 has the full argument. *)

open Harmony

(** {1 Messages and replies} *)

type message =
  | Client of { client : string; payload : Server.message }
      (** a single-session protocol message addressed by client id *)
  | Deregister of { client : string }
      (** [<id> done]: drop the client's session (its slot is freed;
          a later [register] from the same id starts fresh) *)
  | Service_metrics
      (** [service-metrics]: merged per-shard Prometheus registries
          (read-only, never journaled) *)
  | Dump_flight
      (** [dump-flight]: every shard's flight-recorder ring as JSONL
          (read-only, never journaled; empty without attached
          recorders) *)

type reply =
  | Client_reply of { client : string; reply : Server.reply }
  | Deregistered of { client : string }  (** renders as ["<id> bye"] *)
  | Service_stats of string  (** merged Prometheus text *)
  | Flight_dump of string  (** flight-recorder JSONL, all shards *)
  | Service_error of string  (** service-level protocol error *)

type t

(** An envelope carries one batch entry's admission metadata, both on
    the admission logical clock ({!admission_now}): when the work was
    enqueued (queue-delay histogram) and the last tick at which it is
    still worth doing. *)
type envelope = {
  message : message;
  enqueued_at : int option;
  deadline : int option;
}

val envelope : ?enqueued_at:int -> ?deadline:int -> message -> envelope

(** {1 Construction and routing} *)

val create :
  ?options:Simplex.options ->
  ?max_report_failures:int ->
  ?telemetry:(int -> Harmony_telemetry.Telemetry.t) ->
  ?admission:Admission.config ->
  ?slo:Slo.spec ->
  shards:int ->
  unit ->
  t
(** A service with [shards] empty shards.  [options] and
    [max_report_failures] configure every per-client session exactly
    like {!Server.create}.  [telemetry] supplies one handle per shard
    index (default: all {!Harmony_telemetry.Telemetry.off}); handles
    must be distinct per shard or parallel batches would contend and
    interleave nondeterministically.  Each shard declares a
    fine-grained [server.handle_ms] histogram on its handle so the
    p99 handle-latency SLO has sub-decade resolution.  [admission]
    turns on edge policing (see {!Admission}); its state shares the
    shard telemetry handles, so decision counters and the queue-delay
    histogram appear in the merged registry.

    [slo] attaches an in-service burn-rate monitor (see {!Slo}): after
    every handled envelope/batch the handle-latency and queue-delay
    histograms are folded across shards and fed to one {!Slo.t} per
    objective; the combined state is exported as the
    [service.slo.state] gauge (0 ok / 1 warn / 2 page) on shard 0,
    transitions as [service.slo.transition] instants, and entries into
    page as the [service.slo.pages] counter.  Purely observational:
    the monitor never sheds or steers.
    @raise Invalid_argument when [shards < 1] (or the config is
    invalid, as in {!Admission.create} / {!Slo.create}). *)

val admission : t -> Admission.t option
(** The live admission state, when the service was created with one
    (tests inspect degraded flags and the logical clock through
    this). *)

val admission_now : t -> int
(** The admission logical clock: ticks once per {!handle} /
    {!handle_batch} call.  [0] when admission is off — with no
    admission state there are no deadlines to compare against. *)

val shards : t -> int

val shard_for : shards:int -> string -> int
(** The pure routing function: FNV-1a over the client id, mod
    [shards].  Independent of any runtime state, so clients can be
    routed without the service in hand.
    @raise Invalid_argument when [shards < 1]. *)

val shard_of_client : t -> string -> int
val sessions : t -> int
(** Live sessions across all shards. *)

(** {1 Handling} *)

val handle : t -> message -> reply
(** Process one message through its shard.  Total: every protocol
    error (unknown client, duplicate register, bad spec) is an error
    reply, never an exception.  While a journal is attached, the
    sink's I/O exceptions propagate
    ({!Harmony_persist.Persist.Crashed}, [Sys_error],
    [Unix.Unix_error]) — a service that cannot persist a message must
    not acknowledge it —
    and a message whose journal record would exceed
    {!Harmony_persist.Frame.max_payload} is answered [Rejected],
    neither applied nor journaled.  Equivalent to {!handle_env} on a
    bare envelope. *)

val handle_env : t -> envelope -> reply
(** {!handle} with admission metadata: the admission layer (when
    configured) decides before the shard sees the message; a rejection
    is a total [Rejected] reply with a [retry-after=N] hint, journaled
    as a [shed] record when the message class is journaled. *)

val handle_stamped : ?deadline_ticks:int -> t -> message -> reply
(** {!handle_env} for a synchronous caller: the message is enqueued at
    the admission tick it is handled at, with a deadline
    [deadline_ticks] later (none without it), so a deadline of [0]
    means "handle at arrival" and is always met.  What [harmony_cli
    serve] runs for each line. *)

val handle_single : ?deadline_ticks:int -> t -> Server.message -> Server.reply
(** The single-session protocol over the service: one unprefixed
    {!Server.message} at a time, run as the fixed client [session]
    through {!handle_env}, so a lone session is journaled, recovered
    and policed by the same code as every shard's.  [Metrics] is
    answered as [service-metrics] (the merged registry).  A [Register]
    while the session is live deregisters it first, so re-registering
    restarts the session as on a lone {!Server}.  Every message sent,
    the implicit deregister included, goes through {!handle_stamped}.

    Replies are byte-identical to an in-memory {!Server.create}'s
    with the same options, except in two cases: before any accepted
    [Register] (and after a rejected one), [Query], [Report] and
    [Report_failed] answer ["unknown client session: register
    first"] instead of ["no specification registered"]; and a rejected
    [Register] also ends the session that was live. *)

val handle_batch :
  ?pool:Harmony_parallel.Pool.t ->
  ?cancel:Harmony_parallel.Pool.Cancel.t ->
  t ->
  message list ->
  reply list
(** Handle a batch: messages are partitioned per shard {e preserving
    arrival order within each shard}, the shard batches are drained
    via the pool (or sequentially without a [pool]), and the replies
    are reassembled in input order.  For client-addressed messages the
    result is byte-identical to calling {!handle} on each message in
    order, at any domain count.  On a journaled shard the shard's share
    of the batch is one group commit: its shed pairs and received
    messages are written with one write and one fsync before any is
    applied, its replies with one more after (DESIGN.md §10), where
    {!handle} pays two fsyncs per message.  A [Service_metrics] inside
    a batch is answered {e at its arrival index against the pre-batch
    snapshot}:
    the registry as of batch start, computed before any of the batch's
    messages apply, so the probe's position within the batch cannot
    change its reply and the batched stream matches a sequential run
    that answers each probe before its round.  [cancel] is checked at
    task boundaries: once fired, not-yet-run messages answer with
    total, retryable [cancelled: retry-after=0] rejections (never
    journaled — an unacknowledged message is a lost message, which the
    WAL contract already covers).  A journaled shard checks it once,
    before its group's first write, so its share is cancelled whole
    with nothing written, or journaled and applied whole. *)

val handle_batch_env :
  ?pool:Harmony_parallel.Pool.t ->
  ?cancel:Harmony_parallel.Pool.Cancel.t ->
  t ->
  envelope list ->
  reply list
(** {!handle_batch} with per-entry admission metadata.  Admission runs
    sequentially in arrival order {e before} anything dispatches, so
    decisions (and journaled sheds) are a deterministic function of
    the batch alone: expired deadlines are shed first, then degraded
    shards shed [Low]-priority work, then per-client token buckets and
    the per-shard inflight budget apply (Critical lifecycle messages
    are exempt from budget and degraded shedding — a finished run must
    always be able to deregister).  One clock tick per call. *)

(** {1 Telemetry} *)

val shard_telemetry : t -> int -> Harmony_telemetry.Telemetry.t
(** The handle shard [i] was created with ({!Harmony_telemetry.Telemetry.off}
    when out of range — total). *)

val merged_telemetry : t -> Harmony_telemetry.Telemetry.t
(** {!Harmony_telemetry.Telemetry.merged} over all shard handles. *)

val metrics : t -> string
(** The merged registry in Prometheus text form — what
    [Service_metrics] answers. *)

val flight_dump : t -> string
(** Every shard's flight-recorder ring as JSONL (each line carries a
    [shard] field; oldest-first per shard) — what [Dump_flight]
    answers, and what the loadgen harness writes to disk on a crash or
    an SLO page.  Empty when no shard handle has an attached
    recorder. *)

val slo_state : t -> Slo.state option
(** The burn-rate monitor's combined state (worst of the handle and
    queue-delay objectives); [None] when the service was created
    without [?slo]. *)

val slo_pages : t -> int
(** Total transitions into [Page] across both objectives (0 without a
    monitor). *)

(** {1 Text codec} *)

val parse_message : string -> (message, string) result
(** Total parser for the service line protocol: ["<id> <server
    message>"] (register keeps its following specification lines),
    ["<id> done"], ["service-metrics"], ["dump-flight"].  Client ids
    are one whitespace-free token that is not a protocol keyword. *)

val message_to_string : message -> string
(** Inverse of {!parse_message} (reports keep their exact float bits,
    as in {!Server.message_to_string} — journal replay depends on
    it). *)

val reply_to_string : reply -> string

(** {1 Durability & whole-service recovery} *)

(** One shard-journal record: a message as received, the reply the
    shard produced, or a message the admission layer shed — all
    carrying the shard's sequence number, which numbers the shard's
    journaled messages: a message's reply record carries its seq, so
    recovery pairs them back up, and a stale journal tail (a crash
    between snapshot rename and journal reset) is detected by seq
    alone.  A group writes its [Recv]s before its [Reply]s, so replay
    pairs each reply with the oldest received message still waiting
    for one.  Replies to received messages are cross-checks that
    deterministic replay must regenerate byte-for-byte.  A [Shed]
    message was never applied; on replay its paired reply is taken
    literally instead of regenerated, which is what makes journaled
    rejections replay byte-for-byte.  The single-session protocol
    ({!handle_single}) journals here too, as client [session]. *)
module Event : sig
  type t = Recv of message | Reply of string | Shed of message

  val encode : seq:int -> t -> string
  val decode : string -> (int * t) option
  (** Total inverse of {!encode}; [None] on anything malformed. *)
end

val shard_journal : journal:string -> shard:int -> string
(** [<journal>.shard<i>] — where shard [i] persists. *)

val attach_journals :
  ?compact_every:int ->
  ?wrap:(shard:int -> Harmony_persist.Persist.sink -> Harmony_persist.Persist.sink) ->
  t ->
  journal:string ->
  unit ->
  unit
(** Start write-ahead journaling on every shard (fresh files; use
    {!recover} to resume).  State-changing messages ([register],
    [report], [report failed], [done]) are fsync'd before they are
    applied; each shard compacts independently once its journal
    exceeds [compact_every] records (default 64) and holds at least
    half as many bytes as its live sessions' replayable essence,
    writing that essence to [<shard path>.snapshot]; so each snapshot
    writes at most twice the journal bytes it replaces
    ({!Harmony_persist.Wal.compact_if_due}).  [wrap]
    interposes per shard (the crash harness faults a single shard's
    sink).
    @raise Invalid_argument when [compact_every < 1]. *)

val detach_journals : t -> unit
(** Close every shard journal, leaving the files recoverable. *)

type shard_recovery = { shard : int; replayed : int; dropped : int }

type recovery = {
  service : t;  (** rebuilt service, already journaling again *)
  replayed : int;  (** client messages re-applied, all shards *)
  dropped : int;  (** records discarded (stale, malformed, diverged) *)
  per_shard : shard_recovery list;  (** ascending shard order *)
}

val recover :
  ?options:Simplex.options ->
  ?max_report_failures:int ->
  ?telemetry:(int -> Harmony_telemetry.Telemetry.t) ->
  ?admission:Admission.config ->
  ?slo:Slo.spec ->
  ?wrap:(shard:int -> Harmony_persist.Persist.sink -> Harmony_persist.Persist.sink) ->
  ?compact_every:int ->
  shards:int ->
  journal:string ->
  unit ->
  recovery
(** Rebuild a service from its per-shard journals after a crash.
    Every shard independently loads its snapshot + journal, replays
    its messages through the deterministic stack cross-checking each
    recorded reply byte-for-byte, keeps the longest self-consistent
    prefix, and compacts on the way out; its journal continues after
    the highest seq either of its files held
    ({!Harmony_persist.Wal.checkpoint}).  Never raises on corrupt
    input: a torn, stale or garbage shard degrades to that shard's
    valid prefix (possibly empty) while the other shards recover in
    full.  [options], [max_report_failures] and [shards] must match
    the crashed service's for replay to be faithful.  Per-shard
    totals surface on each shard's telemetry as
    [service.recovery.replayed] / [service.recovery.dropped] counters
    (so the merged registry sums them).  [shed] records replay
    literally (see {!Event}); [admission] recreates edge policing on
    the recovered service with fresh state — admission decisions are
    recorded, not replayed, so the clock restarting at 0 cannot
    diverge the replay.  [wrap] interposes per shard on the re-opened
    journal sinks (the chaos harness arms the next fault here).
    @raise Invalid_argument when [shards < 1] or [compact_every < 1]
    (and [Sys_error] / [Unix.Unix_error] if the journal files cannot
    be re-opened for writing). *)

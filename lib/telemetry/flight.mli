(** Flight recorder: a fixed-capacity, slot-reusing ring buffer of the
    most recent telemetry events.

    Attach one to a handle with {!Telemetry.create}[ ~flight]; the
    handle then mirrors every span/instant event into the ring even
    when the handle itself is metrics-only, so the last few hundred
    events before a crash or an SLO page survive at O(capacity)
    memory.  Recording mutates preallocated slots — no allocation per
    event (DESIGN.md §12) — and a slot holds the event's raw trace id,
    rendered as hex only when the ring is read.

    One mutex guards the ring.  A handle with a ring attached takes
    that same mutex as its own lock, so an event's clock tick and its
    ring slot are written in one critical section.  The mutex is a
    forced leaf in the lock-order analysis (sem rule S2): nothing may
    be acquired while holding it. *)

type t

type kind = Begin | End | Instant

val create : capacity:int -> t
(** Fixed capacity ring; raises [Invalid_argument] if [capacity < 1]. *)

val to_jsonl : ?shard:int -> t -> string
(** The retained window — the last [capacity] events, oldest first —
    as JSONL event lines ([Export.jsonl]-shaped: [type], [name], [ts],
    and [args.trace_id] as 16 hex digits when the event carried one;
    plus a ["shard"] field when given), which [harmony_trace] and
    [harmony_cli stats] read. *)

(** {1 For the owning handle} *)

val mutex : t -> Mutex.t
(** The ring's mutex, which {!Telemetry.create} adopts as the handle's
    lock. *)

val record_locked :
  t ->
  kind:kind ->
  name:string ->
  ts:float ->
  traced:bool ->
  trace:int64 ->
  unit
(** Write one event into the next slot, overwriting the oldest once the
    ring is full.  The caller holds {!mutex}; [trace] is ignored unless
    [traced]. *)

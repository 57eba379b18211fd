(** A write-ahead log with snapshot compaction: the log behind every
    [Service] shard, whose sessions it journals, snapshots and
    recovers (a lone session runs as a one-shard service).

    The log is a {!Journal} at [path] plus an atomically written
    snapshot at [path ^ ".snapshot"].  The snapshot's first record is
    the header ["<magic> 1 <seq>"]; the records after it, and the
    journal's, are the caller's events, each carrying its own seq.
    The caller owns the event codec and the replay; the log owns the
    files, the header, and the {e live set}: the frames that still
    matter for replay, each tagged with the owner whose history it
    belongs to.

    Records are journaled in groups, one write and one fsync per group
    ({!append}).  Each record is framed once, when it is journaled, and
    that frame is what the caller {!keep}s.  {!retire} forgets an
    owner's whole history in O(1) (its frames are skipped, then swept
    at the next compaction).  Compaction writes the header and the
    kept frames, in the order they were kept, through
    {!Persist.write_atomic}: nothing is re-encoded and the snapshot is
    never built as one string.

    Compaction is triggered by size: the log keeps the live set's bytes
    and the bytes journaled since the last compaction, and compacts only
    once the journal holds at least half as many bytes as the live set
    (and more than [compact_every] records).  Each snapshot then writes
    at most twice the journal bytes it replaces, so a record costs at
    most 3x its own bytes on disk, and the journal recovery replays
    beside the snapshot stays near half the live set. *)

type t

val attach :
  ?wrap:(Persist.sink -> Persist.sink) ->
  magic:string ->
  compact_every:int ->
  string ->
  t
(** Start a fresh log at [path]: the journal is truncated and any
    snapshot removed.  [compact_every] is the record floor of
    {!compact_if_due}.  [wrap] interposes on the journal's file sink.
    @raise Sys_error (or [Unix.Unix_error]) on I/O failure. *)

val reopen :
  ?wrap:(Persist.sink -> Persist.sink) ->
  magic:string ->
  decode:(string -> (int * 'e) option) ->
  compact_every:int ->
  string ->
  t * (int * 'e) list * int
(** Resume the log at [path] after a crash.  The events are the
    snapshot's followed by the journal's, minus journal records the
    snapshot already covers (seq <= the header's); the count is of
    records dropped: undecodable ones, stale ones, and a whole snapshot
    whose header is not [magic]'s.  The caller replays the events,
    rebuilds the live set with {!keep} and {!retire}, and then calls
    {!checkpoint}.  The journal is read and scanned once.  The log
    remembers the highest seq either file holds: the snapshot header's
    and every decodable journal record's, stale ones included.  Never
    raises on what the files hold; torn tails are dropped by the frame
    scan.
    @raise Sys_error (or [Unix.Unix_error]) if the journal cannot be
    re-opened for writing. *)

val checkpoint : t -> seq:int -> unit
(** End a recovery: the log continues after the larger of [seq] (the
    last record replay applied) and the highest seq {!reopen} saw, and
    the live set is compacted at once under that seq, so torn tails,
    stale records and diverged suffixes are durably gone.  The seq never
    moves backwards: replay can stop below the snapshot header (the
    newest records were retired before the last compaction, or a suffix
    diverged), and a crash between this compaction's rename and its
    journal reset must still leave every record in the old journal
    stale.  So seqs after such a recovery skip ahead. *)

val close : t -> unit

val seq : t -> int
(** The seq of the last record appended (or set by {!checkpoint}).
    Between {!reopen} and {!checkpoint}, the highest seq the files
    held. *)

val oversize : string -> string option
(** [Some reason] when [payload] cannot be journaled: its frame would
    exceed {!Frame.max_payload}.  The caller must answer such a
    message without applying or journaling it. *)

val append : t -> seq:int -> string list -> string list
(** Frame a group of payloads, write them with one write and fsync
    once ({!Journal.append}); [seq], the highest seq the group's
    records carry, becomes the log's seq.  Returns the frames in
    order, for {!keep}.  Durable when it returns.
    @raise Invalid_argument when {!oversize} holds for a payload.
    @raise Persist.Crashed from a fault sink; I/O errors propagate. *)

val keep : t -> owner:string -> string -> unit
(** Add a frame to the live set under [owner]'s current history. *)

val retire : t -> owner:string -> unit
(** Drop everything kept under [owner] so far, in O(1).  Frames kept
    under the same name afterwards start a new history. *)

val compact_if_due : t -> bool
(** Compact when the journal holds more than [compact_every] records
    {e and} at least half as many bytes as the live set: write the
    snapshot (header with the current seq, then the live frames), then
    reset the journal.  Returns whether it compacted.  Each snapshot's
    frames after the header total at most twice the bytes journaled
    since the previous compaction (at most 3x write amplification);
    [compact_every] keeps a tiny live set from compacting on every
    append. *)

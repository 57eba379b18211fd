(** A write-ahead log with snapshot compaction, shared by every
    journaled state machine ([Server] for one session, each [Service]
    shard for many).

    The log is a {!Journal} at [path] plus an atomically written
    snapshot at [path ^ ".snapshot"].  The snapshot's first record is
    the header ["<magic> 1 <seq>"]; the records after it, and the
    journal's, are the caller's events, each carrying its own seq.
    The caller owns the event codec and the replay; the log owns the
    files, the header, and the {e live set}: the frames that still
    matter for replay, each tagged with the owner whose history it
    belongs to.

    Each record is framed once, when it is journaled ({!append}), and
    that frame is what the caller {!keep}s.  {!retire} forgets an
    owner's whole history in O(1) (its frames are skipped, then swept
    at the next compaction).  Compaction writes the header and the
    kept frames, in the order they were kept, through
    {!Persist.write_atomic}: nothing is re-encoded and the snapshot is
    never built as one string. *)

type t

val attach :
  ?wrap:(Persist.sink -> Persist.sink) ->
  magic:string ->
  compact_every:int ->
  string ->
  t
(** Start a fresh log at [path]: the journal is truncated and any
    snapshot removed.  [wrap] interposes on the journal's file sink.
    @raise Sys_error (or [Unix.Unix_error]) on I/O failure. *)

val reopen :
  ?wrap:(Persist.sink -> Persist.sink) ->
  magic:string ->
  decode:(string -> (int * 'e) option) ->
  compact_every:int ->
  string ->
  t * (int * 'e) list * int
(** Resume the log at [path] after a crash: the events of {!load}, to
    be replayed by the caller, who rebuilds the live set with {!keep}
    and {!retire} and then calls {!checkpoint}. *)

val checkpoint : t -> seq:int -> unit
(** End a recovery: the log continues after [seq], and the live set is
    compacted at once, so torn tails, stale records and diverged
    suffixes are durably gone. *)

val close : t -> unit

val seq : t -> int
(** The seq of the last record appended (or set by {!checkpoint}). *)

val oversize : string -> string option
(** [Some reason] when [payload] cannot be journaled: its frame would
    exceed {!Frame.max_payload}.  The caller must answer such a
    message without applying or journaling it. *)

val append : t -> seq:int -> string -> string
(** Frame [payload], write it and fsync; [seq] becomes the log's seq.
    Returns the frame, for {!keep}.  Durable when it returns.
    @raise Invalid_argument when {!oversize} holds.
    @raise Persist.Crashed from a fault sink; I/O errors propagate. *)

val keep : t -> owner:string -> string -> unit
(** Add a frame to the live set under [owner]'s current history. *)

val retire : t -> owner:string -> unit
(** Drop everything kept under [owner] so far, in O(1).  Frames kept
    under the same name afterwards start a new history. *)

val compact_if_due : t -> bool
(** Compact when the journal holds more than [compact_every] records:
    write the snapshot (header with the current seq, then the live
    frames), then reset the journal.  Returns whether it compacted. *)

val load :
  magic:string ->
  decode:(string -> (int * 'e) option) ->
  string ->
  (int * 'e) list * int
(** The snapshot's events followed by the journal's, minus journal
    records the snapshot already covers (seq <= the header's), and the
    number of records dropped: undecodable ones, stale ones, and a
    whole snapshot whose header is not [magic]'s.  Total: never raises,
    whatever the files hold. *)

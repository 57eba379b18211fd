(** Append-only write-ahead journal of framed records.

    Records are length+CRC framed ({!Frame}) and appended in groups:
    one {!append} writes a whole group with one write and one fsync
    before it returns, so once [append] comes back every record of the
    group survives a crash.  Opening an existing journal decodes the
    longest valid prefix and truncates the file to it, so a torn tail
    from a previous crash can never sit in front of new appends. *)

type t

val open_file :
  ?wrap:(Persist.sink -> Persist.sink) -> string -> Frame.scan * t
(** Open (or create) the journal at [path].  Returns the scan of the
    existing contents — the longest valid record prefix — and an
    appender positioned right after it (the file is truncated to
    [scan.valid_bytes] first).  [wrap] interposes on the underlying
    file sink (fault injection in the crash harness).
    @raise Sys_error (or [Unix.Unix_error]) on I/O failure. *)

val append : t -> string list -> string list
(** Frame each payload, write the frames in order with one write, then
    fsync once; returns the frames, in order, so a caller that keeps
    the records encodes each only once.  Durable when it returns.  An
    empty group writes nothing and does not fsync.  A crash mid-write
    leaves a prefix of the group, possibly with a torn last record.
    @raise Invalid_argument when a payload exceeds
    {!Frame.max_payload} (nothing is written).
    @raise Persist.Crashed from a fault sink; I/O errors propagate —
    a journal that cannot persist must not pretend it did. *)

val records : t -> int
(** Records appended since open, plus the valid prefix found then. *)

val reset : t -> unit
(** Truncate to empty (used right after a snapshot compaction). *)

val close : t -> unit

val read : string -> Frame.scan
(** Scan a journal file without opening an appender.  Missing or
    unreadable files scan as empty.  Total: never raises. *)

(** Append-only write-ahead journal of framed records.

    One record per {!append}, length+CRC framed ({!Frame}), fsync'd
    before the call returns: once [append] comes back, that record
    survives a crash.  Opening an existing journal decodes the
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

val of_sink : Persist.sink -> t
(** Journal over an arbitrary sink (in-memory tests). *)

val append : t -> string -> string
(** Frame, write, fsync; returns the frame, so a caller that keeps the
    record encodes it only once.  Durable when it returns.
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

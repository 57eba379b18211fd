(** Durable byte I/O: sinks, atomic whole-file writes, fault injection.

    A {!sink} is the journal's write target — a real file descriptor
    with fsync, an in-memory buffer for tests, or a faultable wrapper
    that dies mid-write like a crashing process.  {!write_atomic} is
    the only sanctioned way to overwrite a durable file in this
    codebase: tmp file, fsync, rename, so readers observe either the
    old contents or the new, never a torn mixture. *)

type sink = {
  write : string -> unit;  (** append bytes; may raise {!Crashed} *)
  sync : unit -> unit;  (** make appended bytes durable (fsync) *)
  reset : unit -> unit;  (** discard all content (truncate to empty) *)
  close : unit -> unit;  (** release resources; idempotent *)
}

exception Crashed
(** Raised by a {!fault_sink} once its byte budget is exhausted —
    models the process being killed mid-write. *)

val file_sink : ?trim_to:int -> string -> sink
(** Append-mode sink on [path], creating the file if missing.
    [trim_to], when given, first truncates the file to that many
    bytes (recovery uses it to drop a torn tail before appending).
    [sync] is a real [fsync].
    @raise Sys_error (or [Unix.Unix_error]) on I/O failure. *)

val buffer_sink : Buffer.t -> sink
(** In-memory sink; [sync] is a no-op, [reset] clears the buffer. *)

val fault_sink : limit_bytes:int -> sink -> sink
(** Wrap [sink] so that after [limit_bytes] total bytes have been
    written, every write raises {!Crashed} — the overflowing write
    first delivers the bytes that still fit, leaving a torn record
    behind, exactly like a kill mid-[write(2)].  The budget counts
    across [reset]. *)

val write_atomic : path:string -> string list -> unit
(** Replace [path]'s contents atomically with the concatenation of the
    parts: write [path ^ ".tmp"], fsync it, rename over [path], then
    best-effort fsync of the containing directory.  The parts are
    streamed through a fixed-size buffer, never joined into one
    string.  A crash at any point leaves either the old file or the
    new one.
    @raise Sys_error (or [Unix.Unix_error]) on I/O failure. *)

val read_file : string -> string option
(** Whole-file read (binary).  [None] when the file does not exist or
    cannot be read — corrupt-input handling never starts with an
    exception. *)

val remove_if_exists : string -> unit
(** Delete [path] when present; errors are ignored (best effort). *)

(** Trace and span ids: 64-bit FNV-1a hashes ({!Telemetry.Ctx}), held
    raw and turned into text only where text is written — context
    accessors, exporters, exemplars and flight dumps. *)

val to_hex : int64 -> string
(** The id as 16 lowercase hex digits, zero-padded ([%016Lx]). *)

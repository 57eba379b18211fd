(** Length+CRC-framed records.

    The journal's on-disk unit: an 8-byte little-endian header
    ([payload length], [CRC-32 of the payload]) followed by the
    payload bytes.  The codec is built for torn-write tolerance — a
    scan of arbitrary bytes never raises; it stops cleanly at the
    first short or corrupt record and reports how far the valid
    prefix reached, so a crash mid-append costs exactly the record
    being written and nothing before it. *)

val encode : string -> string
(** Frame one payload: 4-byte LE length, 4-byte LE CRC-32 (IEEE 802.3
    polynomial) of the payload, payload. *)

val max_payload : int
(** Upper bound on accepted payload length (16 MiB).  A scan treats a
    larger length field as corruption — it bounds the allocation a
    garbage header can demand.  [encode] rejects larger payloads with
    [Invalid_argument]. *)

type scan = {
  records : string list;  (** decoded payloads, in order *)
  boundaries : int list;
      (** byte offset after each decoded record (so [List.nth
          boundaries i] is where record [i+1] starts); same length as
          [records] *)
  valid_bytes : int;  (** bytes covered by the decoded prefix *)
  torn : bool;
      (** true when trailing bytes were dropped (short or corrupt
          final record) *)
}

val scan : string -> scan
(** Decode the longest valid prefix of framed records.  Total: never
    raises, whatever the input bytes.  [encode]d streams scan back to
    their exact record list with [torn = false]. *)

(** Building blocks for the text of journal records and protocol
    replies, without [Printf].

    Every journaled message is encoded as text at least twice (its
    [recv] record and its [reply] record).  [Printf] interprets its
    format at every call and [string_of_int] goes through C
    [snprintf]; these write the same bytes directly.  Callers size a
    buffer with the [*_length] functions, fill it with the [blit_*]
    functions and return it with [Bytes.unsafe_to_string]. *)

val int_length : int -> int
(** Characters of [n] in decimal, the sign included: the length of
    [string_of_int n]. *)

val blit_int : Bytes.t -> int -> int -> int
(** [blit_int b pos n] writes [n] in decimal at [pos], exactly the bytes
    of [string_of_int n], and returns the position after them. *)

val blit_string : Bytes.t -> int -> string -> int
(** [blit_string b pos s] writes [s] at [pos] and returns the position
    after it. *)

val concat3 : string -> string -> string -> string
(** [a ^ b ^ c] in one allocation. *)

val float_17g : float -> string
(** [Printf.sprintf "%.17g" f], byte for byte: the C primitive that
    [Printf] itself calls for that conversion, without the format
    interpretation around it.  [%.17g] round-trips every float through
    [float_of_string]. *)

val float_g : float -> string
(** [Printf.sprintf "%g" f] by the same primitive ([%g] is [%.6g]). *)

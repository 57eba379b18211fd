(** A set-associative LRU cache simulator.

    The substrate for the scientific-library tuning scenario the
    paper's introduction motivates: tile-size tuning of blocked linear
    algebra is only meaningful against a memory hierarchy, so we build
    one.  Addresses are byte addresses; a cache is defined by total
    size, line size and associativity (1 = direct-mapped). *)

type t

val create : size_bytes:int -> line_bytes:int -> associativity:int -> t
(** @raise Invalid_argument unless [line_bytes] and the implied set
    count are powers of two, sizes are positive, and
    [associativity >= 1] divides the line count. *)

val access : t -> int -> bool
(** [access t address] touches one byte address; [true] on hit.  On a
    miss the line is filled and the LRU line of its set evicted. *)

val hits : t -> int
val misses : t -> int

val hit_rate : t -> float
(** [0.] before the first access. *)

val reset : t -> unit
(** Clear contents and counters. *)

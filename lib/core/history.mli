(** The experience (data characteristics) database (Section 4.2).

    Each entry pairs a workload-characteristics vector with the
    tuning experience gathered under that workload: every
    (configuration, performance) measurement, in order.  Lookups use
    the paper's least-squares classification — return the entry whose
    stored characteristics minimize the squared distance to the
    observed ones.  Entries persist in a plain-text format so
    experience accumulates across executions. *)

open Harmony_param
open Harmony_objective

type entry = {
  id : int;
  label : string;                 (** free-form tag, e.g. the mix name *)
  characteristics : float array;
  evaluations : (Space.config * float) list;  (** oldest first *)
}

type t

val create : unit -> t

val add :
  t -> ?label:string -> characteristics:float array ->
  evaluations:(Space.config * float) list -> unit -> entry
(** Appends an entry (ids are assigned sequentially) and returns it. *)

val add_outcome :
  t -> ?label:string -> characteristics:float array -> Tuner.outcome -> entry
(** Convenience: store a tuning run's trace as an entry. *)

val entries : t -> entry list
val size : t -> int

val find_closest : t -> float array -> entry option
(** Least-squares nearest entry; [None] on an empty database or when
    no entry has characteristics of the query's arity. *)

val best_evaluations : Objective.t -> entry -> n:int -> (Space.config * float) list
(** The entry's [n] best measurements under the objective's direction
    (distinct configurations, best first). *)

val merged_evaluations : t -> (Space.config * float) list
(** All measurements across all entries, oldest entry first. *)

val compress : Harmony_numerics.Rng.t -> t -> max_entries:int -> t
(** Bound the database size with the data analyzer's clustering
    mechanisms (Figure 2): k-means over the stored characteristics,
    keeping one representative entry per cluster (the one closest to
    the centroid) with the evaluation logs of its cluster merged into
    it.  Entries keep their original relative order.  Returns a new
    database; the input is untouched.
    @raise Invalid_argument if entries have differing characteristics
    arity or [max_entries < 1]. *)

val save : t -> string -> unit
(** Write to a file (text format, one record per line group).  The
    write is atomic ({!Harmony_persist.Persist.write_atomic}): a crash
    mid-save leaves the previous contents intact, never a truncated or
    corrupt database.

    Every label survives {!save} and {!load} byte for byte: ['%'] and
    every byte at or below the space are written as [%XX], and a label
    that is exactly ["-"] as [%2D] (a bare [-] is the empty label).
    Files in the earlier format, which escaped only spaces (as [%20]),
    load as they always did, except that a label which held a literal
    [%XX] sequence (two hex digits after a ['%']) now decodes it to
    that byte.
    @raise Sys_error (or [Unix.Unix_error]) on I/O failure. *)

val load : string -> t
(** Read a database written by {!save}.
    @raise Failure on a malformed file, [Sys_error] on I/O failure. *)

val load_salvage : string -> t * int
(** Tolerant read: the entries before the first malformed line, plus
    the number of lines dropped (0 on a clean file; a missing or
    unreadable file salvages to an empty database).  An entry cut
    short by the malformed line is dropped with it.  Never raises. *)

val load_or_create : ?warn:(int -> unit) -> string -> t
(** {!load_salvage} if the file exists, a fresh empty database
    otherwise — the natural open for experience that accumulates
    across executions.  Corrupt input degrades to the salvageable
    prefix instead of raising; [warn] (if given) receives the dropped
    line count when it is non-zero. *)

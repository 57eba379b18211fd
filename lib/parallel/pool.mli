(** A fixed-size domain pool for parallel objective evaluation.

    OCaml 5 domains give true parallelism; this pool keeps a fixed set
    of worker domains alive behind a shared work queue so that hot
    paths (sensitivity sweeps, experiment reproduction, bench
    ablations) can fan independent tasks out without paying domain
    spawn cost per task.

    Design points, in decreasing order of importance:

    - {b Deterministic ordering.}  [map] and [map_array] return results
      in input order no matter which domain ran which task or in what
      order tasks finished.  Combined with per-task RNG seeding at the
      call sites, a pool of any size produces byte-identical output to
      the sequential path.
    - {b Per-task exception capture.}  A task that raises does not
      tear down the pool or abandon its siblings: every task runs to
      completion and [try_map_array] hands back one [result] per
      input.  [map]/[map_array] re-raise the first (by input index)
      captured exception after all tasks have finished.
    - {b Nested use is safe.}  The submitting domain helps drain the
      queue while it waits, so a task may itself call [map] on the
      same pool (e.g. an experiment fanned out by the registry calling
      a pooled sensitivity analysis) without deadlock, and a pool of
      size 1 degenerates to plain sequential [map]. *)

type t

(** Cooperative cancellation.  A token is a single atomic flag shared
    between the caller and the pool: once {!Cancel.cancel}led, every
    task that has not yet started resolves to [Error Cancelled]
    instead of running.  Tasks already running are never interrupted
    (results stay deterministic per slot: a task either ran to
    completion or did not run at all), so cancellation is checked only
    at task boundaries — a long task should poll
    {!Cancel.cancelled} itself if it wants to stop early. *)
module Cancel : sig
  type t

  val none : t
  (** The never-cancelled token; [cancel none] is a no-op, so sharing
      it is safe. *)

  (* lint: allow U1 — tests inject cancellation through these tokens *)
  val create : unit -> t

  (* lint: allow U1 — tests inject cancellation through these tokens *)
  val cancel : t -> unit

  val cancelled : t -> bool
end

exception Cancelled
(** The [Error] payload filled into slots shed by cancellation. *)

val size : t -> int
(** The [domains] the pool was created with. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    the runtime suggests; the CLI's [--jobs] default. *)

val map : ?cancel:Cancel.t -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] evaluates [f] over [xs] in parallel and returns the
    results in input order.  If any task raised, the first exception
    by input index is re-raised once every task has finished.  With
    [cancel], slots shed by cancellation carry {!Cancelled} (and so
    re-raise it here). *)

val map_array : ?cancel:Cancel.t -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of [map]. *)

val try_map_array :
  ?cancel:Cancel.t -> t -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Like [map_array] but every per-task exception is captured in its
    slot instead of re-raised, so one failing task cannot lose the
    others' results.  Slots whose task had not started when [cancel]
    fired hold [Error Cancelled]. *)

val with_pool :
  ?telemetry:Harmony_telemetry.Telemetry.t -> domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it
    down afterwards, whether [f] returns or raises.  The pool runs at
    most [domains] tasks in parallel: [domains - 1] worker domains
    plus the submitting domain, which always participates.
    [domains = 1] spawns no domains at all and evaluates everything
    sequentially in the caller.  Tasks submitted after shutdown still
    complete (the caller runs them itself), so a pool that escapes [f]
    behaves like a pool of size 1.  With a live [telemetry] handle the
    pool records a [pool.tasks] counter, a [pool.queue_depth.max]
    high-water gauge, and per-domain [pool.domain.N.tasks]
    utilization counters (N = 0 is the submitting domain) —
    utilization is a scheduling observation and may vary run to run;
    task results never do.
    @raise Invalid_argument when [domains < 1]. *)

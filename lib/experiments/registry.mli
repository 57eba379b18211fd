(** Experiment registry: every table/figure of the paper, runnable by
    id from the CLI and the bench harness. *)

val ids : string list
(** Every experiment, in paper order. *)

val find : string -> (Harmony_parallel.Pool.t option -> Report.table) option
(** The experiment's runner.  Runners take the pool ([None] =
    sequential); experiments with independent internal arms (fig7)
    fan them out through it. *)

val tables : ?pool:Harmony_parallel.Pool.t -> unit -> (string * Report.table) list
(** Run every experiment and return [(id, table)] in paper order.
    [pool] runs the experiments concurrently; every experiment seeds
    its own RNGs, so the tables are byte-identical to the sequential
    ones regardless of scheduling. *)

val run_all : ?pool:Harmony_parallel.Pool.t -> Format.formatter -> unit
(** Run every experiment and print its table, in paper order even
    when [pool] executes them out of order. *)

(** Online (server-driven) tuning.

    Active Harmony is a {e runtime} tuning system: the application
    reports one performance measurement at a time and the adaptation
    controller replies with the next configuration to try (Section 2).
    This module serves the {!Simplex.Search} state machine through
    exactly that request/report protocol: it hands out each batch the
    search asks for one configuration per exchange and tells the
    readings back once the batch is complete.  {!Simplex.optimize}
    drives the same machine, so the online behaviour is identical to
    it by construction.  A controller is a plain record: no effect
    handler, continuation or fiber stack waits between reports for the
    minor collector to scan.

    {[
      let c = Controller.create ~space ~direction:Higher_is_better () in
      let rec loop () =
        match Controller.pending c with
        | `Measure config ->
            Controller.report c (run_application_with config);
            loop ()
        | `Done outcome -> outcome
      in
      loop ()
    ]} *)

open Harmony_param
open Harmony_objective

type t

val create :
  ?telemetry:Harmony_telemetry.Telemetry.t ->
  ?options:Simplex.options ->
  space:Space.t ->
  direction:Objective.direction ->
  unit ->
  t
(** A fresh controller; the first {!pending} call already has a
    configuration to measure (unless the initial simplex is fully
    trusted).

    [telemetry] is threaded into the search, so a live handle sees its
    init/step/restart spans as the client's reports drive it.  Because
    a search step can wait for a measurement between messages, a span
    opened while handling one message may close while handling a
    later one — the {e metrics}
    derived from these events (logical-clock durations, step counters)
    are exact and deterministic, but strict stack nesting of the raw
    trace is not guaranteed across messages.  Default: {!Telemetry.off}. *)

val pending : t -> [ `Measure of Space.config | `Done of Simplex.outcome ]
(** What the controller wants next: a configuration to measure, or the
    final outcome.  Idempotent until {!report} is called. *)

val report : t -> float -> unit
(** Supply the measurement for the configuration last returned by
    {!pending}.
    @raise Invalid_argument if the search already finished or no
    measurement is outstanding, or from the search itself when this
    report completes a degenerate initial simplex; after that,
    {!pending} and {!report} raise too. *)

val measurements : t -> int
(** Measurements reported so far. *)

val best_so_far : t -> (Space.config * float) option
(** Best (configuration, performance) among reported measurements
    under the controller's direction. *)

(** The adaptation controller: the search half of one tuning run.

    Active Harmony hands out configurations and feeds the measurements
    back into a simplex (Section 2).  A controller holds the
    {!Simplex.Search}, the batch out for measurement, the measurement
    count and the best measured reading in one plain record: no fiber
    waits between reports.  It offers two views of the same run, with
    the same batches and telemetry: whole batches ({!asked}/{!tell}),
    which {!Tuner.tune} measures with {!Objective.eval_batch}, and one
    configuration per report ({!pending}/{!report}), which {!Server}
    hands out one client exchange at a time.

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
    ]}

    or, a batch at a time,
    [Controller.tell c (Objective.eval_batch obj (Controller.asked c))]
    until {!outcome} is [Some]. *)

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
(** A fresh controller, its search run to its first batch.  The
    search's spans go to [telemetry] (default off) as the readings
    drive it, so a span opened while one message is handled may close
    while a later one is: durations and counters are exact, strict
    nesting across messages is not.
    @raise Invalid_argument as {!Simplex.Search.start} does. *)

val asked : t -> Space.config array
(** The batch out for measurement, in order; empty once the run has
    finished.  The search keeps these arrays: do not mutate them. *)

val tell : t -> float array -> unit
(** The readings of the whole {!asked} batch, in its order: the
    {!report}s of each in turn.
    @raise Invalid_argument when nothing is asked, the lengths differ
    or part of the batch was reported, and as {!report} does. *)

val abandon : t -> unit
(** A measurement of the {!asked} batch raised: close the spans open
    around it ({!Simplex.Search.abandon}); the controller is done. *)

val pending : t -> [ `Measure of Space.config | `Done of Simplex.outcome ]
(** A configuration to measure, or the {!outcome}.  Idempotent until
    {!report} is called. *)

val report : t -> float -> unit
(** The reading of the configuration {!pending} returned.
    @raise Invalid_argument if the search already finished or no
    measurement is outstanding, or from the search itself when this
    report completes a degenerate initial simplex; after that,
    {!pending} and {!report} raise too. *)

val measurements : t -> int
(** Readings taken so far, through either view. *)

val outcome : t -> Simplex.outcome option
(** [Some] once the search has finished: its outcome, with the earliest
    best reading as [best_config]/[best_performance] when that reading
    beats the final best vertex under {!Objective.improves}.  Every
    number that beats the incumbent enters the simplex, so only NaN
    readings, which no comparison orders, let a reading beat the final
    vertex; the rule keeps a NaN from being the answer. *)

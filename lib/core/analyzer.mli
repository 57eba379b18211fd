(** The data analyzer (Section 4.2, Figure 2).

    Before tuning starts, the analyzer observes a small number of
    sample requests to characterize the incoming workload (using a
    system-provided probe), classifies the characteristics against the
    experience database, and — on a match — prepares the tuning
    server: the best historical configurations seed the initial
    simplex, and any missing vertices get triangulation-estimated
    performances ({!Estimator}), so the expensive and oscillation-prone
    cold-start exploration is skipped.  Unrecognized workloads fall
    back to the default (no-training) tuning and their results become
    new experience. *)

open Harmony_objective

type t

val create : History.t -> t

(* lint: allow U1 — tests inject a custom classifier through this *)
val with_classifier : (History.t -> float array -> History.entry option) -> History.t -> t
(** Plug in a different classification mechanism (k-means, decision
    tree, MLP — see {!Harmony_ml}); the default is the paper's
    least-squares nearest neighbour ({!History.find_closest}). *)

val characterize : probe:(unit -> float array) -> samples:int -> float array
(** Average of [samples] probe observations — e.g. each observation is
    a web-interaction frequency vector from a short request window.
    Requires [samples >= 1]. *)

val classify : t -> float array -> History.entry option
(** The experience entry matching the observed characteristics, if
    any. *)

type preparation = {
  matched : History.entry option;   (** the experience used, if any *)
  init : Simplex.Init.t;            (** seeded init, or the fallback *)
  estimated_vertices : int;         (** vertices whose performance was
                                        triangulation-estimated *)
}

val prepare :
  ?telemetry:Harmony_telemetry.Telemetry.t ->
  ?fallback:Simplex.Init.t ->
  t ->
  Objective.t ->
  characteristics:float array ->
  preparation
(** Build the initial simplex for the observed workload: the matched
    entry's best distinct configurations become the initial vertices,
    picked farthest-first from the better half of them so the simplex
    keeps full rank (ties go to the better configuration).  Only
    evaluations of the space's arity count; an entry with evaluations
    but none of that arity (say, from a run tuned under [~top_n]) is
    treated as no match.  When the
    stored characteristics match the observed ones exactly, their
    historical performances are trusted outright and any missing
    vertices get triangulation-estimated values; under a merely
    similar workload the configurations seed the simplex but are
    re-measured (stale values would anchor the search to a falsely
    good vertex).  Without a match, returns [fallback] (default
    {!Simplex.Init.Spread}) untouched.

    With a live [telemetry] handle the classification is bracketed by
    a [history.lookup] span, triangulation by an [estimator.fill]
    span, and the decision surfaces as a [history.matched] or
    [history.cold-start] instant. *)

val tune_with_experience :
  ?telemetry:Harmony_telemetry.Telemetry.t ->
  ?ctx:Harmony_telemetry.Telemetry.Ctx.t ->
  ?pool:Harmony_parallel.Pool.t ->
  ?options:Tuner.options ->
  ?label:string ->
  t ->
  Objective.t ->
  characteristics:float array ->
  Tuner.outcome * preparation
(** End-to-end: prepare from experience, tune, and record the new
    trace back into the database under the observed
    characteristics.  [pool] batches the tuner's deterministic
    evaluation phases across domains (see {!Tuner.tune}); the outcome
    is byte-identical with or without it. *)

(** Discrete-event simulation of the 3-tier cluster web service.

    N emulated browsers think, issue a TPC-W interaction drawn from
    the mix, and wait for the response.  A request visits the proxy
    (cache hit ends it there), then the application tier's connector
    pool, then the database connection pool; each tier is a
    capacity-limited server pool with a bounded accept queue
    ({!Harmony_des.Resource}).  A rejected request makes the browser
    back off and retry.  Service times are exponential around the
    means given by {!Effects}.

    Slower than {!Model} but stochastic and structurally faithful;
    used to validate the model and for the end-to-end examples. *)

type options = {
  clients : int;       (** emulated browsers (default 120) *)
  think_ms : float;    (** mean think time (default 1000 ms) *)
  warmup_ms : float;   (** measurements discarded before this (default 20_000) *)
  horizon_ms : float;  (** measured interval length (default 120_000) *)
  backoff_ms : float;  (** browser backoff after a rejection (default 800) *)
  seed : int;          (** simulation randomness (default 1) *)
  session_persistence : float;
      (** probability that a browser's next interaction stays in the
          previous one's Browse/Order category ({!Tpcw.sample_next});
          0 (the default) reproduces independent sampling, larger
          values make arrivals bursty without changing the stationary
          mix *)
}

val default_options : options

type result = {
  wips : float;           (** completions per second in the measured interval *)
  wipsb : float;          (** browse-category completions per second *)
  wipso : float;          (** order-category completions per second *)
  completions : int;
  rejections : int;
  cache_hits : int;
  mean_response_ms : float;
  p50_response_ms : float;  (** median response time, 0 when nothing completed *)
  p95_response_ms : float;
  utilization : float * float * float;
      (** average busy fraction of the proxy, app, and db pools over
          the whole run (warmup included) — comparable to
          {!Model.result.utilization} *)
}

(** Reusable measurement buffers.  An arena owns the response-time
    buffer a run fills; passing one explicitly lets a caller amortize
    its capacity across many runs.  Ownership rules: an arena belongs
    to exactly one run at a time, {!run} resets it on entry and leaves
    the (sorted) samples of the finished run behind, so its contents
    are only meaningful until the next run borrows it.  Without an
    explicit arena each domain reuses a private one, which is safe
    because a domain runs one simulation at a time. *)
module Arena : sig
  type t

  (* lint: allow U1 — tests inject arenas through this *)
  val create : ?capacity:int -> unit -> t
  (** [capacity] is the initial response-time buffer size in samples
      (default 4096); the buffer grows geometrically when exceeded. *)
end

val run : ?options:options -> ?arena:Arena.t -> Wsconfig.t -> mix:Tpcw.mix -> result

val objective : ?options:options -> mix:Tpcw.mix -> unit -> Harmony_objective.Objective.t
(** Higher-is-better WIPS over {!Wsconfig.space}.  Each evaluation
    reseeds from [options.seed] so the objective is deterministic per
    configuration. *)

(** The TPC-W transactional web benchmark workload (Appendix A of the
    paper): 14 web interactions, classified as Browse or Order, with
    the three standard mixes.  The primary performance metric is WIPS
    (web interactions per second); WIPSb and WIPSo are the browsing-
    and ordering-interval variants. *)

type interaction =
  | Home
  | New_products
  | Best_sellers
  | Product_detail
  | Search_request
  | Search_results
  | Shopping_cart
  | Customer_registration
  | Buy_request
  | Buy_confirm
  | Order_inquiry
  | Order_display
  | Admin_request
  | Admin_confirm

type category = Browse | Order

(* lint: allow U1 — the tpcw tests iterate the interaction table through this *)
val all : interaction array
(** The 14 interactions, in specification order. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val name : interaction -> string
val category : interaction -> category

(** A workload mix assigns a relative weight to each interaction. *)
type mix = { label : string; weights : (interaction * float) array }

val browsing : mix
(** ~95% browse / 5% order. *)

val shopping : mix
(** ~80% browse / 20% order; the mix behind the primary WIPS metric. *)

val ordering : mix
(** ~50% browse / 50% order. *)

val mix_of_label : string -> mix
(** Recognizes "browsing", "shopping", "ordering".
    @raise Invalid_argument otherwise. *)

val browse_fraction : mix -> float
(** Total weight of Browse-category interactions. *)

val sample : Harmony_numerics.Rng.t -> mix -> interaction
(** Draw an interaction according to the mix weights
    (independently of history). *)

val sample_next :
  Harmony_numerics.Rng.t -> mix -> persistence:float ->
  previous:interaction option -> interaction
(** Session-aware sampling: with probability [persistence] the next
    interaction stays in the previous one's category (Browse/Order),
    drawn proportionally to the mix weights within that category;
    otherwise (and when [previous] is [None]) it is drawn from the
    full mix.  By construction the stationary distribution equals the
    mix weights exactly, so the mix's WIPS semantics are preserved
    while requests arrive in realistic category bursts.
    Requires [0 <= persistence < 1]. *)

val observed_frequencies :
  Harmony_numerics.Rng.t -> mix -> samples:int -> float array
(** Empirical frequency vector, in {!all} order, from [samples]
    draws: what the data analyzer sees when it "spends a small amount
    of time observing requests". *)

(** Per-interaction resource demands, used by both the analytic model
    and the discrete-event simulator. *)
type demand = {
  app_ms : float;       (** application-server CPU time *)
  db_ms : float;        (** database time (reads) *)
  db_write_ms : float;  (** extra database time for writes, 0 if read-only *)
  response_kb : float;  (** response size through the HTTP buffer *)
  db_result_kb : float; (** result set through the MySQL net buffer *)
  cacheable : bool;     (** can the proxy cache serve it? *)
}

val demand : interaction -> demand

val write_fraction : mix -> float
(** Weight of interactions that perform database writes. *)

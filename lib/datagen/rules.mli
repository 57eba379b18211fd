(** Conjunctive-normal-form performance rules, the format of the
    paper's DataGen synthetic data (Section 5.1).

    Each rule has the form [P_i <- C_a(v_j) & C_b(v_k) & ...] where the
    [C]s are range/equality tests over input variables (tunable
    parameters and workload characteristics).  A rule fires when all
    its conditions hold; rule sets are generated so that at most one
    rule fires for any input; when none fires, the performance of the
    {e closest} rule is returned. *)

type condition = { var : int; lo : float; hi : float }
(** [lo <= input.(var) <= hi]; equality tests have [lo = hi]. *)

type rule = { conditions : condition list; performance : float }

type t

val create : num_vars:int -> ranges:(float * float) array -> rule list -> t
(** [ranges] gives each variable's overall [min, max], used to
    normalize distances in the closest-rule fallback.
    @raise Invalid_argument if a condition references a variable out
    of range, has [lo > hi], or [ranges] has the wrong arity. *)

val num_vars : t -> int
val rules : t -> rule array

val conflict_free : t -> bool
(** True when no two rules can fire on the same input (pairwise
    box-intersection test — sound and exact for conjunctions of
    interval conditions). *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val rule_distance : t -> rule -> float array -> float
(** Euclidean distance (in range-normalized coordinates) from the
    input point to the rule's condition box; [0] when the rule is
    satisfied. *)

val eval : t -> float array -> float
(** The paper's semantics: the performance of the satisfied rule, or
    of the closest rule when none is satisfied (ties towards the
    earliest rule).
    @raise Invalid_argument on arity mismatch or an empty rule set. *)

exception Parse_error of string

val of_text : num_vars:int -> ranges:(float * float) array -> string -> t
(** Parse a hand-written rule file in the paper's notation, one rule
    per line:

    {v
      # performance <- conjunction of conditions
      42.5 <- v0 = 3 & 2 <= v1 < 8
      17   <- v2 >= 5
      9    <-
    v}

    Conditions accept [=], chained or single [<=]/[<], and [>=]/[>];
    strict bounds are tightened by 1e-9 (values are continuous).
    Blank lines and [#] comments are ignored.
    @raise Parse_error on malformed input; the usual
    [Invalid_argument]s of {!create} still apply. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val to_text : t -> string
(** Render back into the {!of_text} format (always with closed
    bounds). *)

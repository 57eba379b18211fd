(** Figure 5: parameter sensitivity of the synthetic data under
    measurement perturbation.

    Fifteen tunable parameters (D..R), two of which (H and M) were
    generated performance-irrelevant; the prioritizing tool is run
    with the performance output perturbed by 0%, 5%, 10% and 25%
    uniform noise.  The tool should assign H and M (near-)zero
    sensitivity at every noise level — robustness to run-to-run
    variation. *)

type result = {
  names : string array;                 (** parameter names D..R *)
  perturbations : float array;          (** 0.0, 0.05, 0.10, 0.25 *)
  sensitivities : float array array;    (** [perturbation][parameter] *)
  irrelevant : string list;             (** ground truth: ["H"; "M"] *)
}

(* lint: allow U1 — paper artifact: the experiment tests assert on its rows *)
val run : ?seed:int -> ?perturbations:float array -> unit -> result

val table : ?seed:int -> unit -> Report.table

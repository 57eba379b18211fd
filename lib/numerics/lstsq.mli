(** Linear least squares.

    The paper's performance estimator (Section 4.3) builds the system
    [[C_i 1] x = P_i] from historical configurations and solves it
    exactly when square, or "for under- or over-determined systems,
    appl[ies] the least square method".  This module provides that
    solver: Householder QR for the over-determined case and a
    minimum-norm solution for the under-determined case. *)

(* lint: allow U1 — the least-squares tests check the solver on raw systems through this *)
val solve : Matrix.t -> float array -> float array
(** [solve a b] returns [x] minimising [||a x - b||_2].

    - square [a]: exact solve (falls back to least squares if
      singular);
    - more rows than columns: QR least squares;
    - fewer rows than columns: minimum-norm solution
      [x = a^T (a a^T)^-1 b] (with a small ridge term if the Gram
      matrix is singular).

    @raise Invalid_argument on dimension mismatch. *)

(* lint: allow U1 — only its tests call it; retiring them is queued in ROADMAP item 11 *)
val qr_solve : Matrix.t -> float array -> float array
(** Least squares via Householder QR; requires [rows >= cols] and
    full column rank. *)

val fit_hyperplane : float array array -> float array -> float array
(** [fit_hyperplane points values] fits [values.(i) ~= w . points.(i) + c]
    and returns the array [w_1; ...; w_k; c] (coefficients then
    intercept).  This is exactly the paper's step 3-4: append a column
    of ones and solve. *)

val predict_hyperplane : float array -> float array -> float
(** [predict_hyperplane coeffs point] evaluates a hyperplane returned
    by {!fit_hyperplane} at [point]. *)

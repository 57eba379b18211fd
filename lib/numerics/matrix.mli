(** Dense row-major float matrices with the linear-algebra kernels the
    tuner needs: LU solve for square triangulation systems and the
    building blocks of least squares (Section 4.3 of the paper). *)

type t

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] fills entry [(i, j)] with [f i j].  Requires
    positive dimensions. *)

(* lint: allow U1 — tests build their fixture matrices through this *)
val of_rows : float array array -> t
(** Copies a non-empty rectangular array of rows. *)

val identity : int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val transpose : t -> t
val add : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t
(** Matrix product; dimensions must agree. *)

val mul_vec : t -> float array -> float array
(** [mul_vec a x] is [a * x] for a column vector [x]. *)

val solve : t -> float array -> float array
(** [solve a b] solves the square system [a x = b] by LU decomposition
    with partial pivoting.
    @raise Failure if [a] is (numerically) singular. *)

(* lint: allow U1 — tests compare matrices through this *)
val equal : ?eps:float -> t -> t -> bool
(** Entrywise comparison within [eps] (default [1e-9]). *)

(** Deterministic, explicitly seeded random number generation.

    Every stochastic component in the library threads one of these
    states so that experiments are reproducible bit-for-bit.  The
    implementation wraps [Random.State]; [split] derives an
    independent stream, which lets parallel experiment arms share a
    master seed without sharing a sequence. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val seeded_float : int -> float
(** [seeded_float seed] is [float (create seed) 1.0], the first draw
    of a fresh generator, bit for bit, without building the generator:
    one uniform float in [0, 1) per seed, for draws that must be pure
    functions of their key. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of
    the remainder of [t]'s stream. *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce
    the same sequence. *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n-1]. Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on the inclusive range [lo, hi]. *)

val float : t -> float -> float
(** [float t x] is uniform on [0, x). *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform on [lo, hi). *)

val bool : t -> bool

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential distribution with the
    given mean (not rate). *)

val gaussian : t -> float -> float -> float
(** [gaussian t mu sigma] samples a normal distribution via
    Box-Muller. *)

val perturb : t -> float -> float -> float
(** [perturb t p x] is [x] multiplied by a factor uniform in
    [1-p, 1+p]; the paper's "performance output perturbed from 0% to
    +/-25% with a uniform random distribution". *)

val choice : t -> 'a array -> 'a
(** [choice t a] picks a uniform element. Requires [a] non-empty. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct indices from
    [0, n-1]. Requires [0 <= k <= n]. *)

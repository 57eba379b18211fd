(** Figure 6: tuning only the n most sensitive synthetic parameters.

    For each perturbation level, the system tunes the n most sensitive
    parameters (n = 1, 5, 9, 12, 15) while the rest stay at their
    defaults.  Bars in the paper show tuning time; points show the
    resulting application performance.  Expected shape: small n cuts
    tuning time dramatically (up to ~85%) while giving up little
    performance (<8%) at low noise. *)

type cell = {
  n : int;
  perturbation : float;
  tuning_time : int;        (** convergence iteration of the run *)
  performance : float;      (** noise-free performance of the tuned config *)
}

type result = {
  cells : cell list;
  full_time : int;          (** tuning time at n = all parameters, 0% noise *)
  full_performance : float;
}

(* lint: allow U1 — paper artifact: the experiment tests assert on its rows *)
val run : ?seed:int -> ?ns:int list -> ?perturbations:float list -> unit -> result

val table : ?seed:int -> unit -> Report.table

(** LNS — the lower-neighbouring-speed baseline (Section III).

    Each core's ideal continuous voltage is rounded *down* to the nearest
    available discrete level and run constantly.  Rounding down can only
    lower every steady temperature, so the result inherits the ideal
    assignment's feasibility; it is pessimistic exactly when the level
    grid is coarse — the effect the paper's motivation example
    quantifies. *)

type result = {
  voltages : float array;  (** Chosen discrete level per core. *)
  throughput : float;  (** Mean voltage. *)
  peak : float;  (** Steady-state peak temperature, degrees C. *)
}

(** [solve ev] runs LNS on [ev]'s platform.  The returned [peak] is
    always at most the steady peak of the ideal assignment (hence at
    most [t_max] when the platform is feasible); it is memoized in the
    context's voltage-keyed table. *)
val solve : Eval.t -> result

type Solver.details += Details of result

(** [policy] is LNS's registry adapter — the constant discrete
    assignment as [voltages], no schedule, bit-identical to {!solve}. *)
val policy : Solver.t

(** TSP — Thermal Safe Power power-budgeting baseline (Pagani et al.,
    CODES+ISSS 2014; the paper's reference [9]).

    Classic TDP-style budgeting gives every core one uniform power cap
    chosen so that the *worst case* (all cores active at the cap) stays
    below [T_max].  The steady core temperatures are affine in a uniform
    per-core power [p], so the cap solves
    [max_i (offset_i + slope_i * p) = T_max] in closed form.  The cap is
    then translated to the largest discrete mode not exceeding it.

    The paper's argument (via [9]) is that this is pessimistic: it
    budgets for the hottest core's position, wasting the margin cooler
    cores have.  Including it makes that comparison concrete — see the
    bench's ablation section. *)

type result = {
  power_budget : float;  (** The uniform per-core cap, W. *)
  continuous_voltage : float;
      (** The voltage whose [psi] equals the budget, before
          discretization. *)
  voltages : float array;  (** One discrete mode, same for every core. *)
  throughput : float;
  peak : float;  (** Steady peak of the discretized assignment. *)
}

(** [solve ev] computes the thermal-safe power budget of [ev]'s
    platform and its discretized schedule.  Raises [Invalid_argument]
    if even zero power overshoots (impossible for [t_max] above
    ambient).  The final steady-peak evaluation is memoized in the
    context. *)
val solve : Eval.t -> result

type Solver.details += Details of result

(** [policy] is TSP's registry adapter — the uniform discrete
    assignment as [voltages], bit-identical to {!solve}. *)
val policy : Solver.t

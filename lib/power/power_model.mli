(** The paper's Eq. (1) power model:
    [P_i(t) = alpha(v_i) + beta T_i(t) + gamma(v_i) v_i^3].

    The temperature-independent part [psi(v) = alpha(v) + gamma(v) v^3]
    is what feeds the thermal model's input vector; the linear leakage
    slope [beta] is folded into the [A] matrix by {!Thermal.Model}.  An
    inactive core ([v = 0]) consumes nothing.  [alpha] and [gamma] may
    depend on the mode (the paper treats them as constants within a
    mode); the default model uses constants calibrated against McPAT's
    65 nm trends (see DESIGN.md section 5). *)

type psi_cache
(** Internal bounded memo of psi vectors (see {!psi_vector_memo});
    created by {!constant}, one per model. *)

type t = {
  alpha : float -> float;
      (** Voltage-dependent leakage base, W.  Constant per mode. *)
  gamma : float -> float;
      (** Dynamic-power coefficient, W/V^3.  Constant per mode. *)
  beta : float;  (** Leakage/temperature slope, W/K. *)
  psi_memo : psi_cache;  (** Memoized psi vectors, keyed by bit digest. *)
}

(** [default] — [alpha v = 0.5], [gamma v = 9.0], [beta = 0.05]:
    0.5 + 9 v^3 W per core, i.e. ~2.4 W at 0.6 V and ~20.3 W at 1.3 V.
    With the calibrated thermal constants this reproduces the paper's
    Section III ideal voltages (ours: [1.227; 1.180; 1.227] vs the
    paper's [1.2085; 1.1748; 1.2085] on the 3x1 platform at 65 C). *)
val default : t

(** [constant ~alpha ~gamma ~beta] builds a mode-independent model.
    Raises [Invalid_argument] on negative or non-finite coefficients. *)
val constant : alpha:float -> gamma:float -> beta:float -> t

(** [psi pm v] is the temperature-independent power [alpha + gamma v^3]
    of a core at voltage [v], or [0.] for an inactive core ([v = 0]).
    Raises [Invalid_argument] on negative or non-finite voltages. *)
val psi : t -> float -> float

(** [psi_vector pm voltages] maps {!psi} over a per-core voltage
    vector. *)
val psi_vector : t -> float array -> float array

(** [psi_vector_memo pm voltages] is {!psi_vector} memoized per exact
    voltage bit digest ([-0.] canonicalized to [+0.]) in a bounded FIFO
    table inside [pm] — the evaluation hot path prices the same voltage
    vectors thousands of times.  The returned array is shared across
    hits: treat it as read-only. *)
val psi_vector_memo : t -> float array -> float array

(** [total pm ~v ~temp] is the full Eq. (1) power at voltage [v] and
    absolute temperature [temp] — used in reports, not in the thermal
    solve (which keeps the [beta T] term inside [A]). *)
val total : t -> v:float -> temp:float -> float

(** [voltage_for_psi pm target] inverts {!psi} for the default constant
    coefficients: the voltage at which [psi v = target], i.e.
    [cbrt ((target - alpha) / gamma)] clamped below at 0.  This is the
    paper's ideal-speed formula [v_i = cbrt((P_i - alpha - beta T)/gamma)]
    after the thermal solve has absorbed the [beta T] term. *)
val voltage_for_psi : t -> float -> float

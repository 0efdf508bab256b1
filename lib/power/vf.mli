(** DVFS running modes: supply-voltage / frequency pairs.

    The paper treats voltage and frequency interchangeably as the
    "processing speed" (an inactive core has [v = f = 0]); this module
    keeps that convention via {!frequency_of_voltage} while leaving room
    for non-identity mappings.  Level sets model the discrete modes a real
    processor exposes. *)

type level_set = {
  voltages : float array;  (** Strictly ascending available voltages, V. *)
}

(** [make voltages] sorts, deduplicates and validates a level set.
    Raises [Invalid_argument] when empty or containing non-positive or
    non-finite (NaN, infinite) voltages. *)
val make : float list -> level_set

(** [range ~lo ~hi ~step] is the dense grid the paper assumes for the
    continuous baseline: [lo, lo+step, ..., hi] (inclusive within 1e-9).
    The paper's processors use [range ~lo:0.6 ~hi:1.3 ~step:0.05].
    Raises [Invalid_argument] on a non-positive step, a non-finite bound
    or [hi < lo]. *)
val range : lo:float -> hi:float -> step:float -> level_set

(** [table_iv n] is the paper's Table IV selection for [n] in 2..5:
    - 2 levels: 0.6, 1.3
    - 3 levels: 0.6, 0.8, 1.3
    - 4 levels: 0.6, 0.8, 1.0, 1.3
    - 5 levels: 0.6, 0.8, 1.0, 1.2, 1.3
    Raises [Invalid_argument] outside that range. *)
val table_iv : int -> level_set

(** [levels ls] is a copy of the ascending voltage array. *)
val levels : level_set -> float array

(** [n_levels ls] is the number of modes. *)
val n_levels : level_set -> int

(** [lowest ls] and [highest ls] are the extreme voltages. *)
val lowest : level_set -> float

val highest : level_set -> float

(** [round_down ls v] is the largest available voltage [<= v], or
    [lowest ls] when [v] undercuts every level (the paper's LNS never
    turns a core off).  Values above the top level clamp to it. *)
val round_down : level_set -> float -> float

(** [neighbours ls v] is the pair [(v_L, v_H)] of available voltages
    bracketing [v]: the largest level [<= v] and the smallest [>= v].
    When [v] lies outside the set's range both components clamp to the
    nearest extreme (so [v_L = v_H]); when [v] coincides with a level,
    [v_L = v_H = v]. *)
val neighbours : level_set -> float -> float * float

(** [mem ?tol ls v] tests whether [v] is an available level (within
    [tol], default 1e-9). *)
val mem : ?tol:float -> level_set -> float -> bool

(** [frequency_of_voltage v] is the processing speed of a core running at
    [v] — the identity, per the paper's performance model. *)
val frequency_of_voltage : float -> float

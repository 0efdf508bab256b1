(** Compact thermal model in the paper's state-space form.

    Working in ambient-relative temperatures [theta = T - T_amb], the
    model is [dtheta/dt = A theta + b(psi)] with
    [A = -C^{-1}(G - beta E)] and [b(psi) = C^{-1}(E psi + beta T_amb e)],
    where [E] maps per-core dynamic+static power [psi(v)] into node space,
    [beta] is the linear leakage/temperature slope of Eq. (1), and [e] is
    the indicator of core nodes.  [A] is similar to a symmetric negative
    definite matrix, so it is diagonalized once ([A = W D W^{-1}] with
    real negative [D]) and every matrix exponential afterwards costs two
    small matrix products — the MatEx trick of the paper's reference
    [28].  The diagonalization is deferred to the first call that needs
    it ({!propagator}, {!modal_parts}, {!eigenvalues}, {!eigenbasis},
    {!time_constants} and everything built on them): steady states and
    {!solve_mixed} run off an LU factorization of [G - beta E], so a
    model that only ever backs a sparse context never pays the O(n^3)
    eigensolve. *)

type t

(** [make ~ambient ~leak_beta ~capacitance ~conductance ~core_nodes ()]
    assembles the model and LU-factorizes [G - beta E]; it does not
    diagonalize ([A]'s eigenbasis is built on first modal use, once,
    domain-safely).  [capacitance] is the diagonal of [C] (J/K, all
    positive); [conductance] is the symmetric [G] from
    {!Rc_network.conductance_matrix}; [core_nodes] lists the node indices
    that host cores (power inputs and temperature constraints).  Raises
    [Invalid_argument] on dimension mismatches, a non-symmetric or
    non-finite [G], a non-finite ambient, a negative or NaN [leak_beta],
    or a [G - beta E] that is not positive definite — leakage-driven
    thermal runaway or an ungrounded network, certified by one Cholesky
    attempt ({!Linalg.Cholesky}) at construction.  Because the eigensolve
    is deferred, a {!Linalg.Sym_eig} non-convergence [Failure] now
    surfaces on the first modal use instead of here. *)
val make :
  ambient:float ->
  leak_beta:float ->
  capacitance:Linalg.Vec.t ->
  conductance:Linalg.Mat.t ->
  core_nodes:int array ->
  unit ->
  t

(** [n_nodes m] is the full thermal node count. *)
val n_nodes : t -> int

(** [n_cores m] is the number of core nodes. *)
val n_cores : t -> int

(** [core_nodes m] is a copy of the core-node index array. *)
val core_nodes : t -> int array

(** [ambient m] is the ambient temperature, degrees C. *)
val ambient : t -> float

(** [leak_beta m] is the leakage/temperature slope, W/K. *)
val leak_beta : t -> float

(** [a_matrix m] is a copy of [A]. *)
val a_matrix : t -> Linalg.Mat.t

(** [capacitance m] is a copy of the diagonal of [C], J/K. *)
val capacitance : t -> Linalg.Vec.t

(** [effective_conductance m] is a copy of [G' = G - beta E] — the
    symmetric positive definite matrix behind every solve.  {!Spec}
    reconstructs a sparse problem description from it for backend
    parity testing. *)
val effective_conductance : t -> Linalg.Mat.t

(** [input_of_core_powers m psi] is [b(psi)]; [psi] has one entry per
    core. *)
val input_of_core_powers : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [input_of_core_powers_into m psi b] writes [b(psi)] into [b] (one
    entry per node), overwriting it — the allocation-free form of
    {!input_of_core_powers}, with the same values.  Raises
    [Invalid_argument] when [psi] or [b] has the wrong length. *)
val input_of_core_powers_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit

(** [theta_inf m psi] is the ambient-relative steady state
    [-A^{-1} b(psi)] for constant per-core powers [psi]. *)
val theta_inf : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [steady_core_temps m psi] is the absolute steady core temperatures —
    the [T^inf] of the paper's Algorithm 1 line 7. *)
val steady_core_temps : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [propagator m dt] is [e^{A dt}], computed in the eigenbasis as
    [W diag(e^{lambda dt}) W^{-1}]: O(n^3), built afresh on every call
    and owned by the caller.  Only the theta-space paths use it
    ({!step}, {!Matex}'s oracle evaluators, {!integrate_theta}); the
    evaluation engines ({!Modal}, {!Sparse_response}) step in their
    own coordinates. *)
val propagator : t -> float -> Linalg.Mat.t

(** [step m ~dt ~theta ~psi] advances the exact LTI solution of Eq. (3)
    by [dt] under constant core powers [psi] — one LU solve for the
    equilibrium and one {!propagator} build per call, the exact
    theta-space path the engines are tested against. *)
val step : t -> dt:float -> theta:Linalg.Vec.t -> psi:Linalg.Vec.t -> Linalg.Vec.t

(** [core_temps_of_theta m theta] projects a full ambient-relative state
    onto absolute core temperatures. *)
val core_temps_of_theta : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [max_core_temp m theta] is the hottest absolute core temperature in
    state [theta]. *)
val max_core_temp : t -> Linalg.Vec.t -> float

(** [eigenvalues m] are the (all negative) eigenvalues of [A], ordered
    closest-to-zero first (slowest mode first). *)
val eigenvalues : t -> Linalg.Vec.t

(** [time_constants m] are [-1 / lambda_i], descending — the thermal time
    constants. *)
val time_constants : t -> Linalg.Vec.t

(** Constraint on a core node for {!solve_mixed}. *)
type core_constraint =
  | Pinned_temperature of float
      (** The core is held at this absolute temperature; its power is an
          unknown to solve for. *)
  | Known_power of float
      (** The core dissipates this [psi] (W); its temperature is an
          unknown. *)

(** [solve_mixed m constraints] solves the steady-state equations with
    one constraint per core (array indexed like the core list).  Passive
    nodes are always unknown-temperature, zero-power.  Returns the
    per-core power vector [psi] (entries at [Known_power] cores echo the
    input) and the absolute temperatures of all nodes.  Raises
    [Invalid_argument] on arity mismatch. *)
val solve_mixed :
  t -> core_constraint array -> Linalg.Vec.t * Linalg.Vec.t

(** [solve_powers_for_uniform_core_temp m t_target] solves the paper's
    ideal-speed step (Section V): pin every core node at [t_target]
    (absolute), solve the steady equations for the passive-node
    temperatures, and return the per-core power [psi] each core may
    dissipate.  Entries can be negative when [t_target] is below what
    neighbouring heat alone would impose. *)
val solve_powers_for_uniform_core_temp : t -> float -> Linalg.Vec.t

(** [derivative m theta psi] is [A theta + b(psi)] — the right-hand side
    for cross-validating ODE integrators. *)
val derivative : t -> Linalg.Vec.t -> Linalg.Vec.t -> Linalg.Vec.t

(** [eigenbasis m] is [(lambda, w, w_inv)] with
    [A = w diag(lambda) w_inv] and [lambda] ordered closest-to-zero
    first (slowest mode first) — the raw modal data, exposed for
    {!Reduced}. *)
val eigenbasis : t -> Linalg.Vec.t * Linalg.Mat.t * Linalg.Mat.t

(** [modal_parts m] is [(lambda, w, w_inv)] like {!eigenbasis} but
    WITHOUT copying: the returned arrays are the model's own and must be
    treated as read-only.  O(1) once the eigenbasis exists (the first
    call on a model builds it); this is what lets every later
    {!Modal.make} on the model skip the eigensolve. *)
val modal_parts : t -> Linalg.Vec.t * Linalg.Mat.t * Linalg.Mat.t

(** [decomposed m] is [true] once [m]'s eigenbasis has been built — a
    read of the deferred cell that never forces it.  Tests use it to
    prove a sparse-context solve skipped the dense eigensolve. *)
val decomposed : t -> bool

(** [integrate_theta m ~dt ~theta ~psi] is the exact time integral
    [int_0^dt theta(s) ds] of the ambient-relative temperatures under
    constant core powers [psi], starting from [theta]: from
    [dtheta/dt = A theta + b] it equals
    [A^{-1}(theta(dt) - theta(0) - b dt)].  This is what makes leakage
    energy accounting ({!Sched.Energy}) exact rather than sampled.
    Raises [Invalid_argument] when [dt] is negative, NaN or infinite. *)
val integrate_theta :
  t -> dt:float -> theta:Linalg.Vec.t -> psi:Linalg.Vec.t -> Linalg.Vec.t

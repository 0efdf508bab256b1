(** Modal (eigenbasis) thermal evaluation engine — the dense engine
    behind {!Backend.of_model}, and so behind {!Sched.Peak}, {!Trace} and
    the [Runtime.Loop] plant simulation.

    {!Model.t} diagonalizes [A = W diag(lambda) W^{-1}] with real
    negative [lambda] on first modal use ({!make} is that use; the model
    keeps the basis, so later engines of it skip the eigensolve), so the whole simulation can run in modal
    coordinates [z = W^{-1} theta], where propagating over ANY [dt] is an
    O(n) diagonal scale:

    {[ z(t) = z_inf + e^{lambda t} . (z(0) - z_inf) ]}

    with [z_inf = W^{-1} theta_inf(psi)].

    On top of the modal basis the engine is a {e linear-response
    superposition} engine: because the model is linear and
    [theta_inf] is affine in [psi] (the leakage drive [beta T_amb]
    enters every core identically),

    {[ z_inf(psi) = sum_i (psi_i + beta T_amb) . z_inf(e_i) ]}

    so the per-core unit responses [z_inf(e_i)] — solved once with the
    reference LU path when the engine is built — turn every subsequent
    equilibrium into an O(n * n_cores) multiply-add with zero LU solves.
    Decay factors [e^{lambda dt}] are amortized in a per-duration table
    (policy sweeps reuse a handful of durations thousands of times), and
    the streaming {!stable_begin}/{!stable_feed}/{!stable_solve} path
    evaluates a candidate's stable status into per-domain scratch
    buffers with no allocation at all.

    Each {!make} builds a new engine; hold it (as [Core.Eval] does) to
    share the tables across evaluations.  Engines are safe to share
    across domains: each domain's scratch is owned by the engine
    ({!Util.Scratch}) and dies with it.
    The theta-space {!Model.step} and {!Matex} evaluators are the
    oracle — the property tests diff the two paths to <= 1e-9. *)

type t
(** A modal evaluation engine bound to a {!Model.t}.  Immutable eigendata
    plus internally synchronized response tables; share freely across
    domains. *)

(** Amortization counters of one engine (plus the process-wide build
    count), for observability of the response-engine hot path. *)
type stats = {
  builds : int;  (** Engines built process-wide (unit-response solves). *)
  superpose_evals : int;  (** Superposition equilibrium evaluations. *)
  exp_hits : int;  (** Decay/gain lookups answered from the table. *)
  exp_misses : int;  (** Decay/gain lookups that computed. *)
  base_solves : int;  (** Prepared-base builds ({!base_solve}). *)
  delta_evals : int;  (** Delta candidate evaluations. *)
}

(** [make model] builds an engine of [model]: the model's eigenbasis if
    not yet built (the model caches it), then one LU solve per core for
    the unit-response table.  Two engines of one model are distinct
    values whose results are bitwise equal. *)
val make : Model.t -> t

(** [model t] is the underlying thermal model. *)
val model : t -> Model.t

(** [n_modes t] equals [Model.n_nodes] of the underlying model. *)
val n_modes : t -> int

(** [eigenvalues t] is a copy of the (all negative) mode eigenvalues,
    slowest first. *)
val eigenvalues : t -> Linalg.Vec.t

(** [stats t] snapshots the engine's amortization counters. *)
val stats : t -> stats

(** [to_modal t theta] is [z = W^{-1} theta]. *)
val to_modal : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [of_modal t z] is [theta = W z]. *)
val of_modal : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [ambient_state t] is the modal image of the ambient (all-zero theta)
    state — also all zeros. *)
val ambient_state : t -> Linalg.Vec.t

(** [theta_inf t psi] is the node-space steady state (the model's cached
    LU solve — the reference path, not the superposition). *)
val theta_inf : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [z_inf t psi] is the modal steady state, composed from the unit
    responses by superposition — no LU solve.  Agrees with
    [W^{-1} theta_inf(psi)] to machine precision (<= 1e-9 guaranteed by
    the differential suite). *)
val z_inf : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [z_inf_into t dst psi] writes the superposed equilibrium into [dst]
    (length [n_modes t]) without allocating. *)
val z_inf_into : t -> Linalg.Vec.t -> Linalg.Vec.t -> unit

(** [steady_peak t psi] is the hottest steady-state core temperature
    under constant powers [psi], by superposition on the core-row
    response table — O(n_cores^2), allocation-free. *)
val steady_peak : t -> Linalg.Vec.t -> float

(** [step t ~dt ~z ~psi] advances a modal state by [dt] under constant
    powers [psi] — the O(n) counterpart of {!Model.step}.  Raises
    [Invalid_argument] unless [dt] is non-negative and finite. *)
val step : t -> dt:float -> z:Linalg.Vec.t -> psi:Linalg.Vec.t -> Linalg.Vec.t

(** [step_into t ~dt ~z ~psi ~dst] writes {!step}'s result into [dst]
    without allocating: the equilibrium superposes straight into [dst]
    and the decay factors amortize through the per-domain duration
    table, so a control loop stepping at one fixed [dt] pays [n]
    multiply-adds per call.  Bit-identical to {!step}.  Raises
    [Invalid_argument] when [dst] aliases [z], on arity mismatches, or
    unless [dt] is non-negative and finite. *)
val step_into :
  t -> dt:float -> z:Linalg.Vec.t -> psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit

(** [core_temps t z] are the absolute core temperatures of modal state
    [z], read through the precomputed core rows of [W] — O(n_cores * n),
    no full basis transform. *)
val core_temps : t -> Linalg.Vec.t -> Linalg.Vec.t

(** [max_core_temp t z] is the hottest absolute core temperature of
    modal state [z]; allocation-free.  NaN when [z] holds a NaN. *)
val max_core_temp : t -> Linalg.Vec.t -> float

(** {2 Streaming stable-status evaluation}

    The candidate-evaluation hot path: fold a periodic profile through
    {!stable_begin} / {!stable_feed} (once per segment, in order), then
    {!stable_solve} with the period length.  Because
    [K = prod e^{A dt_q}] is diagonal in modal space, the [(I - K)^{-1}]
    solve of {!Matex.stable_start} collapses to a per-mode division.
    Allocation-free: all state lives in per-domain scratch, so pool
    workers never contend or cross-contaminate.  The scratch is reused by the next evaluation on
    the same domain — read everything you need from the returned vector
    before starting another one. *)

(** [stable_begin t] resets this domain's accumulator. *)
val stable_begin : t -> unit

(** [stable_feed t ~duration ~psi] folds one constant-power segment into
    the accumulator.  Raises [Invalid_argument] unless [duration] is
    positive and finite (NaN included). *)
val stable_feed : t -> duration:float -> psi:Linalg.Vec.t -> unit

(** [stable_solve t ~t_p] solves the per-mode fixed point for a period of
    [t_p] seconds and returns this domain's scratch stable status (valid
    until the next streaming evaluation on this domain).  Raises
    [Invalid_argument] unless [t_p] is positive and finite. *)
val stable_solve : t -> t_p:float -> Linalg.Vec.t

(** [peak_scan t ~samples_per_segment profile] is the hottest absolute
    core temperature over the stable-status period of [profile]: the
    streamed stable status, then [samples_per_segment] equal sub-steps
    inside every segment, with each segment boundary reached in one
    exact full-duration step so boundaries accumulate no sub-step
    rounding.  Allocation-free (per-domain scratch); the dense engine's
    {!Backend.t} [peak_scan].  Raises [Invalid_argument] on the profile
    errors of {!Matex.validate_cores} or [samples_per_segment < 1]. *)
val peak_scan : t -> samples_per_segment:int -> Matex.profile -> float

(** {2 Prepared-base delta evaluation}

    The TPT-loop hot path (DESIGN.md §14): capture an aligned two-mode
    config's accumulated drive once ({!base_begin} / {!base_feed} per
    core / {!base_solve}), then evaluate candidates that change a
    {e single} core's duty cycle or voltages in O(n) each — the base
    stable status plus one rescaled unit response — instead of a full
    O(n · n_cores) re-superposition.  Same-voltage deltas (the TPT
    loops only move duty cycles) are evaluated cancellation-free
    through an [expm1]-backed gain factor.

    The prepared base lives in per-domain scratch DISJOINT from the
    streaming [stable_*] state: exact evaluations interleaved between
    delta candidates (winner verification) do not disturb it.  Like all
    DLS state, a base prepared on one domain is invisible on others —
    prepare and evaluate on the same domain.  Boundary snapping
    replicates the exact decomposed path's 1e-12 clamps, so delta and
    full evaluations agree to the differential suite's 1e-9. *)

(** [base_begin t ~t_p] starts preparing a base config with period
    [t_p] on this domain.  Raises [Invalid_argument] unless [t_p] is
    positive and finite. *)
val base_begin : t -> t_p:float -> unit

(** [base_feed t ~core ~psi_low ~psi_high ~high_ratio] records core
    [core]'s two-mode terms: low/high power draws (pre-leakage, as
    {!Power.Power_model.psi} returns them) and the high-time fraction.
    Every core must be fed exactly once before {!base_solve}.  Raises
    [Invalid_argument] without a preceding {!base_begin}, on an
    out-of-range core, or a ratio outside [[-1e-12, 1 + 1e-12]]. *)
val base_feed :
  t -> core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> unit

(** [base_solve t] solves the prepared base's stable status and arms the
    delta evaluators; returns this domain's scratch base vector (valid
    until the next [base_begin] on this domain).  Raises
    [Invalid_argument] if some core was never fed. *)
val base_solve : t -> Linalg.Vec.t

(** [delta_solve t ~core ~psi_low ~psi_high ~high_ratio] is the stable
    status of the candidate equal to the prepared base except for core
    [core]'s terms — O(n), allocation-free, returned in this domain's
    scratch (valid until the next delta or base call).  Raises
    [Invalid_argument] without a solved base on this domain. *)
val delta_solve :
  t -> core:int -> psi_low:float -> psi_high:float -> high_ratio:float ->
  Linalg.Vec.t

(** [delta_peak t ~core ~psi_low ~psi_high ~high_ratio] is the hottest
    end-of-period core temperature of the delta candidate. *)
val delta_peak :
  t -> core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> float

(** [delta_core_temp t ~at ~core ~psi_low ~psi_high ~high_ratio] is the
    delta candidate's end-of-period temperature at core [at] — the
    hottest-core read the TPT adjustment scan scores candidates by. *)
val delta_core_temp :
  t -> at:int -> core:int -> psi_low:float -> psi_high:float ->
  high_ratio:float -> float

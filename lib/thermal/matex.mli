(** Piecewise-constant power profiles and the exact theta-space analysis
    of their periodic stable status (the MatEx method, reference [28] of
    the paper).

    A {!profile} is one period of a periodic power schedule: a sequence of
    segments, each holding a duration and the per-core power vector
    [psi].  Within a segment the system is LTI, so Eq. (3) steps it
    exactly ({!Model.step}); across a period, the stable status of
    Eq. (4) is obtained by solving [(I - K) theta* = theta_one_period]
    where [K = e^{A t_p}] is the product of the segment propagators.

    The evaluators here are the plain theta-space algebra — a fresh
    propagator and LU solve per step, no engine, no tables.  They are
    the dense oracle the evaluation engines behind {!Backend.t} are
    tested against (with {!Sparse_model} as the sparse one), and the
    exact path {!Sched.Energy} integrates over.  Production peak and
    trajectory questions go through a {!Backend.t}: {!Sched.Peak} for
    peaks, {!Trace} for trajectories. *)

type segment = { duration : float; psi : Linalg.Vec.t }

type profile = segment list
(** One period.  Durations must be positive; all [psi] must have one
    entry per model core. *)

(** [period profile] is the sum of segment durations. *)
val period : profile -> float

(** [validate_cores ~n_cores profile] raises [Invalid_argument] on empty
    profiles, non-positive or non-finite durations or power vectors
    without [n_cores] entries — the profile check every engine runs. *)
val validate_cores : n_cores:int -> profile -> unit

(** [validate model profile] is {!validate_cores} for [model]'s core
    count. *)
val validate : Model.t -> profile -> unit

(** [simulate model ~theta0 profile] integrates one period exactly from
    state [theta0], returning the states at every segment boundary —
    [theta0] first, final state last ([length profile + 1] entries). *)
val simulate : Model.t -> theta0:Linalg.Vec.t -> profile -> Linalg.Vec.t array

(** [golden_max f a b tol] maximizes [f] over [[a, b]] by golden-section
    search down to a bracket narrower than [tol] — the refinement every
    refined peak evaluator runs, so all of them probe the same
    abscissae.  If [f] is not unimodal on the bracket the result is
    still a lower bound on its maximum.  Raises [Invalid_argument] when
    [tol] is not positive and finite (the search would never stop). *)
val golden_max : (float -> float) -> float -> float -> float -> float

(** [stable_start model profile] is the ambient-relative state at the
    period boundary once the repetition has converged to the thermal
    stable status: [(I - K)^{-1} d] by one dense LU solve. *)
val stable_start : Model.t -> profile -> Linalg.Vec.t

(** [stable_boundaries model profile] are the stable-status states at all
    segment boundaries, starting and ending with the period boundary
    state (first and last entries are equal up to rounding). *)
val stable_boundaries : Model.t -> profile -> Linalg.Vec.t array

(** [peak_scan model ?samples_per_segment profile] scans the stable-status
    period densely ([samples_per_segment] exact sub-steps inside every
    segment, default 32) and returns the hottest absolute core
    temperature found.  Raises [Invalid_argument] when
    [samples_per_segment < 1]. *)
val peak_scan : Model.t -> ?samples_per_segment:int -> profile -> float

(** [peak_refined model ?samples_per_segment ?tol profile] sharpens
    {!peak_scan}: after the dense scan it golden-section-maximizes the
    hottest-core temperature inside the bracketing sub-interval of every
    segment's best sample, to time resolution [tol * duration] (default
    [tol = 1e-4]).  Raises [Invalid_argument] when
    [samples_per_segment < 1] or [tol] is not positive and finite. *)
val peak_refined :
  Model.t -> ?samples_per_segment:int -> ?tol:float -> profile -> float

(** Temperature trajectories of piecewise-constant power profiles.

    Every trajectory here steps a {!Backend.t} — the same engine record
    the policies evaluate on, dense ({!Backend.of_model}) or sparse
    ({!Backend.of_response}) — so a caller holding an evaluation context
    traces on its engine and a sparse context never forces the dense
    eigensolve.  This module produces the warm-up trajectory the paper
    plots in Fig. 4(a) (repeat the profile from the ambient temperature
    and sample densely), the stable-status period trace, the refined
    stable-status peak, and one-shot transient questions (time to a
    threshold, mission peaks).

    Each segment is walked in [samples_per_segment] equal exact
    sub-steps, and the next segment starts from one exact full-duration
    step, so boundary states accumulate no sub-step rounding.  Every
    function raises [Invalid_argument] on an empty profile, a segment
    duration that is not positive and finite, a power vector whose arity
    differs from the engine's core count, or [samples_per_segment < 1]. *)

type sample = { time : float; core_temps : Linalg.Vec.t }
(** Absolute core temperatures at [time] seconds from the start. *)

(** [from_ambient b ~periods ~samples_per_segment profile] repeats
    [profile] [periods] times starting at the ambient temperature,
    sampling [samples_per_segment] points inside every segment (plus the
    start: [1 + periods * length profile * samples_per_segment] samples).
    Raises [Invalid_argument] for [periods <= 0]. *)
val from_ambient :
  Backend.t -> periods:int -> samples_per_segment:int -> Matex.profile -> sample array

(** [stable_core_trace b ~samples_per_segment profile] samples one period
    of the stable status densely: the period-boundary state first, then
    [samples_per_segment] samples per segment, times from [0] to the
    period. *)
val stable_core_trace :
  Backend.t -> samples_per_segment:int -> Matex.profile -> sample array

(** [peak_refined b ~samples_per_segment ~tol profile] is the stable-status
    peak of [profile] by dense scan plus golden-section refinement: after
    scanning each segment it maximizes the hottest-core temperature
    inside the bracketing sub-interval of the segment's best sample, to
    time resolution [tol * duration], each probe one exact step from the
    segment start.  At least the scanned peak up to rounding.  The
    engine-generic counterpart of {!Matex.peak_refined}; raises
    [Invalid_argument] when [tol] is not positive and finite. *)
val peak_refined :
  Backend.t -> samples_per_segment:int -> tol:float -> Matex.profile -> float

(** [time_to_threshold b ?state0 ?max_periods ?samples_per_segment
    ~threshold profile] repeats [profile] from engine state [state0]
    (default: ambient) and returns the first time the hottest core
    reaches [threshold] (bisected inside the bracketing sub-interval to
    a resolution of [1e-9] relative), or [None] when it never does
    within [max_periods] repetitions (default 1000) — e.g. because the
    stable status stays below the threshold.  This answers the
    reactive-DTM question: how long after an aggressive schedule starts
    does the chip have before an emergency?  Default
    [samples_per_segment] 32.  Raises [Invalid_argument] on a NaN
    [threshold]. *)
val time_to_threshold :
  Backend.t ->
  ?state0:Linalg.Vec.t ->
  ?max_periods:int ->
  ?samples_per_segment:int ->
  threshold:float ->
  Matex.profile ->
  float option

(** [mission_peak b ?state0 ?samples_per_segment segments] is the hottest
    core temperature over a ONE-SHOT (non-repeating) sequence of power
    segments starting from engine state [state0] (default: ambient) —
    mission-profile analysis, e.g. boot + burst + settle.  No
    stable-status solve; the trajectory is walked once (default 32
    samples per segment).  Returns the peak and the final engine
    state. *)
val mission_peak :
  Backend.t ->
  ?state0:Linalg.Vec.t ->
  ?samples_per_segment:int ->
  Matex.profile ->
  float * Linalg.Vec.t

(** [periods_to_stable model ?tol profile] counts how many repetitions it
    takes from ambient until the full node state at the period boundary
    changes by less than [tol] (default [1e-6] K, infinity norm), capped
    at 10_000.  Steps the exact theta-space path ({!Model.step}): the
    criterion is on every thermal node, which engine states do not
    expose.  Raises [Invalid_argument] when [tol] is not positive and
    finite, and on the profile errors of {!Matex.validate}. *)
val periods_to_stable : Model.t -> ?tol:float -> Matex.profile -> int

(** [peak samples] is the hottest absolute core temperature in a
    trace. *)
val peak : sample array -> float

(** [to_csv_channel oc model samples] writes a CSV with a [time] column
    and one column per core. *)
val to_csv_channel : out_channel -> Model.t -> sample array -> unit

(** The thermal engine record: the one value every evaluator runs on.

    Policies and experiment drivers ask a small set of questions —
    steady peaks, stable-status temperatures, scanned period peaks,
    prepared-base delta scores, exact transient steps — and must not
    care whether the answers come from the dense modal engine
    ({!Modal}, O(n³) build, exact eigenbasis) or the sparse
    superposition engine ({!Sparse_response} over {!Sparse_model},
    O(nnz) build, CG + Lanczos solves).  A backend is a record of
    closures over one of those engines; {!Sched.Peak} writes each peak
    evaluator once over it, {!Trace} each trajectory, {!Core.Eval} holds
    one per context, and the closed-loop runtime steps and corrects its
    states.

    States are opaque to callers: modal coordinates for the dense
    backend, symmetrized node coordinates for the sparse one.  Obtain
    them only from {!field:ambient_state}/{!field:step}/
    {!field:stable_solve}/{!field:base_solve} of the SAME backend and
    read them through {!field:core_temps}/{!field:max_core_temp}.  The
    differential suite pins both implementations to each other to
    ≤ 1e-9. *)

type t = {
  name : string;  (** ["dense-modal"] or ["sparse-response"]. *)
  n_nodes : int;
  n_cores : int;
  ambient : float;
  ambient_state : unit -> Linalg.Vec.t;  (** The all-ambient state. *)
  step : dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> Linalg.Vec.t;
      (** Exact LTI advance under constant per-core powers. *)
  step_into :
    dt:float -> state:Linalg.Vec.t -> psi:Linalg.Vec.t -> dst:Linalg.Vec.t -> unit;
      (** {!field:step} writing into a caller-owned buffer [dst] (same
          length as [state], physically distinct from it) — the epoch
          loop's ping-pong hook.  Allocation-free on the dense backend;
          the sparse backend falls back to [step] plus a blit. *)
  correct_cores : state:Linalg.Vec.t -> deltas:Linalg.Vec.t -> unit;
      (** In-place measured-state correction: add [deltas.(k)] kelvin to
          core [k]'s temperature reading, mapped into the backend's
          opaque state coordinates; off-core nodes are untouched.  The
          restart hook observers correct estimates through — the only
          way to edit a state without knowing its coordinate system. *)
  core_temps : Linalg.Vec.t -> Linalg.Vec.t;
      (** Absolute core temperatures of a state. *)
  max_core_temp : Linalg.Vec.t -> float;
  steady_peak : Linalg.Vec.t -> float;
      (** Hottest absolute steady core temperature under constant
          powers. *)
  stable_begin : unit -> unit;
      (** Reset this domain's streaming stable-status accumulator. *)
  stable_feed : duration:float -> psi:Linalg.Vec.t -> unit;
      (** Fold one constant-power segment into the accumulator, in
          period order.  Raises [Invalid_argument] on a non-positive
          duration. *)
  stable_solve : t_p:float -> Linalg.Vec.t;
      (** The periodic stable status at the period boundary of the
          segments fed since {!field:stable_begin}.  Pass [t_p] as the
          left-to-right sum of the fed durations ({!Matex.period} of
          the profile), not an independently known period: the two can
          differ in the last bit, and every exact path must solve the
          identical fixed point for the peak memo to stay bit-exact.
          The result may be per-domain scratch, valid until the next
          streaming evaluation on this domain. *)
  peak_scan : samples_per_segment:int -> Matex.profile -> float;
      (** Dense scan of the stable-status period, streamed through the
          engine's own scratch (the PCO / [Sched.Peak.of_any] hot
          path).  Raises [Invalid_argument] on an empty profile or
          [samples_per_segment < 1]. *)
  base_begin : t_p:float -> unit;
      (** Start preparing an aligned two-mode base config with period
          [t_p] on this domain (DESIGN.md §14).  The prepared base is
          per-domain scratch disjoint from the streaming stable state:
          prepare and evaluate on the same domain. *)
  base_feed :
    core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> unit;
      (** Record core [core]'s two-mode terms: low/high power draws
          (pre-leakage, as {!Power.Power_model.psi} returns them) and
          the high-time fraction.  Every core must be fed once. *)
  base_solve : unit -> Linalg.Vec.t;
      (** Solve the prepared base and arm the delta evaluators; returns
          the base stable status (per-domain scratch). *)
  delta_peak :
    core:int -> psi_low:float -> psi_high:float -> high_ratio:float -> float;
      (** Hottest end-of-period core temperature of the candidate equal
          to the prepared base except core [core]'s terms. *)
  delta_core_temp :
    at:int -> core:int -> psi_low:float -> psi_high:float -> high_ratio:float ->
    float;
      (** The same candidate's end-of-period temperature at core [at]. *)
}

(** [of_modal eng] is the dense reference backend over a {!Modal}
    response engine.  Wrapping is free (the state-correction table is
    built on first use), so one engine can sit behind several records. *)
val of_modal : Modal.t -> t

(** [of_model model] is {!of_modal} over a new engine ({!Modal.make}):
    a full engine build per call, so build the record once and reuse it
    (a [Core.Eval] context holds one). *)
val of_model : Model.t -> t

(** [of_response resp] is the sparse backend over a {!Sparse_response}
    superposition engine: steady and stable evaluators superpose over
    the unit-response tables (and warm-start the fixed-point CG) instead
    of solving per-candidate steady systems.  Pays the [n_cores + 1]
    unit solves when [resp] is built; for a one-shot evaluation call
    {!Sparse_model} directly. *)
val of_response : Sparse_response.t -> t

(** [stable_state b profile] is the periodic stable status at the period
    boundary of [profile]: its segments fed in order through
    {!field:stable_begin}/{!field:stable_feed}, solved with [t_p] = the
    running sum of their durations (the [t_p] rule of
    {!field:stable_solve}).  Like {!field:stable_solve} the result may
    be per-domain scratch: copy it before the next streaming evaluation
    on this domain. *)
val stable_state : t -> Matex.profile -> Linalg.Vec.t

(** AO — aligned oscillation, the paper's Algorithm 2.

    The pipeline: (1) the ideal continuous per-core voltage from
    [T^inf = T_max] ({!Ideal}); (2) the two *neighbouring* discrete modes
    around it with the duty ratio that preserves the ideal throughput
    (Eq. (11), justified by Theorems 3/4); (3) m-oscillation: shrink the
    base period by [m], which monotonically lowers the stable peak
    (Theorem 5), where [m] is swept up to the transition-overhead bound
    [M] (Section V) with each oscillation's high interval extended by
    [delta_i] to repay the DVFS stalls; (4) the TPT ratio-adjustment loop
    ({!Tpt}) to pull the remaining overshoot under [T_max].  Every
    candidate is a step-up schedule, so each peak evaluation is one
    end-of-period solve (Theorem 1). *)

type result = {
  config : Tpt.config;  (** Final two-mode mini-period configuration. *)
  schedule : Sched.Schedule.t;  (** Materialized mini-period schedule. *)
  m : int;  (** Chosen oscillation count. *)
  m_max : int;  (** The overhead bound [M] that capped the sweep. *)
  throughput : float;  (** Net of transition stalls. *)
  peak : float;  (** Stable-status peak temperature of [schedule]. *)
  ideal : Ideal.result;  (** The continuous assignment AO discretizes. *)
  adjustment_steps : int;  (** TPT exchanges performed. *)
}

(** [solve ?base_period ?m_cap ?t_unit ?fill ev] runs AO on [ev]'s
    platform, pricing every candidate through the context: step-up peak
    evaluations are memoized in its schedule-keyed table ({!Tpt.peak}) —
    bit-identical results, large savings when searches revisit
    candidates or PCO re-runs AO on the same context.

    - [base_period] is the m = 1 oscillation period (default 0.1 s —
      comparable to the platform's dominant thermal time constant, so the
      m sweep has dynamics to exploit);
    - [m_cap] additionally caps the sweep (default 512) to bound compute
      when [tau] is tiny and the paper's [M] is enormous;
    - [t_unit] is the TPT exchange quantum (default mini-period / 100);
    - [fill] (default [false], the paper's behaviour) also reclaims
      temperature headroom when the discretized schedule lands strictly
      below [T_max];
    - [adjust] selects the ratio-adjustment strategy: [`Greedy] (the
      paper's per-core TPT loop, default) or [`Bisection] (uniform
      scaling, fewer peak evaluations, possibly slightly lower
      throughput — see the ablations);
    - [par] (default [true]) evaluates the m sweep and the TPT candidate
      scans on the context's {!Util.Pool}; reductions stay sequential,
      so the result is identical at any pool size. *)
val solve :
  ?base_period:float ->
  ?m_cap:int ->
  ?t_unit:float ->
  ?fill:bool ->
  ?adjust:[ `Greedy | `Bisection ] ->
  ?par:bool ->
  ?delta_margin:float ->
  Eval.t ->
  result

type Solver.details += Details of result

(** [policy] is AO's registry adapter: runs {!solve} on the context's
    platform (pool-parallel per [params], memoized through the context)
    and reports the delivered per-core speeds, schedule, throughput and
    peak — bit-identical to the direct {!solve} call it wraps. *)
val policy : Solver.t

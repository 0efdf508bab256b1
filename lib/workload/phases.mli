(** Synthetic phased workloads: Markov-modulated power traces.

    Real programs alternate between execution phases (memory-bound,
    compute-bound, idle...) with dwell times much longer than a DVFS
    period.  This generator emulates that: each core runs an independent
    continuous-time Markov chain over a phase set; at every sampling
    interval the core's phase maps to a utilization, a voltage and hence
    a power.  The output is a {!Thermal.Ptrace.t}, so synthetic
    workloads drive exactly the same replay path as externally captured
    HotSpot traces. *)

type phase = {
  name : string;
  utilization : float;  (** 0..1: fraction of the top speed demanded. *)
  mean_dwell : float;  (** Mean phase residence time, s. *)
}

(** [default_phases] — idle (u 0.05), memory-bound (u 0.4),
    compute-bound (u 0.9), burst (u 1.0), with dwell times from 20 ms to
    200 ms. *)
val default_phases : phase list

(** [generate rng ~phases ~names ~duration ~dt ~power ~levels] samples a
    trace of [ceil (duration / dt)] rows for the named cores.  Each
    core's phase utilization is mapped to the nearest-above available
    voltage ([levels]), whose {!Power.Power_model.psi} becomes the
    trace power.  Raises [Invalid_argument] on an empty phase list,
    out-of-range utilizations, or a [duration] or [dt] that is not
    positive and finite. *)
val generate :
  Random.State.t ->
  phases:phase list ->
  names:string array ->
  duration:float ->
  dt:float ->
  power:Power.Power_model.t ->
  levels:Power.Vf.level_set ->
  Thermal.Ptrace.t

(** [sample_utilization rng ~phases ~n_cores ~epochs ~dt] samples the
    same per-core Markov chains as {!generate} but returns the raw
    utilizations — [epochs] rows of [n_cores] values in [0, 1] — for
    callers (the {!Runtime.Loop} epoch simulator) that map utilization
    to power themselves.  Raises [Invalid_argument] on a bad phase
    list, no cores, a negative epoch count or a [dt] that is not
    positive and finite. *)
val sample_utilization :
  Random.State.t ->
  phases:phase list ->
  n_cores:int ->
  epochs:int ->
  dt:float ->
  float array array

(** [mean_utilization phases] is the stationary mean utilization of the
    chain (phases weighted by mean dwell). *)
val mean_utilization : phase list -> float

(** Computational sprinting on top of the paper's machinery.

    A chip that has been idle sits at the ambient temperature — far
    below [T_max] — so it can briefly run hotter-than-sustainable
    ("sprint") before throttling to a thermally sustainable schedule.
    The transient analysis makes the safe burst length exact: it is the
    {!Thermal.Trace.time_to_threshold} of the burst assignment from the
    idle state, stepped on the context's own engine ({!Eval.backend}),
    so a sparse context never builds the dense eigenbasis.  The plan is

    - burst: every core at the highest mode for [burst_duration];
    - then: hand over to AO's sustainable oscillating schedule.

    Because AO's schedule holds its stable peak at [T_max], the handover
    is safe: the chip enters it at most at [T_max] and the schedule's
    stable status is the hottest trajectory it ever reaches (up to the
    documented coupling tolerance, which the dense verification in AO
    already covers). *)

type plan = {
  burst_voltages : float array;  (** All-top-mode assignment. *)
  burst_duration : float;
      (** Seconds from ambient until [T_max] is reached; [infinity] when
          the burst assignment is sustainable forever. *)
  burst_work : float;  (** Work per core done during the burst. *)
  steady : Ao.result;  (** The sustainable schedule sprinted into. *)
  sprint_gain : float;
      (** Extra work per core vs running the steady schedule during the
          burst window — what sprinting buys; 0 for infinite bursts. *)
}

(** [plan ?margin ev] computes the sprint plan on [ev]'s platform.
    [margin] (default 0.5 C) backs the burst threshold off [t_max] to
    absorb the handover transient.  The inner AO run prices its
    candidates through the context. *)
val plan : ?margin:float -> Eval.t -> plan

type Solver.details += Details of plan

(** [policy] is the registry adapter: it reports the *sustained* AO
    solution (speeds, schedule, throughput, peak) while [Details]
    carries the full plan including the burst. *)
val policy : Solver.t

(** Fig. 4: temperature trace of a random step-up schedule on a 6-core
    (3x2) platform — Theorem 1 in pictures.

    1 s period, up to 3 intervals per core.  Fig. 4(a): starting from the
    35 C ambient, temperatures climb period over period; Fig. 4(b): in
    the stable status each core's maximum sits at the period end (up to
    the documented coupling tolerance). *)

type result = {
  schedule : Sched.Schedule.t;
  warmup : Thermal.Trace.sample array;  (** Multi-period cold-start trace. *)
  stable : Thermal.Trace.sample array;  (** One stable period. *)
  periods_to_stable : int;
  peak : float;
  end_of_period_peak : float;
}

(** [run ?seed ()] (default seed 42) generates the schedule
    deterministically. *)
val run : ?seed:int -> unit -> result

val print : result -> unit

(** [to_csv ~warmup_path ~stable_path r] dumps both traces. *)
val to_csv : warmup_path:string -> stable_path:string -> result -> unit

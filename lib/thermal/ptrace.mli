(** HotSpot [.ptrace] power traces.

    Whitespace-separated text: a header line naming the units, then one
    line per sampling interval with that many power values (watts).
    Combined with an engine ({!Backend.t}) and a sampling interval, a
    trace drives the exact LTI stepper to produce a temperature trace —
    the classic HotSpot workflow, reproduced so externally-generated
    workloads can be replayed. *)

type t = {
  names : string array;  (** Column order. *)
  samples : float array array;  (** [samples.(k).(i)] = power of unit [i]
                                    during interval [k], W. *)
}

exception Parse_error of int * string

(** [of_string text] parses a trace.  Raises {!Parse_error} on ragged
    rows, non-numeric cells or an empty body. *)
val of_string : string -> t

(** [of_file path] reads and parses a [.ptrace] file. *)
val of_file : string -> t

(** [to_string t] renders back to the HotSpot format. *)
val to_string : t -> string

(** [to_file path t] writes {!to_string} to [path]. *)
val to_file : string -> t -> unit

(** [columns_for_model t model_names] maps the trace's columns onto the
    model's core order by name, returning for each model core the trace
    column index.  Raises [Failure] listing any model core missing from
    the trace. *)
val columns_for_model : t -> string array -> int array

(** [replay b t ~interval ~column_map] steps the engine [b] from ambient
    through the whole trace ([interval] seconds per sample row) and
    returns the absolute core-temperature trace, one entry per row
    boundary (first entry = ambient).  Raises [Invalid_argument] when
    [interval] is not positive and finite, or when [column_map] does not
    have one entry per engine core. *)
val replay :
  Backend.t -> t -> interval:float -> column_map:int array -> Trace.sample array

(** Table V: computation-time comparison of AO, PCO and EXS across core
    counts {2, 3, 6, 9} and level counts {2, 3, 4, 5} at
    [T_max = 65 C].

    Paper shape: EXS explodes exponentially with cores x levels (from
    0.01 s on 2 cores to > 2 hours on 9 cores / 5 levels in MATLAB)
    while AO stays roughly flat and PCO costs a constant factor more
    than AO.  Absolute times differ (native OCaml vs MATLAB); the
    trends and the EXS blow-up are the reproduced claims.  The naive
    EXS column ({!Core.Exs.solve_naive}) runs a fresh factorization of
    [A] per combination in a reused workspace, exactly as Algorithm 1 is
    written: the per-combination LU is kept, only its storage is reused.
    The incremental EXS is our optimized variant. *)

type row = {
  cores : int;
  levels : int;
  ao_time : float;
  pco_time : float;
  exs_time : float;  (** Incremental (optimized) EXS. *)
  exs_naive_time : float;  (** Algorithm 1 verbatim. *)
  exs_evaluated : int;
}

type result = { rows : row list }

(** [run ?t_max ?naive_limit ()] times every configuration.
    [naive_limit] (default [2_000_000]) skips the naive EXS when the
    search space exceeds it (reported as [nan]). *)
val run : ?t_max:float -> ?naive_limit:int -> unit -> result

val print : result -> unit
val to_csv : string -> result -> unit

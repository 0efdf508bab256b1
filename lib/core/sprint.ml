type plan = {
  burst_voltages : float array;
  burst_duration : float;
  burst_work : float;
  steady : Ao.result;
  sprint_gain : float;
}

let plan ?(margin = 0.5) ev =
  let p = Eval.platform ev in
  if margin < 0. then invalid_arg "Sprint.plan: negative margin";
  let n = Platform.n_cores p in
  let v_top = Power.Vf.highest p.levels in
  let burst_voltages = Array.make n v_top in
  let psi = Power.Power_model.psi_vector p.power burst_voltages in
  let profile = [ { Thermal.Matex.duration = 1.0; psi } ] in
  let burst_duration =
    match
      Thermal.Trace.time_to_threshold (Eval.backend ev) ~max_periods:10_000
        ~threshold:(p.t_max -. margin) profile
    with
    | Some t -> t
    | None -> infinity
  in
  let steady = Ao.solve ev in
  let burst_work, sprint_gain =
    if Float.is_finite burst_duration then
      let work = v_top *. burst_duration in
      (work, work -. (steady.Ao.throughput *. burst_duration))
    else (infinity, 0.)
  in
  { burst_voltages; burst_duration; burst_work; steady; sprint_gain }

type Solver.details += Details of plan

let policy =
  {
    Solver.name = "sprint";
    doc = "Computational sprinting: exact safe burst, then AO's sustainable schedule";
    comparison = false;
    solve =
      (fun ev (_ : Solver.params) ->
        Solver.timed_outcome ev (fun () ->
            let p = Eval.platform ev in
            let r = plan ev in
            (* The sustained solution is the steady AO schedule; the burst
               is a transient prefix the details record. *)
            {
              Solver.voltages = Solver.delivered_speeds p r.steady.Ao.schedule;
              schedule = Some r.steady.Ao.schedule;
              throughput = r.steady.Ao.throughput;
              peak = r.steady.Ao.peak;
              wall_time = 0.;
              evaluations = 0;
              details = Details r;
            }));
  }

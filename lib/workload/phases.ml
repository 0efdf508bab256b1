type phase = { name : string; utilization : float; mean_dwell : float }

let default_phases =
  [
    { name = "idle"; utilization = 0.05; mean_dwell = 0.05 };
    { name = "memory"; utilization = 0.4; mean_dwell = 0.2 };
    { name = "compute"; utilization = 0.9; mean_dwell = 0.15 };
    { name = "burst"; utilization = 1.0; mean_dwell = 0.02 };
  ]

let validate_phases phases =
  if phases = [] then invalid_arg "Phases: empty phase list";
  List.iter
    (fun p ->
      if p.utilization < 0. || p.utilization > 1. then
        invalid_arg (Printf.sprintf "Phases: utilization of %s outside [0, 1]" p.name);
      if p.mean_dwell <= 0. then
        invalid_arg (Printf.sprintf "Phases: non-positive dwell for %s" p.name))
    phases

let mean_utilization phases =
  validate_phases phases;
  let weight = List.fold_left (fun acc p -> acc +. p.mean_dwell) 0. phases in
  List.fold_left (fun acc p -> acc +. (p.utilization *. p.mean_dwell /. weight)) 0. phases

(* Utilization -> smallest level delivering it (top level when even that
   falls short). *)
let voltage_for_utilization levels u =
  let target = u *. Power.Vf.highest levels in
  let vs = Power.Vf.levels levels in
  let chosen = ref vs.(Array.length vs - 1) in
  for i = Array.length vs - 1 downto 0 do
    if vs.(i) >= target -. 1e-12 then chosen := vs.(i)
  done;
  !chosen

let sample_utilization rng ~phases ~n_cores ~epochs ~dt =
  validate_phases phases;
  if n_cores < 1 then invalid_arg "Phases.sample_utilization: no cores";
  if epochs < 0 then invalid_arg "Phases.sample_utilization: negative epoch count";
  if not (dt > 0. && Float.is_finite dt) then
    invalid_arg "Phases.sample_utilization: dt must be positive and finite";
  let phase_array = Array.of_list phases in
  let n_phases = Array.length phase_array in
  let current = Array.init n_cores (fun _ -> Random.State.int rng n_phases) in
  let out = Array.make_matrix epochs n_cores 0. in
  for e = 0 to epochs - 1 do
    for i = 0 to n_cores - 1 do
      let p = phase_array.(current.(i)) in
      out.(e).(i) <- p.utilization;
      (* Leave the phase with probability dt / mean_dwell. *)
      if Random.State.float rng 1. < Float.min 1. (dt /. p.mean_dwell) then
        current.(i) <- Random.State.int rng n_phases
    done
  done;
  out

let generate rng ~phases ~names ~duration ~dt ~power ~levels =
  validate_phases phases;
  if not (duration > 0. && Float.is_finite duration && dt > 0. && Float.is_finite dt) then
    invalid_arg "Phases.generate: duration and dt must be positive and finite";
  let phase_array = Array.of_list phases in
  let n_phases = Array.length phase_array in
  let n = Array.length names in
  if n = 0 then invalid_arg "Phases.generate: no cores";
  let rows = int_of_float (Float.ceil (duration /. dt)) in
  (* Per-core current phase; dwell exits are geometric with rate dt/mean. *)
  let current = Array.init n (fun _ -> Random.State.int rng n_phases) in
  let samples = Array.init rows (fun _ -> Array.make n 0.) in
  for row = 0 to rows - 1 do
    for i = 0 to n - 1 do
      let p = phase_array.(current.(i)) in
      let v = voltage_for_utilization levels p.utilization in
      samples.(row).(i) <- Power.Power_model.psi power v;
      (* Leave the phase with probability dt / mean_dwell. *)
      if Random.State.float rng 1. < Float.min 1. (dt /. p.mean_dwell) then
        current.(i) <- Random.State.int rng n_phases
    done
  done;
  { Thermal.Ptrace.names = Array.copy names; samples }

module C = Controller
module P = Core.Platform

(* ------------------------------------------------- reactive classics *)

let threshold ?(guard = 2.) () =
  if guard <= 0. then invalid_arg "Controllers.threshold: non-positive guard";
  {
    C.name = "threshold";
    doc =
      "Per-core hysteresis stepping (ondemand-style): down within guard of \
       T_max, up below two guards";
    init =
      (fun env ->
        let t_max = env.C.platform.P.t_max in
        let top = Array.length env.C.levels - 1 in
        fun obs level ->
          Array.iteri
            (fun i t ->
              if t > t_max -. guard && level.(i) > 0 then level.(i) <- level.(i) - 1
              else if t < t_max -. (2. *. guard) && level.(i) < top then
                level.(i) <- level.(i) + 1)
            obs.C.temps);
  }

let pid ?(kp = 0.05) ?(ki = 0.005) ?(guard = 1.) () =
  {
    C.name = "pid";
    doc =
      "Chip-wide PI on the hottest sensor's error, quantized down to the \
       level grid";
    init =
      (fun env ->
        let p = env.C.platform in
        let lo = Power.Vf.lowest p.P.levels in
        let hi = Power.Vf.highest p.P.levels in
        let integral = ref 0. in
        fun obs level ->
          let hottest = Array.fold_left Float.max neg_infinity obs.C.temps in
          let error = p.P.t_max -. guard -. hottest in
          integral := !integral +. error;
          let v_cmd = lo +. (kp *. error) +. (ki *. !integral) in
          let v = Float.max lo (Float.min hi v_cmd) in
          Array.fill level 0 (Array.length level) (C.level_down env.C.levels v));
  }

let static fixed =
  {
    C.name = "static";
    doc = "Fixed per-core level assignment (calibration baseline)";
    init =
      (fun env ->
        (* Validated at construction against the bound platform: a wrong
           arity must fail loudly here, not as an [Array.blit] bounds
           error deep inside the loop. *)
        let n = P.n_cores env.C.platform in
        let top = Array.length env.C.levels - 1 in
        if Array.length fixed <> n then
          invalid_arg
            (Printf.sprintf "Controllers.static: %d level indices for %d cores"
               (Array.length fixed) n);
        Array.iter
          (fun l ->
            if l < 0 || l > top then
              invalid_arg
                (Printf.sprintf "Controllers.static: level index %d outside 0..%d"
                   l top))
          fixed;
        let fixed = Array.copy fixed in
        fun _ level -> Array.blit fixed 0 level 0 n);
  }

(* Rao-style adjustable-gain integral control: one integrator per core
   tracking T_max - guard, with a gain that grows while the error keeps
   its sign (converging too slowly) and halves when it flips
   (overshot).  The continuous command is quantized down per core. *)
let integral ?(guard = 1.) ?(gain = 0.02) ?(gain_min = 0.002) ?(gain_max = 0.2) () =
  if guard < 0. then invalid_arg "Controllers.integral: negative guard";
  if gain <= 0. || gain_min <= 0. || gain_max < gain_min then
    invalid_arg "Controllers.integral: bad gain range";
  {
    C.name = "integral";
    doc =
      "Per-core adaptive-gain integral control toward T_max - guard \
       (Rao-style)";
    init =
      (fun env ->
        let p = env.C.platform in
        let n = P.n_cores p in
        let lo = Power.Vf.lowest p.P.levels in
        let hi = Power.Vf.highest p.P.levels in
        let v_cmd = Array.make n hi in
        let g = Array.make n gain in
        let last = Array.make n 0. in
        fun obs level ->
          for i = 0 to n - 1 do
            let e = p.P.t_max -. guard -. obs.C.temps.(i) in
            if obs.C.epoch > 0 then
              if e *. last.(i) > 0. then g.(i) <- Float.min gain_max (g.(i) *. 1.5)
              else if e *. last.(i) < 0. then g.(i) <- Float.max gain_min (g.(i) /. 2.);
            last.(i) <- e;
            v_cmd.(i) <- Float.max lo (Float.min hi (v_cmd.(i) +. (g.(i) *. e)));
            level.(i) <- C.level_down env.C.levels v_cmd.(i)
          done);
  }

(* TSP power-budget tracking (dvfsTSP-style): the thermal-safe uniform
   budget is solved once at init through the shared eval; each epoch
   every core picks the fastest level whose expected power — scaled by
   the utilization its counters measured — fits the budget, so idle
   cores clock up into the headroom busy cores cannot use.  A small
   thermal backstop sheds one level when a sensor is already inside the
   guard band. *)
let tsp ?(guard = 0.5) () =
  if guard < 0. then invalid_arg "Controllers.tsp: negative guard";
  {
    C.name = "tsp";
    doc =
      "TSP budget tracker: fastest level whose utilization-scaled power fits \
       the thermal-safe uniform budget";
    init =
      (fun env ->
        let p = env.C.platform in
        let budget = (Core.Tsp.solve env.C.eval).Core.Tsp.power_budget in
        let pm = p.P.power in
        let levels = env.C.levels in
        let top = Array.length levels - 1 in
        fun obs level ->
          for i = 0 to Array.length level - 1 do
            let u = obs.C.utilization.(i) in
            let chosen = ref 0 in
            for l = 1 to top do
              if u *. Power.Power_model.psi pm levels.(l) <= budget then chosen := l
            done;
            if obs.C.temps.(i) > p.P.t_max -. guard && !chosen > 0 then decr chosen;
            level.(i) <- !chosen
          done);
  }

(* ------------------------------------------------ offline replay arm *)

let replay env (s : Sched.Schedule.t) =
  let n = Sched.Schedule.n_cores s in
  (* Mid-epoch sampling: when the schedule's switch points sit on the
     control grid this reads exactly the segment covering the epoch;
     schedules finer than the grid alias (the loop cannot switch faster
     than it runs). *)
  let half = 0.5 *. env.C.dt in
  fun (obs : C.observed) level ->
    for i = 0 to n - 1 do
      level.(i) <- C.level_down env.C.levels (Sched.Schedule.voltage_at s i (obs.C.time +. half))
    done

let offline_schedule ?(name = "offline-schedule") s =
  {
    C.name;
    doc = "Open-loop replay of a fixed periodic schedule";
    init =
      (fun env ->
        if Sched.Schedule.n_cores s <> P.n_cores env.C.platform then
          invalid_arg
            "Controllers.offline_schedule: schedule arity differs from platform";
        replay env s);
  }

let offline ?name (policy : Core.Solver.t) =
  let name =
    match name with Some n -> n | None -> "offline-" ^ policy.Core.Solver.name
  in
  {
    C.name;
    doc = "Open-loop replay of the " ^ policy.Core.Solver.name ^ " solve";
    init =
      (fun env ->
        let o = Core.Solver.run policy env.C.eval in
        match o.Core.Solver.schedule with
        | Some s -> replay env s
        | None ->
            (* Constant assignment: quantize once and hold. *)
            let fixed = Array.map (C.level_down env.C.levels) o.Core.Solver.voltages in
            fun _ level -> Array.blit fixed 0 level 0 (Array.length fixed));
  }

(* AO constrained to the control grid: the epoch loop cannot switch
   faster than it samples, so the registered offline/receding-horizon
   AO arms solve on a base period of 40 epochs with the m sweep capped
   at 8 — every mini-period spans at least 5 epochs. *)
let epoch_aligned_ao env =
  Core.Ao.solve ~base_period:(40. *. env.C.dt) ~m_cap:8 env.C.eval

let offline_ao () =
  {
    C.name = "offline-ao";
    doc = "Open-loop replay of an epoch-aligned AO solve";
    init = (fun env -> replay env (epoch_aligned_ao env).Core.Ao.schedule);
  }

(* Receding-horizon AO: re-solve every [resolve_every] epochs through
   the shared eval (replayed from the memo tables after the first
   solve), predict the plan's stable end-of-period core temperatures
   once per solve (also memoized), and each epoch trim every core's
   duty ratio by the observed-minus-predicted error — cooler than
   planned (idle phases, cold start) exploits the headroom, hotter
   (noisy power) sheds high time. *)
let rh_ao ?(resolve_every = 50) ?(ratio_gain = 0.05) () =
  if resolve_every < 1 then invalid_arg "Controllers.rh_ao: resolve_every < 1";
  if ratio_gain < 0. then invalid_arg "Controllers.rh_ao: negative ratio gain";
  {
    C.name = "rh-ao";
    doc =
      "Receding-horizon AO: periodic re-solve through the shared eval plus \
       per-core duty trim against predicted end temps";
    init =
      (fun env ->
        let plan = ref None in
        let anchor = ref 0. in
        fun obs level ->
          if Option.is_none !plan || obs.C.epoch mod resolve_every = 0 then begin
            let r = epoch_aligned_ao env in
            let c = r.Core.Ao.config in
            let ratio =
              Array.map
                (fun h -> Float.max 0. (Float.min 1. (h /. c.Core.Tpt.period)))
                c.Core.Tpt.high_time
            in
            let predicted =
              Core.Eval.two_mode_end_core_temps env.C.eval
                ~period:c.Core.Tpt.period ~low:c.Core.Tpt.v_low
                ~high:c.Core.Tpt.v_high ~high_ratio:ratio
            in
            plan := Some (c, ratio, predicted);
            anchor := obs.C.time
          end;
          match !plan with
          | None -> assert false
          | Some (c, ratio, predicted) ->
              let period = c.Core.Tpt.period in
              let phase =
                Float.rem (obs.C.time -. !anchor +. (0.5 *. env.C.dt)) period
              in
              for i = 0 to Array.length level - 1 do
                let err = obs.C.temps.(i) -. predicted.(i) in
                let r =
                  Float.max 0. (Float.min 1. (ratio.(i) -. (ratio_gain *. err)))
                in
                let v =
                  if phase < (1. -. r) *. period then c.Core.Tpt.v_low.(i)
                  else c.Core.Tpt.v_high.(i)
                in
                level.(i) <- C.level_down env.C.levels v
              done);
  }

(* ----------------------------------------------------------- registry *)

let all () =
  [ threshold (); pid (); integral (); tsp (); offline_ao (); rh_ao () ]

let names () = List.map (fun c -> c.C.name) (all ())
let find name = List.find_opt (fun c -> String.equal c.C.name name) (all ())

let find_exn name =
  match find name with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "Controllers.find_exn: unknown controller %S (have: %s)"
           name
           (String.concat ", " (names ())))

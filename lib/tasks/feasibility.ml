type verdict = {
  demands : float array;
  result : Core.Demand.result;
  schedulable : bool;
}

let core_demands = Partition.utilizations

let check platform assignment =
  let demands = core_demands assignment in
  (* Memo tables off: every demand vector yields new schedules, so
     stored entries would never be read back and would only grow the
     heap over a capacity search's probes. *)
  let result = Core.Demand.solve (Core.Eval.create ~cache_size:0 platform) ~demands in
  let covered =
    Array.for_all2
      (fun delivered demand -> delivered +. 1e-6 >= demand)
      result.Core.Demand.delivered demands
  in
  { demands; result; schedulable = result.Core.Demand.feasible && covered }

let schedule_tasks ?(strategy = `Worst_fit) platform tasks =
  let n_cores = Core.Platform.n_cores platform in
  let capacity = Power.Vf.highest platform.Core.Platform.levels in
  let pack =
    match strategy with
    | `Worst_fit -> Partition.worst_fit_decreasing
    | `First_fit -> Partition.first_fit_decreasing
  in
  match pack ~n_cores ~capacity tasks with
  | None -> None
  | Some assignment -> Some (check platform assignment)

let capacity_factor ?strategy ?(tol = 1e-3) platform tasks =
  let feasible_at f =
    match schedule_tasks ?strategy platform (List.map (Task.scale f) tasks) with
    | Some v -> v.schedulable
    | None -> false
  in
  if not (feasible_at 1e-6) then 0.
  else begin
    (* Grow an upper bound from a known-feasible lower one, then bisect. *)
    let lo = ref 1e-6 and hi = ref 1. in
    while feasible_at !hi && !hi < 1024. do
      lo := !hi;
      hi := !hi *. 2.
    done;
    if feasible_at !hi then !hi (* capped: pathological capacity *)
    else begin
      while (!hi -. !lo) /. !hi > tol do
        let mid = (!lo +. !hi) /. 2. in
        if feasible_at mid then lo := mid else hi := mid
      done;
      !lo
    end
  end

type point = {
  t_max : float;
  throughput : float;
  energy_per_work : float;
  avg_power : float;
  peak : float;
}

type result = { cores : int; points : point list }

let thresholds = List.init 11 (fun i -> 45. +. (2.5 *. float_of_int i))

let run ?(cores = 3) () =
  let points =
    Util.Pool.map
      (fun t_max ->
        let p = Workload.Configs.platform ~cores ~levels:5 ~t_max in
        (* One search per platform revisits almost no candidate, so the
           memo tables stay off: stored entries would only grow the heap. *)
        let ao = Core.Ao.solve (Core.Eval.create ~cache_size:0 p) in
        let breakdown =
          Sched.Energy.per_period p.Core.Platform.model p.Core.Platform.power
            ao.Core.Ao.schedule
        in
        {
          t_max;
          throughput = ao.Core.Ao.throughput;
          energy_per_work =
            Sched.Energy.per_work p.Core.Platform.model p.Core.Platform.power
              ~tau:p.Core.Platform.tau ao.Core.Ao.schedule;
          avg_power = Sched.Energy.average_power breakdown;
          peak = ao.Core.Ao.peak;
        })
      thresholds
  in
  { cores; points }

let print r =
  Exp_common.section
    (Printf.sprintf "Throughput / energy frontier under AO (%d cores, 5 levels)" r.cores);
  let t = Util.Table.create [ "T_max"; "THR"; "J per work"; "chip W"; "peak C" ] in
  List.iter
    (fun pt ->
      Util.Table.add_float_row t
        ~label:(Printf.sprintf "%.1f" pt.t_max)
        [ pt.throughput; pt.energy_per_work; pt.avg_power; pt.peak ])
    r.points;
  Util.Table.print t;
  let first = List.hd r.points and last = List.nth r.points (List.length r.points - 1) in
  Printf.printf
    "raising T_max %.0f -> %.0f C buys %+.0f%% throughput at %+.0f%% energy per unit work\n"
    first.t_max last.t_max
    (Exp_common.improvement last.throughput first.throughput)
    (Exp_common.improvement last.energy_per_work first.energy_per_work)

let to_csv path r =
  Util.Csv.write path
    ~header:[ "t_max"; "throughput"; "energy_per_work"; "avg_power"; "peak" ]
    (List.map
       (fun pt -> [ pt.t_max; pt.throughput; pt.energy_per_work; pt.avg_power; pt.peak ])
       r.points)

let to_svg r =
  Util.Svg_plot.line_chart
    ~title:(Printf.sprintf "Throughput/energy frontier (%d cores)" r.cores)
    ~x_label:"throughput" ~y_label:"energy per unit work (J)"
    [
      {
        Util.Svg_plot.label = "AO frontier";
        points = List.map (fun pt -> (pt.throughput, pt.energy_per_work)) r.points;
      };
    ]

type result = {
  ideal_voltages : float array;
  ideal_throughput : float;
  lns_throughput : float;
  exs_voltages : float array;
  exs_throughput : float;
  table2_ratios : float array;
  naive_peak : float;
  table3 : (float * float array * float) list;
}

let v_low = 0.6
let v_high = 1.3

let run () =
  let p = Workload.Configs.platform ~cores:3 ~levels:2 ~t_max:65. in
  (* One context for every evaluation below: the three adjustment runs
     and the naive-peak read revisit overlapping candidate schedules, so
     sharing the memo tables replays them instead of re-solving. *)
  let eval = Core.Eval.create p in
  let ideal = Core.Ideal.solve p in
  let lns = Core.Lns.solve eval in
  let exs = Core.Exs.solve p in
  let n = Core.Platform.n_cores p in
  let ratios =
    Array.map (fun v -> (v -. v_low) /. (v_high -. v_low)) ideal.Core.Ideal.voltages
  in
  let config period high_time =
    {
      Core.Tpt.period;
      v_low = Array.make n v_low;
      v_high = Array.make n v_high;
      high_time;
      offset = Array.make n 0.;
    }
  in
  let naive = config 0.02 (Array.map (fun r -> r *. 0.02) ratios) in
  let naive_peak = Core.Tpt.peak eval naive in
  let table3 =
    List.map
      (fun period ->
        let c0 = config period (Array.map (fun r -> r *. period) ratios) in
        let adjusted, _ =
          Core.Tpt.adjust_to_constraint eval ~t_unit:(period /. 200.) c0
        in
        let ratios' =
          Array.map (fun h -> h /. period) adjusted.Core.Tpt.high_time
        in
        (period, ratios', Core.Tpt.throughput p adjusted))
      [ 0.02; 0.01; 0.005 ]
  in
  {
    ideal_voltages = ideal.Core.Ideal.voltages;
    ideal_throughput = ideal.Core.Ideal.throughput;
    lns_throughput = lns.Core.Lns.throughput;
    exs_voltages = exs.Core.Exs.voltages;
    exs_throughput = exs.Core.Exs.throughput;
    table2_ratios = ratios;
    naive_peak;
    table3;
  }

let print r =
  Exp_common.section "Section III motivation + Tables II/III (3x1, T_max = 65C, modes {0.6, 1.3}V)";
  Printf.printf "ideal continuous voltages: [%s]  performance %.4f\n"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.4f") r.ideal_voltages)))
    r.ideal_throughput;
  Printf.printf "  (paper: [1.2085; 1.1748; 1.2085], performance 1.1972)\n";
  Printf.printf "LNS performance: %.4f   (paper: 0.6)\n" r.lns_throughput;
  Printf.printf "EXS voltages: [%s]  performance %.4f   (paper: [0.6;0.6;1.3] -> 0.83)\n"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.2f") r.exs_voltages)))
    r.exs_throughput;
  let t2 = Util.Table.create [ "ratio"; "core1"; "core2"; "core3" ] in
  Util.Table.add_float_row t2 ~label:"ratio(v_H)" (Array.to_list r.table2_ratios);
  Util.Table.add_float_row t2 ~label:"ratio(v_L)"
    (Array.to_list (Array.map (fun x -> 1. -. x) r.table2_ratios));
  Printf.printf "\nTable II - throughput-preserving execution-time ratios:\n";
  Util.Table.print t2;
  Printf.printf
    "\nPeak of the unadjusted two-speed schedule (t_p = 20ms): %.2f C (paper: 79.69 C — violates T_max)\n"
    r.naive_peak;
  let t3 =
    Util.Table.create [ "t_p"; "core1 r(v_H)"; "core2 r(v_H)"; "core3 r(v_H)"; "THR" ]
  in
  List.iter
    (fun (period, ratios, thr) ->
      Util.Table.add_float_row t3
        ~label:(Printf.sprintf "%.0fms" (period *. 1e3))
        (Array.to_list ratios @ [ thr ]))
    r.table3;
  Printf.printf "\nTable III - constraint-meeting ratios by period:\n";
  Util.Table.print t3;
  Printf.printf "  (paper at t_p=20/10/5ms: THR 0.8725 / 0.8991 / 0.9182)\n"

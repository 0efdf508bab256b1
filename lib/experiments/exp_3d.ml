type row = {
  label : string;
  cores : int;
  lns : float;
  exs : float;
  ao : float;
  ideal_spread : float;
}

type result = { t_max : float; rows : row list }

let study label platform =
  let ideal = Core.Ideal.solve platform in
  let v = ideal.Core.Ideal.voltages in
  (* LNS and AO share no candidate and AO revisits almost none, so the
     memo tables stay off: stored entries would only grow the heap. *)
  let ev = Core.Eval.create ~cache_size:0 platform in
  {
    label;
    cores = Core.Platform.n_cores platform;
    lns = (Core.Lns.solve ev).Core.Lns.throughput;
    exs = (Core.Exs.solve platform).Core.Exs.throughput;
    ao = (Core.Ao.solve ev).Core.Ao.throughput;
    ideal_spread = Linalg.Vec.max v -. Linalg.Vec.min v;
  }

let run ?(t_max = 60.) () =
  let levels = 5 in
  let planar4 =
    Core.Platform.grid ~rows:2 ~cols:2 ~levels:(Power.Vf.table_iv levels) ~t_max ()
  in
  let planar8 =
    Core.Platform.grid ~rows:2 ~cols:4 ~levels:(Power.Vf.table_iv levels) ~t_max ()
  in
  let stacked8 = Workload.Configs.platform_3d ~layers:2 ~rows:2 ~cols:2 ~levels ~t_max in
  let rows =
    Util.Pool.map
      (fun (label, p) -> study label p)
      [
        ("2x2 planar", planar4);
        ("2x4 planar", planar8);
        ("2x(2x2) stacked", stacked8);
      ]
  in
  { t_max; rows }

let print r =
  Exp_common.section
    (Printf.sprintf "3D stacking study (T_max = %.0f C, 5 levels)" r.t_max);
  let t =
    Util.Table.create
      [ "platform"; "cores"; "LNS"; "EXS"; "AO"; "AO vs EXS %"; "ideal spread V" ]
  in
  List.iter
    (fun row ->
      Util.Table.add_row t
        [
          row.label;
          string_of_int row.cores;
          Printf.sprintf "%.4f" row.lns;
          Printf.sprintf "%.4f" row.exs;
          Printf.sprintf "%.4f" row.ao;
          Printf.sprintf "%+.1f" (Exp_common.improvement row.ao row.exs);
          Printf.sprintf "%.3f" row.ideal_spread;
        ])
    r.rows;
  Util.Table.print t;
  Printf.printf
    "stacking the same 8 cores costs throughput across the board and raises the\n\
     per-core speed heterogeneity; oscillation recovers part of the loss.\n"

let to_csv path r =
  Util.Csv.write_labelled path
    ~header:[ "platform"; "cores"; "lns"; "exs"; "ao"; "ideal_spread" ]
    (List.map
       (fun row ->
         (row.label, [ float_of_int row.cores; row.lns; row.exs; row.ao; row.ideal_spread ]))
       r.rows)

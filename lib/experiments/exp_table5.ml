type row = {
  cores : int;
  levels : int;
  ao_time : float;
  pco_time : float;
  exs_time : float;
  exs_naive_time : float;
  exs_evaluated : int;
}

type result = { rows : row list }

let run ?(t_max = 65.) ?(naive_limit = 2_000_000) () =
  let rows =
    List.concat_map
      (fun cores ->
        List.map
          (fun levels ->
            let p = Workload.Configs.platform ~cores ~levels ~t_max in
            (* Each timed solve creates its context inside the timer, so
               the AO and PCO times are cold-context measurements.  A
               single search revisits almost no candidate, so the memo
               tables stay off: stored entries would only grow the heap. *)
            let cold () = Core.Eval.create ~cache_size:0 p in
            let ao_time = Util.Timer.time_only (fun () -> Core.Ao.solve (cold ())) in
            let pco_time = Util.Timer.time_only (fun () -> Core.Pco.solve (cold ())) in
            let exs, exs_time = Util.Timer.time_it (fun () -> Core.Exs.solve p) in
            let space = int_of_float (Float.pow (float_of_int levels) (float_of_int cores)) in
            let exs_naive_time =
              if space > naive_limit then nan
              else Util.Timer.time_only (fun () -> Core.Exs.solve_naive p)
            in
            {
              cores;
              levels;
              ao_time;
              pco_time;
              exs_time;
              exs_naive_time;
              exs_evaluated = exs.Core.Exs.evaluated;
            })
          Workload.Configs.level_counts)
      Workload.Configs.core_counts
  in
  { rows }

let fmt_time t = if Float.is_nan t then "skipped" else Printf.sprintf "%.4f" t

let print r =
  Exp_common.section "Table V - computation time (seconds), T_max = 65 C";
  let t =
    Util.Table.create
      [ "cores"; "levels"; "AO"; "PCO"; "EXS (incr)"; "EXS (naive)"; "EXS combos" ]
  in
  List.iter
    (fun row ->
      Util.Table.add_row t
        [
          string_of_int row.cores;
          string_of_int row.levels;
          Printf.sprintf "%.4f" row.ao_time;
          Printf.sprintf "%.4f" row.pco_time;
          fmt_time row.exs_time;
          fmt_time row.exs_naive_time;
          string_of_int row.exs_evaluated;
        ])
    r.rows;
  Util.Table.print t;
  (* The paper's headline: EXS grows exponentially, AO does not. *)
  let find cores levels =
    List.find (fun row -> row.cores = cores && row.levels = levels) r.rows
  in
  let small = find 2 2 and big = find 9 5 in
  Printf.printf
    "\nEXS search-space growth 2x2 -> 9x5: %d -> %d combinations (x%.0f)\n"
    small.exs_evaluated big.exs_evaluated
    (float_of_int big.exs_evaluated /. float_of_int small.exs_evaluated);
  Printf.printf "AO time growth over the same span: %.4fs -> %.4fs\n" small.ao_time
    big.ao_time

let to_csv path r =
  Util.Csv.write path
    ~header:[ "cores"; "levels"; "ao_s"; "pco_s"; "exs_s"; "exs_naive_s"; "combos" ]
    (List.map
       (fun row ->
         [
           float_of_int row.cores;
           float_of_int row.levels;
           row.ao_time;
           row.pco_time;
           row.exs_time;
           row.exs_naive_time;
           float_of_int row.exs_evaluated;
         ])
       r.rows)

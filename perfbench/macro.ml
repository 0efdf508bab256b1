(* Macro benchmark: whole jobs through the library's public API, with
   per-layer attribution.

     macro.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads (each equals one command of fosc-experiments):
   - paper-repro         = fosc-experiments all
   - ao-sheet-8x8        = fosc-experiments scale --policy ao --sizes 8x8 --delta-margin 1.0
   - demand-sheet-16x16  = fosc-experiments scale --policy demand --sizes 16x16 --delta-margin 1.0

   A run repeats the workload's job until the next one would overrun
   [--seconds], verifies every answer against the reference pinned in
   this directory, and prints one JSON object as the last line of
   stdout: the end-to-end metrics (medians over the jobs) with
   [--trace 0], the per-layer metrics with [--trace 1].  The workloads
   are fixed reproduction instances, so [--seed] is recorded but does
   not change the inputs: every seed checks the same answers.

   Timings here are spans the benchmark takes around its own calls into
   the library (no instrumentation inside the library).  A traced run
   alternates untraced and traced jobs, keeps every span in memory and
   writes them to .bench_out/ at the end, then prices single calls
   ("unit.*") on the workload's own platform and answer and multiplies
   them by the job's counters ("est.*", computed estimates, not spans). *)

let now = Unix.gettimeofday
let out_dir = ".bench_out"

(* ------------------------------------------------------------ statistics *)

let sorted xs = List.sort compare xs

let quantile xs q =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let j = min (i + 1) (Array.length a - 1) in
      let frac = pos -. float_of_int i in
      a.(i) +. (frac *. (a.(j) -. a.(i)))

let median xs = quantile xs 0.5

(* --------------------------------------------------------------- spans *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span. *)
  start : float;
  stop : float;
  run_id : int;  (** Index of the job within this run. *)
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_span = ref 0
let current_run = ref 0

(* [timed name f] is [(f (), seconds)]; with tracing on it also records a
   span whose parent is the innermost open one. *)
let timed name f =
  let id = !next_span in
  incr next_span;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  if !tracing then open_spans := id :: !open_spans;
  let t0 = now () in
  let close () =
    let t1 = now () in
    if !tracing then begin
      open_spans := List.tl !open_spans;
      spans :=
        { id; name; parent; start = t0; stop = t1; run_id = !current_run }
        :: !spans
    end;
    t1 -. t0
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

(* [per_call f] is the cost of one call of [f], in seconds: the median
   over five batches of enough calls to fill about 20 ms, or a single
   call when one already takes longer than 0.2 s. *)
let per_call f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  let first = now () -. t0 in
  if first > 0.2 then first
  else
    let reps = max 1 (min 100_000 (int_of_float (0.02 /. Float.max first 1e-7))) in
    let batch () =
      let t0 = now () in
      for _ = 1 to reps do
        ignore (Sys.opaque_identity (f ()))
      done;
      (now () -. t0) /. float_of_int reps
    in
    median (List.init 5 (fun _ -> batch ()))

(* ----------------------------------------------------------- job records *)

(* One job: its end-to-end timings, its answer, its checks and the layer
   values it measured (span times and counters, by metric name). *)
type job = {
  wall : float;
  setup : float;
  solve : float;
  throughput : float;
  attempted : int;
  failed : int;
  layers : (string * float) list;
}

(* What a traced run needs after its jobs to price single calls: the
   answer's platform and two-mode configuration, and the solve it
   re-runs sequentially. *)
type probe = {
  platform : Core.Platform.t;
  spec : Thermal.Spec.t;  (** What the platform's dense model was built from. *)
  config : Core.Tpt.config;
  answer_ctx : Core.Eval.t;  (** The solve's context, memo tables warm. *)
  solve_seq : unit -> float * float;  (** (seconds, throughput) at par = false. *)
}

let check ok what (attempted, failed) =
  if not ok then Printf.eprintf "answer check failed: %s\n%!" what;
  (attempted + 1, if ok then failed else failed + 1)

let close_to ~tol reference x =
  Float.abs (x -. reference) <= tol *. Float.max 1. (Float.abs reference)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The screening and delta-tier counters are process-wide, so every job
   resets them first and reads them last. *)
let reset_global_counters () =
  Core.Screen.reset_stats ();
  Core.Tpt.reset_delta_stats ()

let global_counter_layers () =
  let scr = Core.Screen.stats () and dlt = Core.Tpt.delta_stats () in
  let f = float_of_int in
  [
    ("tpt.delta_cached", f dlt.Core.Tpt.cached);
    ("tpt.delta_scored", f dlt.Core.Tpt.scored);
    ("tpt.delta_exact", f dlt.Core.Tpt.exact);
    ("tpt.delta_exact_ratio", ratio dlt.Core.Tpt.exact dlt.Core.Tpt.scored);
    ("screen.scored", f scr.Core.Screen.scored);
    ("screen.survivors", f scr.Core.Screen.survivors);
    ("screen.survivor_ratio", ratio scr.Core.Screen.survivors scr.Core.Screen.scored);
  ]

(* ------------------------------------------------- the paper's platforms *)

let levels5 = Power.Vf.table_iv 5
let t_max = 65.

(* The 9-core, 5-level, 65 C paper platform: the dense-engine unit costs
   are priced on it for every workload. *)
let paper9 () = Workload.Configs.platform ~cores:9 ~levels:5 ~t_max

let fixed_two_mode n =
  {
    Core.Tpt.period = 0.01;
    v_low = Array.make n 0.6;
    v_high = Array.make n 1.3;
    high_time = Array.make n 0.005;
    offset = Array.make n 0.;
  }

(* ------------------------------------------------------ paper-repro job *)

(* [capture f] runs [f] with the process's stdout redirected into a file
   under .bench_out and returns what it printed. *)
let capture f =
  let path = Filename.concat out_dir "capture.txt" in
  flush stdout;
  Format.pp_print_flush Format.std_formatter ();
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Format.pp_print_flush Format.std_formatter ();
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  In_channel.with_open_bin path In_channel.input_all

(* Wall-clock fields are not part of an experiment's answer: Table V's
   time columns, the ablations' "in 0.003s"-style timings, and the
   ~1e-13 C float the sensitivity study prints at zero coupling, which
   moves with summation order.  Whitespace runs collapse so column
   padding that follows a masked width does not count either. *)
let mask experiment line =
  let sub re by s = Str.global_replace (Str.regexp re) by s in
  let line =
    match experiment with
    | "table5" -> sub "[0-9]+\\.[0-9]+" "#" line
    | "ablations" ->
        line |> sub "[0-9]+\\.[0-9]+s" "#s" |> sub "(x[0-9]+\\.[0-9]+)" "(x#)"
    | "sensitivity" -> sub "[0-9.]+e-\\(1[2-9]\\|[2-9][0-9]\\)" "~0" line
    | _ -> line
  in
  String.split_on_char ' ' line
  |> List.filter (fun w -> w <> "")
  |> String.concat " "

let significant_lines experiment text =
  String.split_on_char '\n' text
  |> List.map (mask experiment)
  |> List.filter (fun l -> l <> "")

(* The reference is `fosc-experiments all` output from the commit that
   added this benchmark, split into one chunk per experiment at each
   section banner. *)
let reference_chunks path =
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
  in
  let is_rule l = String.length l > 0 && String.for_all (fun c -> c = '=') l in
  let is_title l = String.length l > 3 && String.sub l 0 3 = "== " in
  let rec split acc cur = function
    | a :: (b :: _ as rest) when is_rule a && is_title b ->
        split (if cur = [] then acc else List.rev cur :: acc) [ a ] rest
    | l :: rest -> split acc (l :: cur) rest
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
  in
  List.map (String.concat "\n") (split [] [] lines)
  |> List.filter (fun chunk -> significant_lines "" chunk <> [])

(* The experiments of `fosc-experiments all`, in its order, with its
   default flags (step 0.6, seed 42, m-max 50, Fig. 6 T_max 55 C,
   race duration 6 s).  Each entry runs its experiment and returns the
   printer of its result. *)
let fig6_ao_mean = ref nan

let experiments : (string * (unit -> unit -> unit)) list =
  let open Experiments in
  let e name run print = (name, fun () -> let r = run () in fun () -> print r) in
  [
    e "motivation" Exp_motivation.run Exp_motivation.print;
    e "fig2" Exp_fig2.run Exp_fig2.print;
    e "fig3" (Exp_fig3.run ~step:0.6) Exp_fig3.print;
    e "fig4" (Exp_fig4.run ~seed:42) Exp_fig4.print;
    e "fig5" (Exp_fig5.run ~seed:42 ~m_max:50) Exp_fig5.print;
    e "fig6"
      (fun () ->
        let r = Exp_fig6.run ~t_max:55. () in
        let ao = List.map (fun (row : Exp_common.policy_row) -> row.ao) r.Exp_fig6.rows in
        fig6_ao_mean := List.fold_left ( +. ) 0. ao /. float_of_int (List.length ao);
        r)
      Exp_fig6.print;
    e "fig7" Exp_fig7.run Exp_fig7.print;
    e "table5" Exp_table5.run Exp_table5.print;
    e "ablations" Exp_ablations.run Exp_ablations.print;
    e "sensitivity" Exp_sensitivity.run Exp_sensitivity.print;
    e "tasks" Exp_tasks.run Exp_tasks.print;
    e "pareto" Exp_pareto.run Exp_pareto.print;
    e "race" (Exp_race.run ~duration:6. ~seed:42) Exp_race.print;
    e "stacking3d" Exp_3d.run Exp_3d.print;
  ]

let experiment_metric name = "exp." ^ name ^ "_s"

(* Headline answer: the mean AO throughput over Fig. 6's 16 rows.  This
   and the sheet answers below were measured on the library as of the
   commit that added this benchmark, like reference/paper_repro.txt. *)
let paper_throughput_ref = 0.96056389071826209

(* Set-up: the paper's standard platforms (2, 3, 6 and 9 cores) and their
   dense modal engines — the dense counterpart of a sheet's set-up. *)
let paper_setup () =
  let platforms, t_platform =
    timed "core.platform" (fun () ->
        List.map
          (fun cores -> Workload.Configs.platform ~cores ~levels:5 ~t_max)
          Workload.Configs.core_counts)
  in
  let (), t_engine =
    timed "thermal.engine_build" (fun () ->
        List.iter
          (fun p -> ignore (Core.Eval.engine (Core.Eval.create p)))
          platforms)
  in
  (t_platform, t_engine)

let paper_repro_job ~reference () =
  reset_global_counters ();
  (* Set-up takes well under a millisecond, so it is repeated and the
     median kept; only the last repetition falls inside the job's wall. *)
  let early = List.init 4 (fun _ -> timed "setup" paper_setup) in
  let t0 = now () in
  let reps = timed "setup" paper_setup :: early in
  let setup = median (List.map snd reps) in
  let t_platform = median (List.map (fun ((p, _), _) -> p) reps) in
  let t_engine = median (List.map (fun ((_, e), _) -> e) reps) in
  let checks = ref (0, 0) in
  let solve = ref 0. in
  let layers = ref [] in
  List.iteri
    (fun i (name, run) ->
      let print, d = timed ("exp." ^ name) run in
      solve := !solve +. d;
      layers := (experiment_metric name, d) :: !layers;
      let got = significant_lines name (capture print) in
      let want = significant_lines name (List.nth reference i) in
      checks := check (got = want) ("paper-repro " ^ name) !checks)
    experiments;
  let attempted, failed =
    check
      (close_to ~tol:1e-9 paper_throughput_ref !fig6_ao_mean)
      (Printf.sprintf "paper-repro throughput %.17g" !fig6_ao_mean)
      !checks
  in
  {
    wall = now () -. t0;
    setup;
    solve = !solve;
    throughput = !fig6_ao_mean;
    attempted;
    failed;
    layers =
      ("core.platform_s", t_platform)
      :: ("thermal.engine_build_s", t_engine)
      :: (!layers @ global_counter_layers ());
  }

(* The eval-layer and pool probe of paper-repro: the comparison set
   (LNS, EXS, AO, PCO) on the 9-core platform through one shared context,
   where PCO replays AO's search from cache. *)
let paper_probe () =
  let platform = paper9 () in
  let ev = Core.Eval.create platform in
  let outcomes =
    Experiments.Exp_common.run_comparison ~eval:ev ~cores:9 ~levels:5 ~t_max ()
  in
  let ao = List.assoc "ao" outcomes in
  let config =
    match ao.Core.Solver.details with
    | Core.Ao.Details r -> r.Core.Ao.config
    | _ -> fixed_two_mode 9
  in
  let evaluations =
    List.fold_left (fun n (_, o) -> n + o.Core.Solver.evaluations) 0 outcomes
  in
  let solve_with par () =
    let ctx = Core.Eval.create platform in
    let params = { Core.Solver.default_params with par } in
    let o, d = timed "core.solver" (fun () -> Core.Solver.run ~params Core.Ao.policy ctx) in
    (d, o.Core.Solver.throughput)
  in
  ( {
      platform;
      spec = Thermal.Spec.of_model platform.Core.Platform.model;
      config;
      answer_ctx = ev;
      solve_seq = solve_with false;
    },
    evaluations,
    solve_with true )

(* ---------------------------------------------------------- sheet jobs *)

(* The last traced job's answer, priced call by call after the jobs. *)
let last_probe : probe option ref = ref None

type sheet = {
  policy : Core.Solver.t;
  rows : int;
  cols : int;
  ref_throughput : float;
  ref_peak : float;
  expect_feasible : bool option;  (** Demand's verdict; [None] for AO. *)
}

let sheet_params par =
  { Core.Solver.default_params with Core.Solver.par; delta_margin = 1.0 }

(* The CLI's sparse searches opt into screening at 0.5 K. *)
let sheet_context platform =
  Core.Eval.create ~backend:Core.Eval.Sparse ~screen_margin:0.5 platform

(* Response-engine builds are counted process-wide; this is the count at
   the last read, so a job reports only the builds it caused. *)
let builds_seen = ref 0

let response_stats ev =
  match Core.Eval.sparse_response_stats ev with
  | Some r ->
      builds_seen := r.Thermal.Sparse_response.builds;
      r
  | None -> failwith "sparse response engine was not built"

let eval_layers ev =
  let s = Core.Eval.stats ev in
  let c (x : Sched.Peak.Cache.stats) = (float_of_int x.hits, float_of_int x.misses) in
  let sh, sm = c s.Core.Eval.steady and uh, um = c s.Core.Eval.stepup in
  [
    ("eval.steady_hits", sh);
    ("eval.steady_misses", sm);
    ("eval.stepup_hits", uh);
    ("eval.stepup_misses", um);
    ("eval.hit_rate", Core.Eval.hit_rate ev);
  ]

let two_mode_config_of (o : Core.Solver.outcome) =
  match o.Core.Solver.details with
  | Core.Ao.Details r -> Some r.Core.Ao.config
  | Core.Demand.Details r ->
      (* Demand's answer is an aligned step-up schedule: low then high. *)
      let s = r.Core.Demand.schedule in
      let period = Sched.Schedule.period s in
      let n = Sched.Schedule.n_cores s in
      let cfg = fixed_two_mode n in
      let ok = ref true in
      for i = 0 to n - 1 do
        match Sched.Schedule.core_segments s i with
        | [ seg ] ->
            cfg.v_low.(i) <- seg.voltage;
            cfg.v_high.(i) <- seg.voltage;
            cfg.high_time.(i) <- period
        | [ lo; hi ] ->
            cfg.v_low.(i) <- lo.voltage;
            cfg.v_high.(i) <- hi.voltage;
            cfg.high_time.(i) <- hi.duration
        | _ -> ok := false
      done;
      if !ok then Some { cfg with period } else None
  | _ -> None

let sheet_job sheet ~keep () =
  reset_global_counters ();
  let builds_before = !builds_seen in
  let t0 = now () in
  let (platform, ev, t_platform, t_engine, t_rom), setup =
    timed "setup" (fun () ->
        let platform, t_platform =
          timed "core.platform" (fun () ->
              Core.Platform.sheet ~rows:sheet.rows ~cols:sheet.cols
                ~levels:levels5 ~t_max ())
        in
        let ev = sheet_context platform in
        let _, t_engine = timed "thermal.engine_build" (fun () -> Core.Eval.backend ev) in
        let _, t_rom = timed "thermal.rom_build" (fun () -> Core.Eval.screening ev) in
        (platform, ev, t_platform, t_engine, t_rom))
  in
  let o, solve =
    timed "core.solver" (fun () ->
        Core.Solver.run ~params:(sheet_params true) sheet.policy ev)
  in
  let name = sheet.policy.Core.Solver.name in
  let checks =
    (0, 0)
    |> check
         (close_to ~tol:1e-9 sheet.ref_throughput o.Core.Solver.throughput)
         (Printf.sprintf "%s throughput %.17g" name o.Core.Solver.throughput)
    |> check
         (close_to ~tol:1e-9 sheet.ref_peak o.Core.Solver.peak)
         (Printf.sprintf "%s peak %.17g" name o.Core.Solver.peak)
  in
  let attempted, failed =
    match (sheet.expect_feasible, o.Core.Solver.details) with
    | Some want, Core.Demand.Details r ->
        check (r.Core.Demand.feasible = want) "demand feasibility verdict" checks
    | Some _, _ -> check false "demand details missing" checks
    | None, _ ->
        check (o.Core.Solver.peak <= t_max +. 1e-9) "peak within T_max" checks
  in
  let wall = now () -. t0 in
  let r = response_stats ev in
  let f = float_of_int in
  let layers =
    [
      ("core.platform_s", t_platform);
      ("thermal.engine_build_s", t_engine);
      ("thermal.rom_build_s", t_rom);
      ("sparse_response.stable_solves", f r.Thermal.Sparse_response.stable_solves);
      ("sparse_response.superpose_evals", f r.Thermal.Sparse_response.superpose_evals);
      ("sparse_response.builds", f (r.Thermal.Sparse_response.builds - builds_before));
      ("solver.evaluations", f o.Core.Solver.evaluations);
    ]
    @ global_counter_layers () @ eval_layers ev
  in
  (match two_mode_config_of o with
  | Some config when keep ->
      let solve_seq () =
        let ctx = sheet_context platform in
        ignore (Core.Eval.backend ctx);
        ignore (Core.Eval.screening ctx);
        let o, d =
          timed "core.solver_seq" (fun () ->
              Core.Solver.run ~params:(sheet_params false) sheet.policy ctx)
        in
        ignore (response_stats ctx);
        (d, o.Core.Solver.throughput)
      in
      last_probe :=
        Some
          {
            platform;
            (* The same spec [Core.Platform.sheet] builds its model from. *)
            spec =
              Thermal.Grid_model.sheet_spec ~ambient:35.
                ~leak_beta:Power.Power_model.default.Power.Power_model.beta
                ~rows:sheet.rows ~cols:sheet.cols ();
            config;
            answer_ctx = ev;
            solve_seq;
          }
  | _ -> ());
  { wall; setup; solve; throughput = o.Core.Solver.throughput; attempted; failed; layers }

(* -------------------------------------------------- traced-run extras *)

(* Single calls priced on the workload's own platform and answer.  Every
   value is a per-call cost; nothing here enters a job's end-to-end
   timings. *)
let unit_costs (p : probe) =
  let c = p.config in
  let period = c.Core.Tpt.period and low = c.v_low and high = c.v_high in
  let ratio =
    Array.map (fun h -> Float.min 1. (Float.max 0. (h /. period))) c.high_time
  in
  let n = Array.length low in
  let backend = Core.Eval.kind p.answer_ctx in
  let sparse = backend = Core.Eval.Sparse in
  (* Cache off, so every exact call solves its stable status afresh. *)
  let cold =
    Core.Eval.create ~cache_size:0 ~backend
      ~screen_margin:(if sparse then 0.5 else 0.)
      p.platform
  in
  ignore (Core.Eval.backend cold);
  ignore (Core.Eval.screening cold);
  let exact =
    per_call (fun () ->
        Core.Eval.two_mode_peak cold ~period ~low ~high ~high_ratio:ratio)
  in
  Core.Eval.two_mode_delta_base cold ~period ~low ~high ~high_ratio:ratio;
  let core = ref 0 in
  let delta =
    per_call (fun () ->
        core := (!core + 1) mod n;
        let i = !core in
        Core.Eval.two_mode_delta_peak cold ~core:i ~low:low.(i) ~high:high.(i)
          ~high_ratio:(0.99 *. ratio.(i)))
  in
  let rom =
    per_call (fun () ->
        Core.Eval.rom_two_mode_peak cold ~period ~low ~high ~high_ratio:ratio)
  in
  if sparse then ignore (response_stats cold);
  let warm = p.answer_ctx in
  ignore (Core.Eval.two_mode_peak warm ~period ~low ~high ~high_ratio:ratio);
  let memo_hit =
    per_call (fun () ->
        Core.Eval.two_mode_peak warm ~period ~low ~high ~high_ratio:ratio)
  in
  let pool = Util.Pool.get () in
  let xs = Array.init (Util.Pool.size pool) Fun.id in
  let roundtrip = per_call (fun () -> Util.Pool.map_array ~pool succ xs) in
  let p9 = paper9 () in
  let m9 = p9.Core.Platform.model in
  let lu_steady =
    per_call (fun () -> Thermal.Model.steady_core_temps m9 (Array.make 9 15.))
  in
  let cold9 = Core.Eval.create ~cache_size:0 p9 in
  let s9 = Core.Tpt.schedule_of_config (fixed_two_mode 9) in
  let stepup = per_call (fun () -> Core.Eval.step_up_peak cold9 s9) in
  let to_model = per_call (fun () -> Thermal.Spec.to_model p.spec) in
  [
    ("unit.exact_stable_ms", 1e3 *. exact);
    ("unit.delta_score_us", 1e6 *. delta);
    ("unit.rom_score_us", 1e6 *. rom);
    ("unit.memo_hit_us", 1e6 *. memo_hit);
    ("unit.pool_roundtrip_us", 1e6 *. roundtrip);
    ("unit.dense_lu_steady_us", 1e6 *. lu_steady);
    ("unit.dense_stepup_peak_us", 1e6 *. stepup);
    ("thermal.spec_to_model_s", to_model);
  ]

(* A fixed kernel timed every run so machine drift shows beside the
   metrics: the symmetric eigensolve of the 9-core thermal matrix. *)
let calibration_us () =
  let a = Thermal.Model.a_matrix (paper9 ()).Core.Platform.model in
  let sym = Linalg.Mat.init 9 9 (fun i j -> Linalg.Mat.get a i j +. Linalg.Mat.get a j i) in
  1e6 *. per_call (fun () -> Linalg.Sym_eig.decompose sym)

(* ----------------------------------------------------------- metrics *)

(* The names and units BENCHMARK.json declares, in its order. *)
let end_to_end_spec =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("solve_s", "s");
    ("heap_peak_mb", "MB");
    ("throughput", "norm");
  ]

let per_layer_spec =
  [
    ("core.platform_s", "s");
    ("thermal.spec_to_model_s", "s");
    ("thermal.engine_build_s", "s");
    ("thermal.rom_build_s", "s");
    ("sparse_response.stable_solves", "count");
    ("sparse_response.superpose_evals", "count");
    ("sparse_response.builds", "count");
    ("unit.exact_stable_ms", "ms");
    ("est.exact_stable_s", "s");
    ("est.exact_share", "ratio");
    ("tpt.delta_cached", "count");
    ("tpt.delta_scored", "count");
    ("tpt.delta_exact", "count");
    ("tpt.delta_exact_ratio", "ratio");
    ("unit.delta_score_us", "us");
    ("est.delta_s", "s");
    ("screen.scored", "count");
    ("screen.survivors", "count");
    ("screen.survivor_ratio", "ratio");
    ("unit.rom_score_us", "us");
    ("est.rom_s", "s");
    ("eval.stepup_hits", "count");
    ("eval.stepup_misses", "count");
    ("eval.steady_hits", "count");
    ("eval.steady_misses", "count");
    ("eval.hit_rate", "ratio");
    ("solver.evaluations", "count");
    ("unit.memo_hit_us", "us");
  ]
  @ List.map (fun (name, _) -> (experiment_metric name, "s")) experiments
  @ [
      ("unit.dense_lu_steady_us", "us");
      ("unit.dense_stepup_peak_us", "us");
      ("core.solve_seq_s", "s");
      ("pool.speedup", "ratio");
      ("pool.domains", "count");
      ("unit.pool_roundtrip_us", "us");
      ("est.residual_s", "s");
      ("trace.overhead_s", "s");
      ("calib.sym_eig_us", "us");
    ]

let is_count name = List.assoc name per_layer_spec = "count"

(* ------------------------------------------------------------- runs *)

type opts = { workload : string; seed : int; seconds : float; trace : bool }

let workloads = [ "paper-repro"; "ao-sheet-8x8"; "demand-sheet-16x16" ]

let usage () =
  prerr_endline
    "usage: macro.exe --workload (paper-repro|ao-sheet-8x8|demand-sheet-16x16) \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((flag, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get flag = match List.assoc_opt flag args with Some v -> v | None -> usage () in
  let int_of s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem workload workloads) then usage ();
  let seconds = int_of (get "--seconds") in
  if seconds < 1 then usage ();
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  { workload; seed = int_of (get "--seed"); seconds = float_of_int seconds; trace }

(* The commit of the checkout, when it is a git work tree. *)
let git_commit () =
  let read path = String.trim (In_channel.with_open_bin path In_channel.input_all) in
  try
    let head = read ".git/HEAD" in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let ref_name = String.sub head 5 (String.length head - 5) in
      let loose = Filename.concat ".git" ref_name in
      if Sys.file_exists loose then read loose
      else
        read ".git/packed-refs" |> String.split_on_char '\n'
        |> List.find (fun l -> String.ends_with ~suffix:(" " ^ ref_name) l)
        |> fun l -> String.sub l 0 (String.index l ' ')
    else head
  with _ -> "unknown"

(* Demand legitimately reports infeasible demands, so its check is the
   verdict and the measured peak, not peak <= T_max. *)
let sheets =
  [
    ( "ao-sheet-8x8",
      {
        policy = Core.Ao.policy;
        rows = 8;
        cols = 8;
        ref_throughput = 1.0938893144617927;
        ref_peak = 64.997105700669692;
        expect_feasible = None;
      } );
    ( "demand-sheet-16x16",
      {
        policy = Core.Demand.policy;
        rows = 16;
        cols = 16;
        ref_throughput = 1.0908005062457842;
        ref_peak = 65.762989732766741;
        expect_feasible = Some false;
      } );
  ]

(* [run_jobs ~seconds job] repeats [job] until the next repetition would
   overrun [seconds] (always at least [min_jobs]). *)
let run_jobs ~seconds ~min_jobs job =
  let t_start = now () in
  let rec go acc n last =
    let elapsed = now () -. t_start in
    if n >= min_jobs && elapsed +. last > seconds then List.rev acc
    else begin
      current_run := n;
      let t0 = now () in
      let j = job n in
      go (j :: acc) (n + 1) (now () -. t0)
    end
  in
  go [] 0 0.

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_metrics metrics =
  metrics
  |> List.map (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
  |> String.concat ", "
  |> Printf.sprintf "{%s}"

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let () =
  let o = parse_args () in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let pool = Util.Pool.get () in
  (* Spawn the pool's worker domains before anything is timed. *)
  ignore (Util.Pool.map_array ~pool succ (Array.init (2 * Util.Pool.size pool) Fun.id));
  let env =
    Printf.sprintf
      "{\"nproc\": %d, \"pool_domains\": %d, \"FOSC_DOMAINS\": %S, \"ocaml\": %S, \
       \"commit\": %S, \"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b}"
      (Domain.recommended_domain_count ())
      (Util.Pool.size pool)
      (Option.value ~default:"unset" (Sys.getenv_opt "FOSC_DOMAINS"))
      Sys.ocaml_version (git_commit ()) o.workload o.seed o.seconds o.trace
  in
  let calib = calibration_us () in
  Printf.printf "env %s\ncalibration sym-eig-9x9 %.3f us\n%!" env calib;
  let job, extra_layers =
    match o.workload with
    | "paper-repro" ->
        let reference = reference_chunks "perfbench/reference/paper_repro.txt" in
        if List.length reference <> List.length experiments then
          failwith "paper-repro reference: wrong number of experiment sections";
        let job _ = paper_repro_job ~reference () in
        let extras () =
          let probe, evaluations, solve_par = paper_probe () in
          let ev_layers = eval_layers probe.answer_ctx in
          let seq = median (List.init 5 (fun _ -> fst (probe.solve_seq ()))) in
          let par = median (List.init 5 (fun _ -> fst (solve_par ()))) in
          (("solver.evaluations", float_of_int evaluations) :: ev_layers)
          @ [ ("core.solve_seq_s", seq); ("pool.speedup", seq /. par) ]
          @ unit_costs probe
        in
        (job, extras)
    | name ->
        let sheet = List.assoc name sheets in
        let job n = sheet_job sheet ~keep:(o.trace && n mod 2 = 1) () in
        let extras () =
          match !last_probe with
          | None -> failwith "no traced job kept its answer"
          | Some probe ->
              let seq, thr = probe.solve_seq () in
              if not (close_to ~tol:1e-9 sheet.ref_throughput thr) then
                Printf.eprintf "sequential solve disagrees: throughput %.17g\n%!" thr;
              ("core.solve_seq_s", seq) :: unit_costs probe
        in
        (job, extras)
  in
  (* A traced run alternates untraced and traced jobs, so the two halves
     see the same machine state; their wall medians give the overhead.
     The top heap is read once the first job ends, so it does not grow
     with the number of jobs a run fits in. *)
  let heap_words = ref 0 in
  let job n =
    tracing := o.trace && n mod 2 = 1;
    let j = job n in
    tracing := false;
    if n = 0 then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    (n, j)
  in
  let jobs = run_jobs ~seconds:o.seconds ~min_jobs:(if o.trace then 2 else 1) job in
  let all = List.map snd jobs in
  let traced = List.filter_map (fun (n, j) -> if o.trace && n mod 2 = 1 then Some j else None) jobs in
  let untraced = List.filter_map (fun (n, j) -> if o.trace && n mod 2 = 1 then None else Some j) jobs in
  let attempted = List.fold_left (fun a j -> a + j.attempted) 0 all in
  let failed = List.fold_left (fun a j -> a + j.failed) 0 all in
  let throughputs = List.sort_uniq compare (List.map (fun j -> j.throughput) all) in
  let failed = if List.length throughputs = 1 then failed else failed + 1 in
  let med f js = median (List.map f js) in
  (* Counters must repeat exactly from job to job. *)
  let counts_repeat =
    List.for_all
      (fun (name, _) ->
        (not (is_count name))
        || List.length
             (List.sort_uniq compare
                (List.map (fun j -> List.assoc_opt name j.layers) all))
           = 1)
      per_layer_spec
  in
  let heap_mb = float_of_int (!heap_words * (Sys.word_size / 8)) /. 1e6 in
  let metrics =
    if not o.trace then
      [
        ("wall_s", med (fun j -> j.wall) all);
        ("setup_s", med (fun j -> j.setup) all);
        ("solve_s", med (fun j -> j.solve) all);
        ("heap_peak_mb", heap_mb);
        ("throughput", med (fun j -> j.throughput) all);
      ]
      |> List.map (fun (name, v) -> (name, List.assoc name end_to_end_spec, v))
    else begin
      let extras = extra_layers () in
      let layer name =
        match List.assoc_opt name extras with
        | Some v -> v
        | None -> (
            match List.filter_map (fun j -> List.assoc_opt name j.layers) traced with
            | [] -> 0.
            | vs -> median vs)
      in
      let solve = med (fun j -> j.solve) traced in
      let est_exact =
        layer "sparse_response.stable_solves" *. layer "unit.exact_stable_ms" /. 1e3
      in
      let est_delta = layer "tpt.delta_scored" *. layer "unit.delta_score_us" /. 1e6 in
      let est_rom = layer "screen.scored" *. layer "unit.rom_score_us" /. 1e6 in
      let computed =
        [
          ("est.exact_stable_s", est_exact);
          ("est.exact_share", est_exact /. solve);
          ("est.delta_s", est_delta);
          ("est.rom_s", est_rom);
          ("est.residual_s", solve -. est_exact -. est_delta -. est_rom);
          ("trace.overhead_s", med (fun j -> j.wall) traced -. med (fun j -> j.wall) untraced);
          ("pool.domains", float_of_int (Util.Pool.size pool));
          ("calib.sym_eig_us", calib);
        ]
        @
        if List.mem_assoc "pool.speedup" extras then []
        else [ ("pool.speedup", layer "core.solve_seq_s" /. solve) ]
      in
      List.map
        (fun (name, unit) ->
          let v = match List.assoc_opt name computed with Some v -> v | None -> layer name in
          (name, unit, v))
        per_layer_spec
    end
  in
  (* A metric that is not a number is a broken answer, not a result. *)
  let failed =
    failed + List.length (List.filter (fun (_, _, v) -> not (Float.is_finite v)) metrics)
  in
  (* Human-readable summary, then the result line. *)
  let n = List.length all in
  let summary metric f =
    let xs = List.map f all in
    Printf.printf "%-14s median %.6g  p25 %.6g  p75 %.6g  (n = %d jobs)\n" metric
      (median xs) (quantile xs 0.25) (quantile xs 0.75) n
  in
  summary "wall_s" (fun j -> j.wall);
  summary "setup_s" (fun j -> j.setup);
  summary "solve_s" (fun j -> j.solve);
  Printf.printf "heap_peak_mb   %.6g MB\nthroughput     %.17g\n" heap_mb
    (List.hd throughputs);
  Printf.printf "check_failures %d/%d (%.6g)\ncounters repeat across jobs: %b\n"
    failed attempted
    (float_of_int failed /. float_of_int (max 1 attempted))
    counts_repeat;
  if o.trace then
    List.iter (fun (name, unit, v) -> Printf.printf "  %-34s %.6g %s\n" name v unit) metrics;
  let base = Printf.sprintf "%s/%s-seed%d-trace%d" out_dir o.workload o.seed (Bool.to_int o.trace) in
  let result =
    Printf.sprintf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      (failed = 0) attempted failed (json_metrics metrics)
  in
  let job_json j =
    Printf.sprintf "{\"wall_s\": %s, \"setup_s\": %s, \"solve_s\": %s, \"layers\": {%s}}"
      (json_number j.wall) (json_number j.setup) (json_number j.solve)
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_number v)) j.layers))
  in
  write_file (base ^ ".json")
    (Printf.sprintf "{\"env\": %s, \"calibration_us\": %s, \"jobs\": [%s], \"result\": %s}\n"
       env (json_number calib)
       (String.concat ", " (List.map job_json all))
       result);
  if o.trace then
    write_file (base ^ "-spans.jsonl")
      (String.concat ""
         (List.rev_map
            (fun s ->
              Printf.sprintf
                "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start\": %.6f, \"end\": %.6f, \
                 \"workload\": %S, \"seed\": %d, \"run_id\": %d}\n"
                s.id s.name s.parent s.start s.stop o.workload o.seed s.run_id)
            !spans));
  print_endline result

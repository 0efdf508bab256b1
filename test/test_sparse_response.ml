(* Differential tests for the sparse superposition engine and the
   two-tier ROM screening path: superposed equilibria and streamed
   stable statuses must agree with per-candidate Sparse_model CG solves
   to <= 1e-9 at n <= 27, per-domain scratch must neither contend (pool
   sizes 1 and 4 bit-identical) nor cross-contaminate between engines,
   and a screened search with a sound margin must return exactly the
   exhaustive exact search's answer. *)

module Vec = Linalg.Vec
module Model = Thermal.Model
module Sp = Thermal.Sparse_model
module Resp = Thermal.Sparse_response
module Reduced = Thermal.Reduced
module Matex = Thermal.Matex
module Backend = Thermal.Backend

(* The engine path's period-boundary peak of a profile on the sparse
   record. *)
let end_peak resp profile =
  let b = Backend.of_response resp in
  b.max_core_temp (Backend.stable_state b profile)

let seed_gen = QCheck.(make Gen.(int_range 0 1_000_000))

(* Random small platform (<= 27 nodes: core-level carries 3 nodes per
   core, 3x3 cores max), with varied ambient and leakage so the
   beta*T_amb fold into the unit responses is stressed. *)
let random_model rng =
  let rows = 1 + Random.State.int rng 2 in
  let cols = 1 + Random.State.int rng 3 in
  let ambient = -10. +. Random.State.float rng 70. in
  let leak_beta = Random.State.float rng 0.1 in
  Thermal.Hotspot.core_level ~ambient ~leak_beta
    (Thermal.Floorplan.grid ~rows ~cols ~core_width:4e-3 ~core_height:4e-3)

let random_psi rng n =
  Array.init n (fun _ ->
      if Random.State.float rng 1. < 0.3 then 0.
      else Random.State.float rng 20.)

let random_profile rng n =
  let n_segs = 1 + Random.State.int rng 6 in
  List.init n_segs (fun _ ->
      {
        Thermal.Matex.duration = 0.01 +. Random.State.float rng 0.5;
        psi = random_psi rng n;
      })

(* ------------------------------------- superposition vs direct CG *)

let prop_steady_superposition_matches_cg =
  QCheck.Test.make ~name:"superposed steady temps = per-candidate CG solve"
    ~count:60 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let eng = Sp.of_model model in
      let resp = Resp.make eng in
      let psi = random_psi rng (Sp.n_cores eng) in
      Vec.dist_inf (Resp.steady_core_temps resp psi) (Sp.steady_core_temps eng psi)
      <= 1e-9
      && Float.abs (Resp.steady_peak resp psi -. Sp.steady_peak eng psi) <= 1e-9)

let prop_y_inf_matches_steady_state =
  QCheck.Test.make ~name:"superposed y_inf = CG steady state" ~count:60
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let eng = Sp.of_model model in
      let resp = Resp.make eng in
      let psi = random_psi rng (Sp.n_cores eng) in
      Vec.dist_inf (Resp.y_inf resp psi) (Sp.steady_state eng psi) <= 1e-9)

let prop_streaming_stable_matches_segment_path =
  QCheck.Test.make
    ~name:"streamed stable status/peaks = Sparse_model segment path"
    ~count:40 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let eng = Sp.of_model model in
      let resp = Resp.make eng in
      let profile = random_profile rng (Sp.n_cores eng) in
      let b = Backend.of_response resp in
      Vec.dist_inf (Backend.stable_state b profile) (Sp.stable_start eng profile)
      <= 1e-9
      && Float.abs (end_peak resp profile -. Sp.end_of_period_peak eng profile)
         <= 1e-9
      && Float.abs
           (b.peak_scan ~samples_per_segment:32 profile -. Sp.peak_scan eng profile)
         <= 1e-9
      && Float.abs
           (Thermal.Trace.peak_refined b ~samples_per_segment:32 ~tol:1e-4 profile
           -. Sp.peak_refined eng profile)
         <= 1e-9)

let prop_step_matches_engine =
  QCheck.Test.make ~name:"superposed step = Sparse_model.step" ~count:60
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_model rng in
      let eng = Sp.of_model model in
      let resp = Resp.make eng in
      let n = Sp.n_cores eng in
      let psi = random_psi rng n in
      let state =
        Sp.step eng ~dt:(0.01 +. Random.State.float rng 0.2)
          ~state:(Sp.ambient_state eng) ~psi:(random_psi rng n)
      in
      let dt = 0.01 +. Random.State.float rng 0.3 in
      Vec.dist_inf (Resp.step resp ~dt ~state ~psi) (Sp.step eng ~dt ~state ~psi)
      <= 1e-9)

(* --------------------------------------------- scratch isolation *)

let model27 =
  Thermal.Hotspot.core_level
    (Thermal.Floorplan.grid ~rows:3 ~cols:3 ~core_width:4e-3 ~core_height:4e-3)

(* The same batch of streamed evaluations must come back bit-identical
   at pool sizes 1 and 4: per-domain DLS scratch means workers never
   share partial sums, and index-ordered results mean the comparison is
   positional. *)
let test_pool_size_determinism () =
  let rng = Random.State.make [| 42 |] in
  let eng = Sp.of_model model27 in
  let resp = Resp.make eng in
  let profiles =
    Array.init 24 (fun _ -> random_profile rng (Sp.n_cores eng))
  in
  let run pool_size =
    let pool = Util.Pool.create ~size:pool_size () in
    let out =
      Util.Pool.init ~pool (Array.length profiles) (fun i ->
          end_peak resp profiles.(i))
    in
    Util.Pool.shutdown pool;
    out
  in
  let seq = run 1 and par = run 4 in
  Array.iteri
    (fun i a ->
      Alcotest.(check bool)
        (Printf.sprintf "profile %d bit-identical at pool sizes 1 and 4" i)
        true
        (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float par.(i))))
    seq

(* Two engines evaluated interleaved on one domain: each engine's
   DLS scratch is keyed per engine, so feeds never leak across. *)
let test_scratch_cross_engine_isolation () =
  let rng = Random.State.make [| 7 |] in
  let eng_a = Sp.of_model model27 in
  let model_b =
    Thermal.Hotspot.core_level ~ambient:45.
      (Thermal.Floorplan.grid ~rows:2 ~cols:2 ~core_width:3e-3 ~core_height:3e-3)
  in
  let eng_b = Sp.of_model model_b in
  let ra = Resp.make eng_a and rb = Resp.make eng_b in
  let pa = random_profile rng (Sp.n_cores eng_a) in
  let pb = random_profile rng (Sp.n_cores eng_b) in
  let expect_a = end_peak ra pa in
  let expect_b = end_peak rb pb in
  (* Interleave the streaming feeds by hand. *)
  Resp.stable_begin ra;
  Resp.stable_begin rb;
  List.iter
    (fun (s : Matex.segment) -> Resp.stable_feed ra ~duration:s.duration ~psi:s.psi)
    pa;
  List.iter
    (fun (s : Matex.segment) -> Resp.stable_feed rb ~duration:s.duration ~psi:s.psi)
    pb;
  let za = Resp.stable_solve ra ~t_p:(Matex.period pa) in
  let zb = Resp.stable_solve rb ~t_p:(Matex.period pb) in
  Alcotest.(check bool) "engine A undisturbed by interleaved B feeds" true
    (Float.equal (Sp.max_core_temp eng_a za) expect_a);
  Alcotest.(check bool) "engine B undisturbed by interleaved A feeds" true
    (Float.equal (Sp.max_core_temp eng_b zb) expect_b)

(* A Sparse context builds one response engine and shares it between its
   backend and its screening model: forcing both, and scoring through
   both, must add exactly one build to the process-wide count. *)
let test_make_is_memoized () =
  let builds () = (Resp.stats (Resp.make (Sp.of_model model27))).Resp.builds in
  let p = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:80. in
  let ev = Core.Eval.create ~cache_size:0 ~backend:Core.Eval.Sparse ~screen_margin:0.5 p in
  let period = 0.05 and low = Array.make 3 0.6 and high = Array.make 3 1.3 in
  let high_ratio = Array.make 3 0.5 in
  let before = builds () in
  ignore (Core.Eval.backend ev);
  Alcotest.(check bool) "screening on" true (Option.is_some (Core.Eval.screening ev));
  ignore (Core.Eval.two_mode_peak ev ~period ~low ~high ~high_ratio);
  ignore (Core.Eval.rom_two_mode_peak ev ~period ~low ~high ~high_ratio);
  match Core.Eval.sparse_response_stats ev with
  | None -> Alcotest.fail "response engine not built"
  | Some r ->
      (* [before] itself counted one build (the probe engine). *)
      Alcotest.(check int) "one response build for backend and ROM" 1
        (r.Resp.builds - before)

(* ------------------------------------------- ROM screening soundness *)

(* Screened selection must equal the exhaustive exact search when the
   margin covers twice the worst ROM error over the batch (DESIGN.md
   §12) — asserted on randomized sheet platforms up to 8x8 = 64 cells
   with randomized candidate batches.  Also asserts the unconditional
   guarantee: the selected value is an exact evaluation (bit-equal to
   the direct solve), never a ROM score. *)
let prop_screened_search_equals_exhaustive =
  QCheck.Test.make ~name:"screened argmin = exhaustive exact argmin"
    ~count:15 seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rows = 2 + Random.State.int rng 7 in
      let cols = 2 + Random.State.int rng (Stdlib.min 7 ((64 / rows) - 1)) in
      let spec = Thermal.Grid_model.sheet_spec ~rows ~cols () in
      let eng = Sp.of_spec spec in
      let rom = Reduced.of_engine (Resp.make eng) in
      let nc = Sp.n_cores eng in
      let n_cand = 8 + Random.State.int rng 9 in
      let candidates =
        Array.init n_cand (fun _ -> random_profile rng nc)
      in
      let exact_all =
        Array.map (fun p -> Sp.end_of_period_peak eng p) candidates
      in
      let rom_all =
        Array.map (fun p -> Reduced.rom_stable_peak rom p) candidates
      in
      (* Sound margin: twice the realized worst-case ROM error, plus
         slack — the premise of the equality theorem, computed from the
         batch itself so the property tests the theorem and not a
         hand-tuned constant. *)
      let eps =
        Array.fold_left Float.max 0.
          (Array.mapi (fun i r -> Float.abs (r -. exact_all.(i))) rom_all)
      in
      let margin = (2. *. eps) +. 1e-9 in
      let screened =
        Core.Screen.select ~par:false ~margin ~n:n_cand
          ~rom:(fun i -> rom_all.(i))
          ~exact:(fun i -> exact_all.(i))
          ()
      in
      (* The searches' shared reduction: strict improvement by more than
         1e-12 keeps the smallest index. *)
      let argmin a =
        let best = ref 0 in
        for i = 1 to Array.length a - 1 do
          if a.(i) < a.(!best) -. 1e-12 then best := i
        done;
        !best
      in
      let i_screen = argmin screened and i_exact = argmin exact_all in
      i_screen = i_exact
      && Int64.equal
           (Int64.bits_of_float screened.(i_screen))
           (Int64.bits_of_float exact_all.(i_screen)))

(* Pruned slots are +inf and survivors carry bit-exact values, at any
   margin (including one too small for the equality guarantee). *)
let prop_screened_values_are_exact_or_inf =
  QCheck.Test.make ~name:"screened slots are exact floats or +inf" ~count:30
    seed_gen (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 5 + Random.State.int rng 20 in
      let exact = Array.init n (fun _ -> 40. +. Random.State.float rng 40.) in
      let rom =
        Array.map (fun v -> v +. (Random.State.float rng 2. -. 1.)) exact
      in
      let margin = Random.State.float rng 1.5 in
      let screened =
        Core.Screen.select ~par:false ~margin ~n
          ~rom:(fun i -> rom.(i))
          ~exact:(fun i -> exact.(i))
          ()
      in
      let rom_min = Array.fold_left Float.min infinity rom in
      Array.for_all
        (fun ok -> ok)
        (Array.mapi
           (fun i v ->
             if rom.(i) <= rom_min +. margin then Float.equal v exact.(i)
             else Float.equal v infinity)
           screened))

(* [always] indices survive regardless of their ROM score. *)
let test_screen_always_survives () =
  let exact = [| 50.; 51.; 52.; 49. |] in
  let rom = [| 100.; 51.; 52.; 49. |] in
  let screened =
    Core.Screen.select ~par:false ~always:[ 0 ] ~margin:0.5 ~n:4
      ~rom:(fun i -> rom.(i))
      ~exact:(fun i -> exact.(i))
      ()
  in
  Alcotest.(check bool) "slot 0 evaluated exactly despite worst ROM score" true
    (Float.equal screened.(0) 50.);
  Alcotest.(check bool) "far slot pruned" true (Float.equal screened.(1) infinity)

(* A NaN ROM score neither poisons the batch minimum nor gets pruned:
   it survives to the exact tier while the rest of the batch screens
   normally. *)
let test_screen_nan_score_survives () =
  let exact = [| 50.; 51.; 52.; 49. |] in
  let rom = [| Float.nan; 51.; 52.; 49. |] in
  let screened =
    Core.Screen.select ~par:false ~margin:0.5 ~n:4
      ~rom:(fun i -> rom.(i))
      ~exact:(fun i -> exact.(i))
      ()
  in
  Alcotest.(check bool) "NaN slot priced exactly" true
    (Float.equal screened.(0) 50.);
  Alcotest.(check bool) "batch minimum ignores the NaN" true
    (Float.equal screened.(3) 49.);
  Alcotest.(check bool) "far slot still pruned" true
    (Float.equal screened.(1) infinity)

(* Screened policy runs agree with unscreened ones end to end: the AO
   m-sweep under a sparse screening context returns the same schedule
   and peak as with screening disabled. *)
let test_screened_ao_matches_unscreened () =
  let p = Workload.Configs.platform ~cores:3 ~levels:5 ~t_max:65. in
  let run margin =
    let ev =
      Core.Eval.create ~backend:Core.Eval.Sparse ~screen_margin:margin p
    in
    Core.Ao.solve ~par:false ev
  in
  let screened = run 0.5 and exhaustive = run 0. in
  Alcotest.(check int) "same m" exhaustive.Core.Ao.m screened.Core.Ao.m;
  Alcotest.(check bool) "same peak" true
    (Float.equal exhaustive.Core.Ao.peak screened.Core.Ao.peak);
  Alcotest.(check bool) "same throughput" true
    (Float.equal exhaustive.Core.Ao.throughput screened.Core.Ao.throughput)

(* The sparse fast path never diagonalizes: AO and Demand run end to
   end on a Sparse context (final safety/verification scans included)
   without forcing the platform model's eigenbasis, and agree with the
   same searches on a Dense context — same m, same config, peaks within
   1e-9.  "Same config" is up to the sheet's mirror symmetry: mirrored
   cores tie exactly in exact arithmetic, and the two engines' last-bit
   differences may break a TPT tie the other way, so AO's high times
   are compared as a sorted multiset, and the sparse config is also
   re-priced on the dense engine.  AO runs on the delta tier at the
   CLI's 1 K margin, which keeps the exact Krylov solves (and the test)
   short.  Each context gets its own platform so the dense run cannot
   force the sparse one's model. *)
let sheet6 () =
  Core.Platform.sheet ~rows:6 ~cols:6 ~levels:(Power.Vf.table_iv 5) ~t_max:65. ()

let same_config msg (a : Core.Tpt.config) (b : Core.Tpt.config) =
  let arr = Alcotest.(array (float 0.)) in
  let sorted x =
    let y = Array.copy x in
    Array.sort Float.compare y;
    y
  in
  Alcotest.(check (float 0.)) (msg ^ ": period") a.period b.period;
  Alcotest.check arr (msg ^ ": v_low") a.v_low b.v_low;
  Alcotest.check arr (msg ^ ": v_high") a.v_high b.v_high;
  Alcotest.(check (array (float 1e-12))) (msg ^ ": sorted high times")
    (sorted a.high_time) (sorted b.high_time);
  Alcotest.check arr (msg ^ ": offset") a.offset b.offset

let test_sparse_context_skips_eigensolve () =
  let sparse_p = sheet6 () and dense_p = sheet6 () in
  let model (p : Core.Platform.t) = p.Core.Platform.model in
  let sparse =
    Core.Eval.create ~backend:Core.Eval.Sparse ~screen_margin:0.5 sparse_p
  in
  let dense = Core.Eval.create dense_p in
  let ao_s = Core.Ao.solve ~delta_margin:1.0 sparse in
  let demands = ao_s.Core.Ao.ideal.Core.Ideal.voltages in
  let dm_s = Core.Demand.solve sparse ~demands in
  Alcotest.(check bool) "sparse model still undecomposed" false
    (Thermal.Model.decomposed (model sparse_p));
  Alcotest.(check bool) "no response stats on a sparse context" true
    (Option.is_none (Core.Eval.response_stats sparse));
  Alcotest.(check bool) "dense model undecomposed before engine use" false
    (Thermal.Model.decomposed (model dense_p));
  ignore (Core.Eval.engine dense : Thermal.Modal.t);
  Alcotest.(check bool) "dense engine forces the eigensolve" true
    (Thermal.Model.decomposed (model dense_p));
  let ao_d = Core.Ao.solve ~delta_margin:1.0 dense in
  let dm_d = Core.Demand.solve dense ~demands in
  Alcotest.(check int) "AO m" ao_d.Core.Ao.m ao_s.Core.Ao.m;
  same_config "AO" ao_d.Core.Ao.config ao_s.Core.Ao.config;
  Alcotest.(check (float 1e-9)) "AO peak" ao_d.Core.Ao.peak ao_s.Core.Ao.peak;
  Alcotest.(check (float 1e-12)) "AO throughput" ao_d.Core.Ao.throughput
    ao_s.Core.Ao.throughput;
  Alcotest.(check (float 1e-9)) "sparse AO config re-priced densely"
    ao_s.Core.Ao.peak
    (Core.Tpt.peak dense ao_s.Core.Ao.config);
  Alcotest.(check int) "Demand m" dm_d.Core.Demand.m dm_s.Core.Demand.m;
  Alcotest.(check bool) "Demand verdict" dm_d.Core.Demand.feasible
    dm_s.Core.Demand.feasible;
  Alcotest.(check (array (float 0.))) "Demand delivered speeds"
    dm_d.Core.Demand.delivered dm_s.Core.Demand.delivered;
  Alcotest.(check (float 1e-9)) "Demand peak" dm_d.Core.Demand.peak
    dm_s.Core.Demand.peak

(* Bad scan inputs are rejected identically by both engines: a
   [samples_per_segment] below 1 (the sparse scan once returned the
   boundary-only peak where the dense one raised) and a refinement
   tolerance that is not positive and finite (the golden-section loop
   never terminated on 0, a negative value or NaN). *)
let sheet2 () =
  Core.Platform.sheet ~rows:2 ~cols:2 ~levels:(Power.Vf.table_iv 2) ~t_max:65. ()

let shifted_schedule n =
  let s =
    Sched.Schedule.two_mode ~period:0.05 ~low:(Array.make n 0.6)
      ~high:(Array.make n 1.3) ~high_ratio:(Array.make n 0.5)
  in
  Sched.Schedule.shift s 1 0.01

let raises msg f =
  Alcotest.(check bool) msg true
    (match f () with exception Invalid_argument _ -> true | _ -> false)

let kinds = [ ("dense", Core.Eval.Dense); ("sparse", Core.Eval.Sparse) ]

let test_refined_rejects_bad_tol () =
  List.iter
    (fun (name, backend) ->
      let p = sheet2 () in
      let ev = Core.Eval.create ~cache_size:0 ~backend p in
      let s = shifted_schedule (Core.Platform.n_cores p) in
      let refined tol () =
        Sched.Peak.of_any_refined (Core.Eval.backend ev) p.Core.Platform.power ~tol s
      in
      List.iter
        (fun tol -> raises (Printf.sprintf "%s tol %g" name tol) (refined tol))
        [ 0.; -1.; Float.nan; Float.infinity ];
      Alcotest.(check bool) (name ^ " tol 1e-4 is finite") true
        (Float.is_finite (refined 1e-4 ())))
    kinds

let test_scan_rejects_bad_samples () =
  List.iter
    (fun (name, backend) ->
      let p = sheet2 () in
      let ev = Core.Eval.create ~cache_size:0 ~backend p in
      let s = shifted_schedule (Core.Platform.n_cores p) in
      List.iter
        (fun samples_per_segment ->
          let tag what = Printf.sprintf "%s %s samples %d" name what samples_per_segment in
          raises (tag "Eval.any_peak") (fun () ->
              Core.Eval.any_peak ev ~samples_per_segment s);
          raises (tag "of_any_refined") (fun () ->
              Sched.Peak.of_any_refined (Core.Eval.backend ev) p.Core.Platform.power
                ~samples_per_segment s))
        [ 0; -3 ])
    kinds;
  (* The direct Krylov engine is the sparse engines' oracle: it rejects
     the same inputs. *)
  let p = sheet2 () in
  let sp = Sp.of_model p.Core.Platform.model in
  let profile =
    Sched.Peak.profile ~n_cores:(Core.Platform.n_cores p) p.Core.Platform.power
      (shifted_schedule (Core.Platform.n_cores p))
  in
  raises "Sparse_model.peak_scan samples 0" (fun () ->
      Sp.peak_scan sp ~samples_per_segment:0 profile);
  raises "Sparse_model.peak_refined samples 0" (fun () ->
      Sp.peak_refined sp ~samples_per_segment:0 profile);
  raises "Sparse_model.peak_refined tol nan" (fun () ->
      Sp.peak_refined sp ~tol:Float.nan profile)

(* NaN must never read as a temperature: both engines reject NaN and
   infinite durations at every streaming entry, and a NaN state reads as
   a NaN peak, not -inf (which a [peak <= t_max] test would accept). *)
let test_nan_rejected () =
  let p = sheet2 () in
  let n = Core.Platform.n_cores p in
  let psi = Array.make n 5. in
  let model = p.Core.Platform.model in
  List.iter
    (fun (name, (b : Backend.t)) ->
      let state = b.ambient_state () in
      List.iter
        (fun dt ->
          let tag what = Printf.sprintf "%s %s %g" name what dt in
          raises (tag "step dt") (fun () -> b.step ~dt ~state ~psi);
          raises (tag "step_into dt") (fun () ->
              b.step_into ~dt ~state ~psi ~dst:(b.ambient_state ()));
          raises (tag "stable_state duration") (fun () ->
              Backend.stable_state b
                [ { Matex.duration = 0.01; psi }; { Matex.duration = dt; psi } ]);
          raises (tag "base_begin t_p") (fun () -> b.base_begin ~t_p:dt))
        [ Float.nan; Float.infinity; -1. ];
      let bad = Array.make (Array.length state) Float.nan in
      Alcotest.(check bool) (name ^ " NaN state reads as a NaN peak") true
        (Float.is_nan (b.max_core_temp bad));
      Alcotest.(check bool) (name ^ " NaN power reads as a NaN steady peak") true
        (Float.is_nan (b.steady_peak (Array.make n Float.nan))))
    [
      ("dense", Backend.of_model model);
      ("sparse", Backend.of_response (Resp.make (Sp.of_model model)));
    ]

(* The one engine-generic refinement ([Sched.Peak.of_any_refined]) against
   each engine's oracle: the theta-space [Matex.peak_refined] for the
   dense record, the direct Krylov [Sparse_model.peak_refined] for the
   sparse one. *)
let test_refined_matches_oracles () =
  let p = sheet2 () in
  let pm = p.Core.Platform.power in
  let model = p.Core.Platform.model in
  let rng = Random.State.make [| 17 |] in
  let schedules =
    shifted_schedule (Core.Platform.n_cores p)
    :: List.init 6 (fun _ ->
           Workload.Random_sched.arbitrary rng ~n_cores:(Core.Platform.n_cores p)
             ~period:0.3 ~max_intervals:4 ~levels:(Power.Vf.table_iv 5))
  in
  let dense = Backend.of_model model in
  let sparse = Backend.of_response (Resp.make (Sp.of_model model)) in
  List.iteri
    (fun i s ->
      let profile = Sched.Peak.profile ~n_cores:dense.n_cores pm s in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "schedule %d: dense refine = Matex.peak_refined" i)
        (Matex.peak_refined model ~samples_per_segment:16 profile)
        (Sched.Peak.of_any_refined dense pm ~samples_per_segment:16 s);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "schedule %d: sparse refine = Sparse_model.peak_refined" i)
        (Sp.peak_refined (Sp.of_model model) ~samples_per_segment:16 profile)
        (Sched.Peak.of_any_refined sparse pm ~samples_per_segment:16 s))
    schedules

(* Sprint's burst is stepped on the context's own engine: a sparse
   context answers without the dense eigensolve, and agrees with a
   dense context's burst. *)
let test_sprint_sparse_skips_eigensolve () =
  let sheet4 () =
    Core.Platform.sheet ~rows:4 ~cols:4 ~levels:(Power.Vf.table_iv 3) ~t_max:65. ()
  in
  let sparse_p = sheet4 () and dense_p = sheet4 () in
  let sparse = Core.Sprint.plan (Core.Eval.create ~backend:Core.Eval.Sparse sparse_p) in
  Alcotest.(check bool) "sparse model still undecomposed" false
    (Thermal.Model.decomposed sparse_p.Core.Platform.model);
  let dense = Core.Sprint.plan (Core.Eval.create dense_p) in
  Alcotest.(check bool) "finite burst" true
    (Float.is_finite dense.Core.Sprint.burst_duration);
  Alcotest.(check (float 1e-9)) "burst duration, sparse = dense"
    dense.Core.Sprint.burst_duration sparse.Core.Sprint.burst_duration

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "sparse_response"
    [
      qsuite "superposition"
        [
          prop_steady_superposition_matches_cg;
          prop_y_inf_matches_steady_state;
          prop_streaming_stable_matches_segment_path;
          prop_step_matches_engine;
        ];
      ( "scratch",
        [
          Alcotest.test_case "pool-size determinism" `Quick
            test_pool_size_determinism;
          Alcotest.test_case "cross-engine isolation" `Quick
            test_scratch_cross_engine_isolation;
          Alcotest.test_case "make memoization" `Quick test_make_is_memoized;
        ] );
      qsuite "screening"
        [
          prop_screened_search_equals_exhaustive;
          prop_screened_values_are_exact_or_inf;
        ];
      ( "screening-units",
        [
          Alcotest.test_case "always-indices survive" `Quick
            test_screen_always_survives;
          Alcotest.test_case "NaN ROM score survives to exact tier" `Quick
            test_screen_nan_score_survives;
          Alcotest.test_case "screened AO = unscreened AO" `Quick
            test_screened_ao_matches_unscreened;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "sparse AO/Demand skip the eigensolve" `Quick
            test_sparse_context_skips_eigensolve;
          Alcotest.test_case "sparse Sprint skips the eigensolve" `Quick
            test_sprint_sparse_skips_eigensolve;
        ] );
      ( "input-checks",
        [
          Alcotest.test_case "bad refine tol raises, both engines" `Quick
            test_refined_rejects_bad_tol;
          Alcotest.test_case "samples < 1 raises, both engines" `Quick
            test_scan_rejects_bad_samples;
          Alcotest.test_case "NaN durations and states, both engines" `Quick
            test_nan_rejected;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "refine = oracle peak_refined, both engines" `Quick
            test_refined_matches_oracles;
        ] );
    ]

module Vec = Linalg.Vec

type sample = { time : float; core_temps : Vec.t }

(* Reject the inputs that would otherwise run silently wrong: a bad
   profile for this engine, or fewer than one sample per segment. *)
let check ~who (b : Backend.t) ~samples_per_segment profile =
  Matex.validate_cores ~n_cores:b.n_cores profile;
  if samples_per_segment < 1 then invalid_arg (who ^ ": samples_per_segment < 1")

let start_state (b : Backend.t) = function
  | Some s -> s
  | None -> b.ambient_state ()

(* Visit the [samples] equal sub-step states of [seg] from [state] with
   their offsets into the segment; return the end-of-segment state,
   reached in ONE exact full-duration step so segment boundaries
   accumulate no sub-step rounding. *)
let walk (b : Backend.t) ~samples (seg : Matex.segment) state visit =
  let dt = seg.duration /. float_of_int samples in
  let cur = ref state in
  for k = 1 to samples do
    cur := b.step ~dt ~state:!cur ~psi:seg.psi;
    visit (float_of_int k *. dt) !cur
  done;
  b.step ~dt:seg.duration ~state ~psi:seg.psi

(* [periods] repetitions of [profile] from [start], sampled densely.
   Sample times are the running sum of the sub-step lengths. *)
let sample_periods (b : Backend.t) ~start ~periods ~samples_per_segment profile =
  let samples = ref [ { time = 0.; core_temps = b.core_temps start } ] in
  let state = ref start and now = ref 0. in
  for _ = 1 to periods do
    List.iter
      (fun (seg : Matex.segment) ->
        let dt = seg.duration /. float_of_int samples_per_segment in
        state :=
          walk b ~samples:samples_per_segment seg !state (fun _ s ->
              now := !now +. dt;
              samples := { time = !now; core_temps = b.core_temps s } :: !samples))
      profile
  done;
  Array.of_list (List.rev !samples)

let from_ambient b ~periods ~samples_per_segment profile =
  if periods <= 0 then invalid_arg "Trace.from_ambient: periods <= 0";
  check ~who:"Trace.from_ambient" b ~samples_per_segment profile;
  sample_periods b ~start:(b.Backend.ambient_state ()) ~periods ~samples_per_segment
    profile

(* The stable status is copied out of the engine's per-domain scratch
   before any step runs. *)
let stable b profile = Array.copy (Backend.stable_state b profile)

let stable_core_trace b ~samples_per_segment profile =
  check ~who:"Trace.stable_core_trace" b ~samples_per_segment profile;
  sample_periods b ~start:(stable b profile) ~periods:1 ~samples_per_segment profile

let peak_refined (b : Backend.t) ~samples_per_segment ~tol profile =
  check ~who:"Trace.peak_refined" b ~samples_per_segment profile;
  if not (tol > 0. && Float.is_finite tol) then
    invalid_arg "Trace.peak_refined: tolerance must be positive and finite";
  let start = stable b profile in
  let best = ref (b.max_core_temp start) in
  let (_ : Vec.t) =
    List.fold_left
      (fun z0 (seg : Matex.segment) ->
        (* Dense scan of this segment, remembering the hottest sample. *)
        let dt = seg.duration /. float_of_int samples_per_segment in
        let best_k = ref 0 and best_here = ref (b.max_core_temp z0) in
        let next =
          walk b ~samples:samples_per_segment seg z0 (fun t z ->
              let temp = b.max_core_temp z in
              if temp > !best_here then begin
                best_here := temp;
                best_k := int_of_float (Float.round (t /. dt))
              end)
        in
        best := Float.max !best !best_here;
        (* Golden-section refinement inside the bracketing sub-interval;
           each probe is one exact step from the segment start. *)
        let lo = Float.max 0. ((float_of_int !best_k -. 1.) *. dt) in
        let hi = Float.min seg.duration ((float_of_int !best_k +. 1.) *. dt) in
        if hi > lo then begin
          let temp_at t = b.max_core_temp (b.step ~dt:t ~state:z0 ~psi:seg.psi) in
          best := Float.max !best (Matex.golden_max temp_at lo hi (tol *. seg.duration))
        end;
        next)
      start profile
  in
  !best

let time_to_threshold (b : Backend.t) ?state0 ?(max_periods = 1000)
    ?(samples_per_segment = 32) ~threshold profile =
  check ~who:"Trace.time_to_threshold" b ~samples_per_segment profile;
  if Float.is_nan threshold then invalid_arg "Trace.time_to_threshold: NaN threshold";
  let hot s = b.max_core_temp s >= threshold in
  let z0 = start_state b state0 in
  if hot z0 then Some 0.
  else begin
    (* Bisect the crossing inside [t_lo, t_hi] from the segment-start
       state [base]. *)
    let refine (seg : Matex.segment) base t_lo t_hi =
      let rec go t_lo t_hi iters =
        if iters = 0 || t_hi -. t_lo < 1e-9 *. Float.max 1e-3 t_hi then t_hi
        else
          let mid = (t_lo +. t_hi) /. 2. in
          if hot (b.step ~dt:mid ~state:base ~psi:seg.psi) then go t_lo mid (iters - 1)
          else go mid t_hi (iters - 1)
      in
      go t_lo t_hi 50
    in
    let exception Crossed of float in
    try
      let z = ref z0 and elapsed = ref 0. in
      for _ = 1 to max_periods do
        List.iter
          (fun (seg : Matex.segment) ->
            let base = !z and prev = ref 0. in
            (* The first sub-step sample at or above the threshold
               brackets the crossing. *)
            z :=
              walk b ~samples:samples_per_segment seg base (fun t s ->
                  if hot s then raise (Crossed (!elapsed +. refine seg base !prev t));
                  prev := t);
            elapsed := !elapsed +. seg.duration)
          profile
      done;
      None
    with Crossed t -> Some t
  end

let mission_peak (b : Backend.t) ?state0 ?(samples_per_segment = 32) profile =
  check ~who:"Trace.mission_peak" b ~samples_per_segment profile;
  let z0 = start_state b state0 in
  let best = ref (b.max_core_temp z0) in
  let final =
    List.fold_left
      (fun z seg ->
        walk b ~samples:samples_per_segment seg z (fun _ s ->
            best := Float.max !best (b.max_core_temp s)))
      z0 profile
  in
  (!best, final)

let periods_to_stable model ?(tol = 1e-6) profile =
  if not (tol > 0. && Float.is_finite tol) then
    invalid_arg "Trace.periods_to_stable: tolerance must be positive and finite";
  Matex.validate model profile;
  let theta = ref (Vec.zeros (Model.n_nodes model)) in
  let advance_period theta0 =
    List.fold_left
      (fun acc (s : Matex.segment) -> Model.step model ~dt:s.duration ~theta:acc ~psi:s.psi)
      theta0 profile
  in
  let rec go count =
    if count >= 10_000 then count
    else
      let next = advance_period !theta in
      let moved = Vec.dist_inf next !theta in
      theta := next;
      if moved < tol then count + 1 else go (count + 1)
  in
  go 0

let peak samples =
  Array.fold_left (fun acc s -> Float.max acc (Vec.max s.core_temps)) neg_infinity samples

let to_csv_channel oc model samples =
  let n = Model.n_cores model in
  output_string oc "time";
  for i = 0 to n - 1 do
    Printf.fprintf oc ",core%d" i
  done;
  output_char oc '\n';
  Array.iter
    (fun s ->
      Printf.fprintf oc "%.6f" s.time;
      Array.iter (fun t -> Printf.fprintf oc ",%.4f" t) s.core_temps;
      output_char oc '\n')
    samples

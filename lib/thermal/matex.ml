module Mat = Linalg.Mat
module Vec = Linalg.Vec

type segment = { duration : float; psi : Vec.t }
type profile = segment list

let period profile = List.fold_left (fun acc s -> acc +. s.duration) 0. profile

let validate_cores ~n_cores profile =
  if List.is_empty profile then invalid_arg "Matex: empty profile";
  List.iteri
    (fun q s ->
      if not (s.duration > 0. && Float.is_finite s.duration) then
        invalid_arg
          (Printf.sprintf "Matex: segment %d has a non-positive or non-finite duration" q);
      if Vec.dim s.psi <> n_cores then
        invalid_arg
          (Printf.sprintf "Matex: segment %d power vector has arity %d, expected %d" q
             (Vec.dim s.psi) n_cores))
    profile

let validate model profile = validate_cores ~n_cores:(Model.n_cores model) profile

let simulate model ~theta0 profile =
  validate model profile;
  let states = Array.make (List.length profile + 1) theta0 in
  List.iteri
    (fun q s ->
      states.(q + 1) <- Model.step model ~dt:s.duration ~theta:states.(q) ~psi:s.psi)
    profile;
  states

let golden = (sqrt 5. -. 1.) /. 2.

(* Maximize f over [a, b] by golden-section search (f unimodal on the
   bracket around a sampled maximum; if it is not, the result is still a
   lower bound no worse than the sampled one).  The loop stops once the
   bracket is narrower than [tol], which a non-positive or NaN [tol]
   never allows. *)
let golden_max f a b tol =
  if not (tol > 0. && Float.is_finite tol) then
    invalid_arg "Matex.golden_max: tolerance must be positive and finite";
  let rec go a b x1 x2 f1 f2 =
    if b -. a < tol then Float.max f1 f2
    else if f1 >= f2 then
      (* The maximum lies in [a, x2]. *)
      let b = x2 in
      let x2 = x1 and f2 = f1 in
      let x1 = b -. (golden *. (b -. a)) in
      go a b x1 x2 (f x1) f2
    else
      (* The maximum lies in [x1, b]. *)
      let a = x1 in
      let x1 = x2 and f1 = f2 in
      let x2 = a +. (golden *. (b -. a)) in
      go a b x1 x2 f1 (f x2)
  in
  let x1 = b -. (golden *. (b -. a)) in
  let x2 = a +. (golden *. (b -. a)) in
  go a b x1 x2 (f x1) (f x2)

(* The oracle evaluators: plain theta-space algebra on Model.step /
   Model.propagator, which every engine is tested against. *)

let stable_start model profile =
  validate model profile;
  let n = Model.n_nodes model in
  (* One period from the zero state gives theta(t_p) = K*0 + d = d, and
     K is the ordered product of segment propagators. *)
  let d = ref (Vec.zeros n) in
  let k = ref (Mat.identity n) in
  List.iter
    (fun s ->
      let p = Model.propagator model s.duration in
      d := Model.step model ~dt:s.duration ~theta:!d ~psi:s.psi;
      k := Mat.matmul p !k)
    profile;
  (* Stable status: theta* = K theta* + d. *)
  let i_minus_k = Mat.sub (Mat.identity n) !k in
  Linalg.Lu.solve i_minus_k !d

let stable_boundaries model profile =
  let theta0 = stable_start model profile in
  simulate model ~theta0 profile

let scan_segment model ~samples theta s visit =
  if samples < 1 then invalid_arg "Matex: non-positive sample count";
  let dt = s.duration /. float_of_int samples in
  let theta = ref theta in
  for k = 1 to samples do
    theta := Model.step model ~dt ~theta:!theta ~psi:s.psi;
    visit (float_of_int k *. dt) !theta
  done

let peak_scan model ?(samples_per_segment = 32) profile =
  let boundaries = stable_boundaries model profile in
  let best = ref (Model.max_core_temp model boundaries.(0)) in
  List.iteri
    (fun q s ->
      scan_segment model ~samples:samples_per_segment boundaries.(q) s (fun _ theta ->
          best := Float.max !best (Model.max_core_temp model theta)))
    profile;
  !best

let peak_refined model ?(samples_per_segment = 32) ?(tol = 1e-4) profile =
  if not (tol > 0. && Float.is_finite tol) then
    invalid_arg "Matex.peak_refined: tolerance must be positive and finite";
  let boundaries = stable_boundaries model profile in
  let best = ref (Model.max_core_temp model boundaries.(0)) in
  List.iteri
    (fun q s ->
      (* Dense scan of this segment, remembering the hottest sample. *)
      let dt = s.duration /. float_of_int samples_per_segment in
      let best_k = ref 0 and best_here = ref (Model.max_core_temp model boundaries.(q)) in
      scan_segment model ~samples:samples_per_segment boundaries.(q) s (fun t theta ->
          let temp = Model.max_core_temp model theta in
          if temp > !best_here then begin
            best_here := temp;
            best_k := int_of_float (Float.round (t /. dt))
          end);
      best := Float.max !best !best_here;
      (* Refine inside the bracketing interval around the best sample. *)
      let lo = Float.max 0. ((float_of_int !best_k -. 1.) *. dt) in
      let hi = Float.min s.duration ((float_of_int !best_k +. 1.) *. dt) in
      if hi > lo then begin
        let temp_at t =
          Model.max_core_temp model
            (Model.step model ~dt:t ~theta:boundaries.(q) ~psi:s.psi)
        in
        best := Float.max !best (golden_max temp_at lo hi (tol *. s.duration))
      end)
    profile;
  !best

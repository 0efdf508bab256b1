type level_set = { voltages : float array }

let make voltage_list =
  if voltage_list = [] then invalid_arg "Vf.make: empty level set";
  List.iter
    (fun v ->
      if not (Float.is_finite v) then invalid_arg "Vf.make: non-finite voltage level";
      if v <= 0. then invalid_arg "Vf.make: non-positive voltage level")
    voltage_list;
  let sorted = List.sort_uniq Float.compare voltage_list in
  { voltages = Array.of_list sorted }

let range ~lo ~hi ~step =
  if not (step > 0.) then invalid_arg "Vf.range: non-positive step";
  if not (Float.is_finite lo && Float.is_finite hi) then
    invalid_arg "Vf.range: non-finite bound";
  if hi < lo then invalid_arg "Vf.range: hi < lo";
  let rec collect v acc =
    if v > hi +. 1e-9 then List.rev acc else collect (v +. step) (v :: acc)
  in
  make (collect lo [])

let table_iv = function
  | 2 -> make [ 0.6; 1.3 ]
  | 3 -> make [ 0.6; 0.8; 1.3 ]
  | 4 -> make [ 0.6; 0.8; 1.0; 1.3 ]
  | 5 -> make [ 0.6; 0.8; 1.0; 1.2; 1.3 ]
  | n -> invalid_arg (Printf.sprintf "Vf.table_iv: %d levels not in Table IV (2..5)" n)

let levels ls = Array.copy ls.voltages
let n_levels ls = Array.length ls.voltages
let lowest ls = ls.voltages.(0)
let highest ls = ls.voltages.(Array.length ls.voltages - 1)

let round_down ls v =
  let best = ref ls.voltages.(0) in
  Array.iter (fun level -> if level <= v +. 1e-12 then best := level) ls.voltages;
  !best

let neighbours ls v =
  let n = Array.length ls.voltages in
  if v <= ls.voltages.(0) then (ls.voltages.(0), ls.voltages.(0))
  else if v >= ls.voltages.(n - 1) then (ls.voltages.(n - 1), ls.voltages.(n - 1))
  else begin
    (* v is strictly inside the range: find the bracketing pair. *)
    let hi = ref 1 in
    while ls.voltages.(!hi) < v do
      incr hi
    done;
    if Float.abs (ls.voltages.(!hi) -. v) < 1e-12 then (ls.voltages.(!hi), ls.voltages.(!hi))
    else (ls.voltages.(!hi - 1), ls.voltages.(!hi))
  end

let mem ?(tol = 1e-9) ls v = Array.exists (fun level -> Float.abs (level -. v) <= tol) ls.voltages
let frequency_of_voltage v = v

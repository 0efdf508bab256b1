(* Bounded FIFO memo of psi vectors keyed by the exact voltage bit
   digest: policy searches price the same voltage vectors thousands of
   times, and a hit both skips the arithmetic and returns a shared array
   (less GC churn on the evaluation hot path).  Mutex-guarded so pool
   workers may share one model; racing misses compute identical vectors
   and one insert wins. *)
type psi_cache = {
  table : (string, float array) Hashtbl.t;
  order : string Queue.t;
  lock : Mutex.t;
}

type t = {
  alpha : float -> float;
  gamma : float -> float;
  beta : float;
  psi_memo : psi_cache;
}

let psi_cache_capacity = 1024

let fresh_cache () =
  { table = Hashtbl.create 64; order = Queue.create (); lock = Mutex.create () }

let constant ~alpha ~gamma ~beta =
  if not (Float.is_finite alpha && Float.is_finite gamma && Float.is_finite beta)
  then invalid_arg "Power_model.constant: non-finite coefficient";
  if alpha < 0. || gamma < 0. || beta < 0. then
    invalid_arg "Power_model.constant: negative coefficient";
  {
    alpha = (fun _ -> alpha);
    gamma = (fun _ -> gamma);
    beta;
    psi_memo = fresh_cache ();
  }

let default = constant ~alpha:0.5 ~gamma:9.0 ~beta:0.05

let psi pm v =
  if not (Float.is_finite v) then invalid_arg "Power_model.psi: non-finite voltage";
  if v < 0. then invalid_arg "Power_model.psi: negative voltage";
  if Float.equal v 0. then 0. else pm.alpha v +. (pm.gamma v *. (v *. v *. v))

let psi_vector pm voltages = Array.map (psi pm) voltages

(* [v +. 0.] canonicalizes -0. to +0. so equal voltages share a key. *)
let key_of_voltages voltages =
  let b = Buffer.create (8 * Array.length voltages) in
  Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float (v +. 0.))) voltages;
  Buffer.contents b

let psi_vector_memo pm voltages =
  let c = pm.psi_memo in
  let key = key_of_voltages voltages in
  let cached =
    Mutex.protect c.lock (fun () -> Hashtbl.find_opt c.table key)
  in
  match cached with
  | Some v -> v
  | None ->
      let v = psi_vector pm voltages in
      Mutex.protect c.lock (fun () ->
          if not (Hashtbl.mem c.table key) then begin
            if Hashtbl.length c.table >= psi_cache_capacity then begin
              match Queue.take_opt c.order with
              | Some victim -> Hashtbl.remove c.table victim
              | None -> ()
            end;
            Hashtbl.add c.table key v;
            Queue.push key c.order
          end);
      v

let total pm ~v ~temp = psi pm v +. (pm.beta *. temp)

let voltage_for_psi pm target =
  (* Uses the coefficients at the (unknown) target voltage; exact for the
     constant default, a one-step fixed point otherwise. *)
  let alpha = pm.alpha 1.0 and gamma = pm.gamma 1.0 in
  if Float.equal gamma 0. then
    invalid_arg "Power_model.voltage_for_psi: gamma = 0";
  Float.max 0. (Float.cbrt ((target -. alpha) /. gamma))

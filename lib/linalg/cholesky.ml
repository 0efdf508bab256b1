exception Not_positive_definite of int

let factorize a =
  if not (Mat.is_square a) then invalid_arg "Cholesky.factorize: matrix not square";
  let n = a.Mat.rows in
  let rel = Float.max 1e-12 (float_of_int n *. epsilon_float) in
  let l = Mat.zeros n n in
  for j = 0 to n - 1 do
    let ajj = Mat.get a j j in
    let d = ref ajj in
    for k = 0 to j - 1 do
      let ljk = Mat.get l j k in
      d := !d -. (ljk *. ljk)
    done;
    (* Written as [not (d > _)] so a NaN pivot is rejected too. *)
    if not (!d > rel *. Float.abs ajj) then raise (Not_positive_definite j);
    let ljj = sqrt !d in
    Mat.set l j j ljj;
    for i = j + 1 to n - 1 do
      let acc = ref (Mat.get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (Mat.get l i k *. Mat.get l j k)
      done;
      Mat.set l i j (!acc /. ljj)
    done
  done;
  l

let check_finite what a k =
  for i = 0 to k - 1 do
    if not (Float.is_finite a.(i)) then
      invalid_arg
        (Printf.sprintf "Tridiag_eig.decompose: %s.(%d) is %g, not finite" what
           i a.(i))
  done

let decompose ?(max_iter = 30) ~alpha ~beta m =
  if m < 0 then invalid_arg "Tridiag_eig.decompose: negative size";
  if Array.length alpha < m || Array.length beta < m - 1 then
    invalid_arg "Tridiag_eig.decompose: coefficient arrays shorter than size";
  check_finite "alpha" alpha m;
  check_finite "beta" beta (m - 1);
  (* [d] holds the diagonal and [e.(i)] the coupling of rows i and i+1,
     with [e.(m-1) = 0].  Eigenvector i is row i of the flat [z]
     (transposed storage keeps each plane rotation on two contiguous
     rows); the QL sweeps rotate it from the identity. *)
  let d = Array.sub alpha 0 m in
  let e = Array.make m 0. in
  Array.blit beta 0 e 0 (Stdlib.max 0 (m - 1));
  let z = Array.make (m * m) 0. in
  for i = 0 to m - 1 do
    z.((i * m) + i) <- 1.
  done;
  let eps = Float.epsilon in
  let shift = ref 0. and tst1 = ref 0. in
  for l = 0 to m - 1 do
    tst1 := Float.max !tst1 (Float.abs d.(l) +. Float.abs e.(l));
    (* The first negligible coupling at or after [l] closes the block
       whose top eigenvalue is being isolated. *)
    let rec block_end j =
      if j >= m - 1 || Float.abs e.(j) <= eps *. !tst1 then j
      else block_end (j + 1)
    in
    let iter = ref 0 in
    let bottom = ref (block_end l) in
    while !bottom > l do
      if !iter >= max_iter then
        failwith
          (Printf.sprintf
             "Tridiag_eig.decompose: eigenvalue %d not isolated in %d \
              iterations (m = %d)"
             l max_iter m);
      incr iter;
      (* Wilkinson shift from the leading 2x2 of the block. *)
      let g = d.(l) in
      let p = (d.(l + 1) -. g) /. (2. *. e.(l)) in
      let r = Float.hypot p 1. in
      let r = if p < 0. then -.r else r in
      d.(l) <- e.(l) /. (p +. r);
      d.(l + 1) <- e.(l) *. (p +. r);
      let dl1 = d.(l + 1) in
      let h = g -. d.(l) in
      for i = l + 2 to m - 1 do
        d.(i) <- d.(i) -. h
      done;
      shift := !shift +. h;
      (* Implicit QL sweep from the bottom of the block up to [l]. *)
      let mb = !bottom in
      let p = ref d.(mb) in
      let c = ref 1. and c2 = ref 1. and c3 = ref 1. in
      let s = ref 0. and s2 = ref 0. in
      let el1 = e.(l + 1) in
      for i = mb - 1 downto l do
        c3 := !c2;
        c2 := !c;
        s2 := !s;
        let g = !c *. e.(i) in
        let h = !c *. !p in
        let r = Float.hypot !p e.(i) in
        e.(i + 1) <- !s *. r;
        s := e.(i) /. r;
        c := !p /. r;
        p := (!c *. d.(i)) -. (!s *. g);
        d.(i + 1) <- h +. (!s *. ((!c *. g) +. (!s *. d.(i))));
        let oi = i * m and oi1 = (i + 1) * m in
        let c = !c and s = !s in
        for k = 0 to m - 1 do
          let zi = z.(oi + k) and zi1 = z.(oi1 + k) in
          z.(oi1 + k) <- (s *. zi) +. (c *. zi1);
          z.(oi + k) <- (c *. zi) -. (s *. zi1)
        done
      done;
      let p = -. !s *. !s2 *. !c3 *. el1 *. e.(l) /. dl1 in
      e.(l) <- !s *. p;
      d.(l) <- !c *. p;
      bottom := block_end l
    done;
    d.(l) <- d.(l) +. !shift;
    e.(l) <- 0.
  done;
  let order = Array.init m (fun i -> i) in
  Array.stable_sort (fun i j -> Float.compare d.(i) d.(j)) order;
  {
    Sym_eig.eigenvalues = Array.map (fun i -> d.(i)) order;
    eigenvectors = Mat.init m m (fun k j -> z.((order.(j) * m) + k));
  }

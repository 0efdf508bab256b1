(* Unit and property tests for the dense linear-algebra substrate. *)

module Vec = Linalg.Vec
module Mat = Linalg.Mat
module Lu = Linalg.Lu
module Sym_eig = Linalg.Sym_eig
module Tridiag_eig = Linalg.Tridiag_eig
module Cholesky = Linalg.Cholesky
module Expm = Linalg.Expm

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

let vec_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check bool) msg true (Vec.approx_equal ~tol expected actual)

let mat_close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check bool) msg true (Mat.approx_equal ~tol expected actual)

(* ------------------------------------------------------------------ Vec *)

let test_vec_arithmetic () =
  let x = [| 1.; 2.; 3. |] and y = [| 4.; 5.; 6. |] in
  vec_close "add" [| 5.; 7.; 9. |] (Vec.add x y);
  vec_close "sub" [| -3.; -3.; -3. |] (Vec.sub x y);
  vec_close "scale" [| 2.; 4.; 6. |] (Vec.scale 2. x);
  vec_close "mul" [| 4.; 10.; 18. |] (Vec.mul x y);
  vec_close "axpy" [| 6.; 9.; 12. |] (Vec.axpy 2. x y);
  check_float "dot" 32. (Vec.dot x y);
  check_float "sum" 6. (Vec.sum x);
  check_float "mean" 2. (Vec.mean x)

let test_vec_reductions () =
  let v = [| 3.; -7.; 5.; 1. |] in
  check_float "max" 5. (Vec.max v);
  check_float "min" (-7.) (Vec.min v);
  Alcotest.(check int) "argmax" 2 (Vec.argmax v);
  check_float "norm_inf" 7. (Vec.norm_inf v);
  check_float "norm2" (sqrt 84.) (Vec.norm2 v)

let test_vec_leq () =
  Alcotest.(check bool) "leq true" true (Vec.leq [| 1.; 2. |] [| 1.; 3. |]);
  Alcotest.(check bool) "leq false" false (Vec.leq [| 1.; 4. |] [| 1.; 3. |])

let test_vec_dim_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.add [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_empty_mean () =
  Alcotest.check_raises "mean empty" (Invalid_argument "Vec.mean: empty vector")
    (fun () -> ignore (Vec.mean [||]))

(* ------------------------------------------------------------------ Mat *)

let test_mat_identity_matmul () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  mat_close "I*A = A" a (Mat.matmul (Mat.identity 2) a);
  mat_close "A*I = A" a (Mat.matmul a (Mat.identity 2))

let test_mat_matmul_known () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  mat_close "2x2 product" (Mat.of_rows [| [| 19.; 22. |]; [| 43.; 50. |] |]) (Mat.matmul a b)

let test_mat_matvec () =
  let a = Mat.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  vec_close "matvec" [| 14.; 32. |] (Mat.matvec a [| 1.; 2.; 3. |]);
  vec_close "vecmat" [| 9.; 12.; 15. |] (Mat.vecmat [| 1.; 2. |] a)

let test_mat_transpose () =
  let a = Mat.of_rows [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let at = Mat.transpose a in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Mat.dims at);
  check_float "element" 6. (Mat.get at 2 1);
  mat_close "double transpose" a (Mat.transpose at)

let test_mat_norms () =
  let a = Mat.of_rows [| [| 1.; -2. |]; [| 3.; 4. |] |] in
  check_float "norm_inf" 7. (Mat.norm_inf a);
  check_float "norm_fro" (sqrt 30.) (Mat.norm_fro a);
  check_float "trace" 5. (Mat.trace a)

let test_mat_symmetry () =
  let s = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric s);
  let a = Mat.of_rows [| [| 2.; 1. |]; [| 0.; 3. |] |] in
  Alcotest.(check bool) "asymmetric" false (Mat.is_symmetric a)

let test_mat_diag () =
  let d = Mat.diag [| 1.; 2.; 3. |] in
  check_float "diag get" 2. (Mat.get d 1 1);
  check_float "diag off" 0. (Mat.get d 0 2);
  vec_close "diagonal" [| 1.; 2.; 3. |] (Mat.diagonal d)

let test_mat_add_scaled_identity () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  mat_close "A + 2I" (Mat.of_rows [| [| 3.; 2. |]; [| 3.; 6. |] |]) (Mat.add_scaled_identity 2. a)

let test_mat_bad_dims () =
  Alcotest.check_raises "inner mismatch"
    (Invalid_argument "Mat.matmul: inner dimensions differ (2x2 times 3x2)") (fun () ->
      ignore (Mat.matmul (Mat.identity 2) (Mat.zeros 3 2)))

(* ------------------------------------------------------------------- Lu *)

let random_matrix rng n =
  Mat.init n n (fun _ _ -> Random.State.float rng 2. -. 1.)

let test_lu_solve_known () =
  let a = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  (* x = (1, 2): b = (4, 7) *)
  vec_close "solve" [| 1.; 2. |] (Lu.solve a [| 4.; 7. |])

let test_lu_inverse_roundtrip () =
  let rng = Random.State.make [| 42 |] in
  for n = 1 to 8 do
    let a = Mat.add_scaled_identity (float_of_int n) (random_matrix rng n) in
    let inv = Lu.inverse a in
    mat_close ~tol:1e-9 (Printf.sprintf "A*A^-1 = I (n=%d)" n) (Mat.identity n)
      (Mat.matmul a inv)
  done

let test_lu_det () =
  let a = Mat.of_rows [| [| 2.; 0. |]; [| 0.; 3. |] |] in
  check_float "diag det" 6. (Lu.det a);
  let b = Mat.of_rows [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_float "permutation det" (-1.) (Lu.det b);
  check_float "singular det" 0. (Lu.det (Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |]))

let test_lu_singular_raises () =
  let s = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.(check bool) "raises Singular" true
    (match Lu.factorize s with exception Lu.Singular _ -> true | _ -> false)

(* A random matrix whose leading entry is zero, so partial pivoting has
   to swap rows at the first step (and, at random entries, later ones). *)
let random_pivoting_matrix rng n =
  let a = random_matrix rng n in
  if n > 1 then Mat.set a 0 0 0.;
  a

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_lu_in_place_bit_identical () =
  let rng = Random.State.make [| 14 |] in
  List.iter
    (fun n ->
      let w = Lu.workspace n in
      let x = Array.make n 0. in
      (* Two factorizations per size into the same workspace: the second
         starts from the first's factors and permutation. *)
      for trial = 1 to 2 do
        let a = random_pivoting_matrix rng n in
        let b = Array.init n (fun _ -> Random.State.float rng 2. -. 1.) in
        Lu.factorize_into w a;
        Lu.solve_into w b x;
        Alcotest.(check (array (float 0.)))
          (Printf.sprintf "n=%d trial %d" n trial)
          (Lu.solve_vec (Lu.factorize a) b)
          x
      done)
    [ 1; 2; 3; 5; 9; 16 ]

let test_lu_in_place_errors () =
  let w = Lu.workspace 2 in
  let s = Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.(check bool) "singular raises Singular" true
    (match Lu.factorize_into w s with exception Lu.Singular _ -> true | () -> false);
  Alcotest.(check bool) "3x3 into a 2x2 workspace" true
    (raises_invalid (fun () -> Lu.factorize_into w (Mat.identity 3)));
  Alcotest.(check bool) "non-square" true
    (raises_invalid (fun () -> Lu.factorize_into w (Mat.zeros 2 3)));
  Lu.factorize_into w (Mat.identity 2);
  let b = [| 1.; 2. |] in
  Alcotest.(check bool) "short rhs" true
    (raises_invalid (fun () -> Lu.solve_into w [| 1. |] (Array.make 2 0.)));
  Alcotest.(check bool) "long solution buffer" true
    (raises_invalid (fun () -> Lu.solve_into w b (Array.make 3 0.)));
  Alcotest.(check bool) "rhs aliased with the solution" true
    (raises_invalid (fun () -> Lu.solve_into w b b));
  Alcotest.(check bool) "short rhs to solve_vec" true
    (raises_invalid (fun () -> Lu.solve_vec (Lu.factorize (Mat.identity 2)) [| 1. |]));
  Alcotest.(check bool) "negative workspace" true
    (raises_invalid (fun () -> Lu.workspace (-1)))

let test_lu_rejects_non_finite () =
  List.iter
    (fun (name, rows) ->
      let a = Mat.of_rows rows in
      Alcotest.(check bool) (name ^ ": factorize") true
        (raises_invalid (fun () -> Lu.factorize a));
      Alcotest.(check bool) (name ^ ": solve") true
        (raises_invalid (fun () -> Lu.solve a [| 1.; 1. |]));
      Alcotest.(check bool) (name ^ ": det") true (raises_invalid (fun () -> Lu.det a));
      Alcotest.(check bool) (name ^ ": factorize_into") true
        (raises_invalid (fun () -> Lu.factorize_into (Lu.workspace 2) a)))
    [
      ("NaN", [| [| Float.nan; 1. |]; [| 1.; 2. |] |]);
      ("inf", [| [| 2.; 1. |]; [| 1.; Float.infinity |] |]);
      ("-inf off-diagonal", [| [| 2.; Float.neg_infinity |]; [| 1.; 3. |] |]);
    ]

(* ------------------------------------------------------------- Cholesky *)

let chol_rejects a =
  match Cholesky.factorize a with
  | exception Cholesky.Not_positive_definite _ -> true
  | _ -> false

let test_chol_spd () =
  let a =
    Mat.of_rows [| [| 4.; 2.; -2. |]; [| 2.; 10.; 2. |]; [| -2.; 2.; 5. |] |]
  in
  let l = Cholesky.factorize a in
  mat_close "L L^T = A" a (Mat.matmul l (Mat.transpose l));
  for i = 0 to 2 do
    for j = i + 1 to 2 do
      check_float "upper triangle zero" 0. (Mat.get l i j)
    done;
    Alcotest.(check bool) "positive diagonal" true (Mat.get l i i > 0.)
  done

let test_chol_rejects () =
  Alcotest.(check bool) "indefinite" true
    (chol_rejects (Mat.of_rows [| [| 1.; 2. |]; [| 2.; 1. |] |]));
  Alcotest.(check bool) "negative definite" true
    (chol_rejects (Mat.of_rows [| [| -1.; 0. |]; [| 0.; -1. |] |]));
  Alcotest.(check bool) "singular" true
    (chol_rejects (Mat.of_rows [| [| 1.; 1. |]; [| 1.; 1. |] |]));
  Alcotest.(check bool) "singular up to rounding" true
    (chol_rejects
       (Mat.of_rows
          [| [| 0.3; -0.3; 0. |]; [| -0.3; 1.4; -1.1 |]; [| 0.; -1.1; 1.1 |] |]));
  Alcotest.(check bool) "NaN off-diagonal" true
    (chol_rejects (Mat.of_rows [| [| 2.; Float.nan |]; [| Float.nan; 2. |] |]));
  Alcotest.(check bool) "NaN diagonal" true
    (chol_rejects (Mat.of_rows [| [| Float.nan; 0. |]; [| 0.; 2. |] |]));
  Alcotest.check_raises "non-square"
    (Invalid_argument "Cholesky.factorize: matrix not square") (fun () ->
      ignore (Cholesky.factorize (Mat.zeros 2 3)))

let test_lu_pivoting () =
  (* Requires row exchange: leading zero pivot. *)
  let a = Mat.of_rows [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  vec_close "swap solve" [| 2.; 1. |] (Lu.solve a [| 1.; 2. |])

let test_lu_solve_mat () =
  let a = Mat.of_rows [| [| 3.; 1. |]; [| 1.; 2. |] |] in
  let x = Mat.of_rows [| [| 1.; 0. |]; [| 2.; 5. |] |] in
  let b = Mat.matmul a x in
  mat_close ~tol:1e-12 "solve_mat" x (Lu.solve_mat (Lu.factorize a) b)

(* -------------------------------------------------------------- Sym_eig *)

let random_symmetric rng n =
  let a = random_matrix rng n in
  Mat.init n n (fun i j -> (Mat.get a i j +. Mat.get a j i) /. 2.)

let test_eig_diagonal () =
  let d = Sym_eig.decompose (Mat.diag [| 3.; 1.; 2. |]) in
  vec_close "sorted eigenvalues" [| 1.; 2.; 3. |] d.Sym_eig.eigenvalues

let test_eig_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 1 and 3. *)
  let d = Sym_eig.decompose (Mat.of_rows [| [| 2.; 1. |]; [| 1.; 2. |] |]) in
  vec_close ~tol:1e-12 "eigenvalues" [| 1.; 3. |] d.Sym_eig.eigenvalues

let test_eig_reconstruct () =
  let rng = Random.State.make [| 7 |] in
  for n = 2 to 10 do
    let s = random_symmetric rng n in
    let d = Sym_eig.decompose s in
    mat_close ~tol:1e-10 (Printf.sprintf "reconstruct n=%d" n) s (Sym_eig.reconstruct d)
  done

let test_eig_orthonormal () =
  let rng = Random.State.make [| 11 |] in
  let s = random_symmetric rng 6 in
  let d = Sym_eig.decompose s in
  let v = d.Sym_eig.eigenvectors in
  mat_close ~tol:1e-10 "V^T V = I" (Mat.identity 6) (Mat.matmul (Mat.transpose v) v)

let test_eig_apply_function () =
  let s = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  let d = Sym_eig.decompose s in
  (* exp of the matrix via eigenvalues must match the Padé expm. *)
  mat_close ~tol:1e-9 "exp via eig = expm" (Expm.expm s) (Sym_eig.apply_function d exp)

let test_eig_rejects_asymmetric () =
  Alcotest.check_raises "asymmetric input"
    (Invalid_argument "Sym_eig.decompose: matrix not symmetric") (fun () ->
      ignore (Sym_eig.decompose (Mat.of_rows [| [| 1.; 2. |]; [| 0.; 1. |] |])))

(* ---------------------------------------------------------- Tridiag_eig *)

(* Dense image of the tridiagonal (alpha, beta), the Jacobi oracle's input. *)
let tridiag_dense alpha beta m =
  Mat.init m m (fun i j ->
      if i = j then alpha.(i)
      else if j = i + 1 then beta.(i)
      else if i = j + 1 then beta.(j)
      else 0.)

let max_abs_diff a b =
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := Float.max !acc (Float.abs (x -. b.Mat.data.(i)))) a.Mat.data;
  !acc

(* The kernel's guarantees on one matrix: eigenvalues equal the dense
   Jacobi oracle's within 1e-12 ||T||, V is orthonormal within 1e-12, and
   V diag(lambda) V^T reconstructs T within 1e-12 ||T||. *)
let check_tridiag msg alpha beta m =
  let t = tridiag_dense alpha beta m in
  let norm = Float.max (Mat.norm_fro t) 1e-300 in
  let d = Tridiag_eig.decompose ~alpha ~beta m in
  let oracle = Sym_eig.decompose t in
  Alcotest.(check int) (msg ^ ": count") m (Array.length d.Sym_eig.eigenvalues);
  Array.iteri
    (fun i lam ->
      if not (Float.abs (lam -. oracle.Sym_eig.eigenvalues.(i)) <= 1e-12 *. norm) then
        Alcotest.failf "%s: eigenvalue %d is %.17g, oracle %.17g" msg i lam
          oracle.Sym_eig.eigenvalues.(i))
    d.Sym_eig.eigenvalues;
  for i = 1 to m - 1 do
    if d.Sym_eig.eigenvalues.(i) < d.Sym_eig.eigenvalues.(i - 1) then
      Alcotest.failf "%s: eigenvalues not ascending at %d" msg i
  done;
  let v = d.Sym_eig.eigenvectors in
  let vtv = Mat.matmul (Mat.transpose v) v in
  let orth = max_abs_diff vtv (Mat.identity m) in
  if not (orth <= 1e-12) then Alcotest.failf "%s: |V^T V - I| = %g" msg orth;
  let recon = max_abs_diff (Sym_eig.reconstruct d) t in
  if not (recon <= 1e-12 *. norm) then
    Alcotest.failf "%s: |V L V^T - T| = %g (||T|| = %g)" msg recon norm

let random_tridiag ~spd rng m =
  let beta = Array.init (Stdlib.max 0 (m - 1)) (fun _ -> Random.State.float rng 2. -. 1.) in
  let alpha =
    Array.init m (fun i ->
        if spd then
          (* Strict diagonal dominance with a positive diagonal: SPD. *)
          let left = if i > 0 then Float.abs beta.(i - 1) else 0. in
          let right = if i < m - 1 then Float.abs beta.(i) else 0. in
          left +. right +. 0.1 +. Random.State.float rng 3.
        else Random.State.float rng 2. -. 1.)
  in
  (alpha, beta)

let tridiag_sizes = [ 1; 2; 3; 8; 32; 64; 128 ]

let test_tridiag_random () =
  let rng = Random.State.make [| 2016 |] in
  List.iter
    (fun m ->
      List.iter
        (fun spd ->
          let alpha, beta = random_tridiag ~spd rng m in
          check_tridiag
            (Printf.sprintf "%s m=%d" (if spd then "spd" else "indefinite") m)
            alpha beta m)
        [ true; false ])
    tridiag_sizes

let test_tridiag_graded () =
  (* Stiff, thermal-like spectra: diagonal spanning six decades. *)
  List.iter
    (fun m ->
      let alpha = Array.init m (fun i -> 10. ** (-3. +. (6. *. float_of_int i /. float_of_int m))) in
      let beta = Array.init (m - 1) (fun i -> 0.3 *. Float.min alpha.(i) alpha.(i + 1)) in
      check_tridiag (Printf.sprintf "graded m=%d" m) alpha beta m)
    [ 8; 32; 64 ]

let test_tridiag_split () =
  (* Exactly-zero couplings split T into independent blocks, the shape an
     invariant Lanczos breakdown leaves behind; each eigenvector must stay
     supported on its own block. *)
  let rng = Random.State.make [| 29 |] in
  List.iter
    (fun (m, cuts) ->
      let alpha, beta = random_tridiag ~spd:false rng m in
      List.iter (fun c -> beta.(c) <- 0.) cuts;
      check_tridiag (Printf.sprintf "split m=%d" m) alpha beta m;
      let block i = List.length (List.filter (fun c -> c < i) cuts) in
      let v = (Tridiag_eig.decompose ~alpha ~beta m).Sym_eig.eigenvectors in
      for j = 0 to m - 1 do
        let support = ref [] in
        for i = 0 to m - 1 do
          if not (Float.equal (Mat.get v i j) 0.) then support := block i :: !support
        done;
        match List.sort_uniq Int.compare !support with
        | [ _ ] -> ()
        | bs ->
            Alcotest.failf "split m=%d: eigenvector %d spans %d blocks" m j
              (List.length bs)
      done)
    [ (2, [ 0 ]); (8, [ 3 ]); (32, [ 0; 7; 8; 30 ]); (64, [ 15; 31; 47 ]) ]

let test_tridiag_repeated () =
  let rng = Random.State.make [| 31 |] in
  (* A multiple of the identity: one eigenvalue of multiplicity m. *)
  check_tridiag "2.5 I" (Array.make 16 2.5) (Array.make 15 0.) 16;
  (* Two copies of one random block behind a zero coupling: every
     eigenvalue is exactly double. *)
  let a, b = random_tridiag ~spd:true rng 12 in
  let alpha = Array.append a a and beta = Array.concat [ b; [| 0. |]; b ] in
  check_tridiag "doubled block" alpha beta 24;
  let d = Tridiag_eig.decompose ~alpha ~beta 24 in
  for i = 0 to 11 do
    let l0 = d.Sym_eig.eigenvalues.(2 * i) and l1 = d.Sym_eig.eigenvalues.((2 * i) + 1) in
    if not (Float.abs (l0 -. l1) <= 1e-12 *. Float.abs l0) then
      Alcotest.failf "doubled block: pair %d is %.17g / %.17g" i l0 l1
  done;
  (* Wilkinson's W21+: unreduced, with pairs agreeing to ~1e-14. *)
  let w = Array.init 21 (fun i -> Float.abs (float_of_int (10 - i))) in
  check_tridiag "W21+" w (Array.make 20 1.) 21

let test_tridiag_deterministic () =
  let rng = Random.State.make [| 37 |] in
  let alpha, beta = random_tridiag ~spd:true rng 48 in
  let d1 = Tridiag_eig.decompose ~alpha ~beta 48 in
  let d2 = Tridiag_eig.decompose ~alpha:(Array.copy alpha) ~beta:(Array.copy beta) 48 in
  let same a b = Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b in
  Alcotest.(check bool) "bit-identical eigenvalues" true
    (same d1.Sym_eig.eigenvalues d2.Sym_eig.eigenvalues);
  Alcotest.(check bool) "bit-identical eigenvectors" true
    (same d1.Sym_eig.eigenvectors.Mat.data d2.Sym_eig.eigenvectors.Mat.data);
  (* Entries past the used ranges are ignored. *)
  let d3 = Tridiag_eig.decompose ~alpha:(Array.append alpha [| nan |])
      ~beta:(Array.append beta [| nan; nan |]) 48 in
  Alcotest.(check bool) "ignores trailing entries" true
    (same d1.Sym_eig.eigenvalues d3.Sym_eig.eigenvalues)

let test_tridiag_rejects () =
  let raises_invalid msg f =
    match f () with
    | _ -> Alcotest.failf "%s: no exception" msg
    | exception Invalid_argument _ -> ()
  in
  let alpha = [| 1.; 2.; 3. |] and beta = [| 0.5; 0.5 |] in
  raises_invalid "NaN alpha" (fun () ->
      Tridiag_eig.decompose ~alpha:[| 1.; nan; 3. |] ~beta 3);
  raises_invalid "inf beta" (fun () ->
      Tridiag_eig.decompose ~alpha ~beta:[| 0.5; infinity |] 3);
  raises_invalid "-inf alpha" (fun () ->
      Tridiag_eig.decompose ~alpha:[| neg_infinity; 2.; 3. |] ~beta 3);
  raises_invalid "short alpha" (fun () -> Tridiag_eig.decompose ~alpha ~beta 4);
  raises_invalid "negative size" (fun () -> Tridiag_eig.decompose ~alpha ~beta (-1));
  Alcotest.(check int) "empty" 0
    (Array.length (Tridiag_eig.decompose ~alpha ~beta 0).Sym_eig.eigenvalues);
  let rng = Random.State.make [| 41 |] in
  let alpha, beta = random_tridiag ~spd:false rng 32 in
  List.iter
    (fun max_iter ->
      match Tridiag_eig.decompose ~max_iter ~alpha ~beta 32 with
      | _ -> Alcotest.failf "max_iter = %d: no exception" max_iter
      | exception Failure _ -> ())
    [ 0; 1 ]

(* ----------------------------------------------------------------- Expm *)

let test_expm_zero () =
  mat_close "e^0 = I" (Mat.identity 4) (Expm.expm (Mat.zeros 4 4))

let test_expm_diagonal () =
  let e = Expm.expm (Mat.diag [| 1.; -2. |]) in
  check_close 1e-12 "e^1" (exp 1.) (Mat.get e 0 0);
  check_close 1e-12 "e^-2" (exp (-2.)) (Mat.get e 1 1);
  check_float "off-diag" 0. (Mat.get e 0 1)

let test_expm_nilpotent () =
  (* exp [[0,1],[0,0]] = [[1,1],[0,1]] exactly. *)
  let n = Mat.of_rows [| [| 0.; 1. |]; [| 0.; 0. |] |] in
  mat_close ~tol:1e-14 "nilpotent" (Mat.of_rows [| [| 1.; 1. |]; [| 0.; 1. |] |]) (Expm.expm n)

let test_expm_rotation () =
  (* exp [[0,-t],[t,0]] is a rotation by t. *)
  let t = 1.2 in
  let r = Expm.expm (Mat.of_rows [| [| 0.; -.t |]; [| t; 0. |] |]) in
  check_close 1e-12 "cos" (cos t) (Mat.get r 0 0);
  check_close 1e-12 "sin" (sin t) (Mat.get r 1 0)

let test_expm_inverse_property () =
  let rng = Random.State.make [| 3 |] in
  let a = random_matrix rng 5 in
  let e = Expm.expm a in
  let e_neg = Expm.expm (Mat.scale (-1.) a) in
  mat_close ~tol:1e-10 "e^A e^-A = I" (Mat.identity 5) (Mat.matmul e e_neg)

let test_expm_scaling_branch () =
  (* Norm far above theta13 forces the squaring path. *)
  let a = Mat.scale 40. (Mat.of_rows [| [| 0.; 1. |]; [| -1.; 0. |] |]) in
  let r = Expm.expm a in
  check_close 1e-8 "large rotation cos" (cos 40.) (Mat.get r 0 0)

let test_expm_semigroup () =
  let rng = Random.State.make [| 13 |] in
  let a = random_matrix rng 4 in
  let lhs = Expm.expm_scaled a 0.7 in
  let rhs = Mat.matmul (Expm.expm_scaled a 0.3) (Expm.expm_scaled a 0.4) in
  mat_close ~tol:1e-11 "e^{0.7A} = e^{0.3A} e^{0.4A}" lhs rhs

(* ------------------------------------------------------------ properties *)

let vec_gen n = QCheck.Gen.(array_size (return n) (float_bound_inclusive 10.))

let prop_lu_solve_residual =
  QCheck.Test.make ~name:"lu: ||Ax - b|| small for well-conditioned A" ~count:100
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 8 in
          let* entries = array_size (return (n * n)) (float_bound_inclusive 1.) in
          let* b = vec_gen n in
          return (n, entries, b)))
    (fun (n, entries, b) ->
      let a =
        Mat.add_scaled_identity (float_of_int (2 * n)) (Mat.init n n (fun i j -> entries.((i * n) + j)))
      in
      let x = Lu.solve a b in
      Vec.dist_inf (Mat.matvec a x) b < 1e-8)

let prop_lu_in_place_bit_exact =
  QCheck.Test.make ~name:"lu: in-place = solve_vec, bit-exact" ~count:100
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 9 in
          let* first = array_size (return (n * n)) (float_bound_inclusive 1.) in
          let* entries = array_size (return (n * n)) (float_bound_inclusive 1.) in
          let* b = vec_gen n in
          return (n, first, entries, b)))
    (fun (n, first, entries, b) ->
      let of_entries e = Mat.init n n (fun i j -> e.((i * n) + j) -. 0.5) in
      let a = of_entries entries in
      match Lu.factorize a with
      | exception Lu.Singular _ -> QCheck.assume_fail ()
      | f ->
          (* Dirty the workspace with another matrix's factors first. *)
          let w = Lu.workspace n in
          (try Lu.factorize_into w (of_entries first) with Lu.Singular _ -> ());
          Lu.factorize_into w a;
          let x = Array.make n 0. in
          Lu.solve_into w b x;
          Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
            (Lu.solve_vec f b) x)

let prop_eig_spectrum_matches_trace =
  QCheck.Test.make ~name:"sym_eig: eigenvalue sum equals trace" ~count:100
    QCheck.(
      make
        Gen.(
          let* n = int_range 2 8 in
          let* entries = array_size (return (n * n)) (float_bound_inclusive 1.) in
          return (n, entries)))
    (fun (n, entries) ->
      let raw = Mat.init n n (fun i j -> entries.((i * n) + j)) in
      let s = Mat.init n n (fun i j -> (Mat.get raw i j +. Mat.get raw j i) /. 2.) in
      let d = Sym_eig.decompose s in
      Float.abs (Vec.sum d.Sym_eig.eigenvalues -. Mat.trace s) < 1e-9)

let prop_expm_det =
  QCheck.Test.make ~name:"expm: det e^A = e^{tr A}" ~count:60
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 5 in
          let* entries = array_size (return (n * n)) (float_bound_inclusive 1.) in
          return (n, entries)))
    (fun (n, entries) ->
      let a = Mat.init n n (fun i j -> entries.((i * n) + j)) in
      let lhs = Lu.det (Expm.expm a) in
      let rhs = exp (Mat.trace a) in
      Float.abs (lhs -. rhs) <= 1e-7 *. Float.max 1. (Float.abs rhs))

let () =
  Alcotest.run "linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "arithmetic" `Quick test_vec_arithmetic;
          Alcotest.test_case "reductions" `Quick test_vec_reductions;
          Alcotest.test_case "leq ordering" `Quick test_vec_leq;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_dim_mismatch;
          Alcotest.test_case "empty mean raises" `Quick test_vec_empty_mean;
        ] );
      ( "mat",
        [
          Alcotest.test_case "identity matmul" `Quick test_mat_identity_matmul;
          Alcotest.test_case "known product" `Quick test_mat_matmul_known;
          Alcotest.test_case "matvec/vecmat" `Quick test_mat_matvec;
          Alcotest.test_case "transpose" `Quick test_mat_transpose;
          Alcotest.test_case "norms and trace" `Quick test_mat_norms;
          Alcotest.test_case "symmetry check" `Quick test_mat_symmetry;
          Alcotest.test_case "diag round trip" `Quick test_mat_diag;
          Alcotest.test_case "add scaled identity" `Quick test_mat_add_scaled_identity;
          Alcotest.test_case "bad dims raise" `Quick test_mat_bad_dims;
        ] );
      ( "lu",
        [
          Alcotest.test_case "known solve" `Quick test_lu_solve_known;
          Alcotest.test_case "inverse round trip" `Quick test_lu_inverse_roundtrip;
          Alcotest.test_case "determinants" `Quick test_lu_det;
          Alcotest.test_case "singular raises" `Quick test_lu_singular_raises;
          Alcotest.test_case "pivoting" `Quick test_lu_pivoting;
          Alcotest.test_case "matrix rhs" `Quick test_lu_solve_mat;
          Alcotest.test_case "in-place = factorize, bit-exact" `Quick
            test_lu_in_place_bit_identical;
          Alcotest.test_case "in-place singular and dimension errors" `Quick
            test_lu_in_place_errors;
          Alcotest.test_case "non-finite entries rejected" `Quick test_lu_rejects_non_finite;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "SPD accepted" `Quick test_chol_spd;
          Alcotest.test_case "indefinite, singular and NaN rejected" `Quick
            test_chol_rejects;
        ] );
      ( "sym_eig",
        [
          Alcotest.test_case "diagonal input" `Quick test_eig_diagonal;
          Alcotest.test_case "known 2x2" `Quick test_eig_known_2x2;
          Alcotest.test_case "reconstruction" `Quick test_eig_reconstruct;
          Alcotest.test_case "orthonormal vectors" `Quick test_eig_orthonormal;
          Alcotest.test_case "matrix function" `Quick test_eig_apply_function;
          Alcotest.test_case "rejects asymmetric" `Quick test_eig_rejects_asymmetric;
        ] );
      ( "tridiag",
        [
          Alcotest.test_case "random SPD and indefinite = Jacobi" `Quick test_tridiag_random;
          Alcotest.test_case "graded spectrum" `Quick test_tridiag_graded;
          Alcotest.test_case "zero couplings split exactly" `Quick test_tridiag_split;
          Alcotest.test_case "repeated eigenvalues" `Quick test_tridiag_repeated;
          Alcotest.test_case "deterministic" `Quick test_tridiag_deterministic;
          Alcotest.test_case "non-finite input and iteration cap" `Quick
            test_tridiag_rejects;
        ] );
      ( "expm",
        [
          Alcotest.test_case "zero matrix" `Quick test_expm_zero;
          Alcotest.test_case "diagonal" `Quick test_expm_diagonal;
          Alcotest.test_case "nilpotent" `Quick test_expm_nilpotent;
          Alcotest.test_case "rotation" `Quick test_expm_rotation;
          Alcotest.test_case "inverse property" `Quick test_expm_inverse_property;
          Alcotest.test_case "scaling branch" `Quick test_expm_scaling_branch;
          Alcotest.test_case "semigroup property" `Quick test_expm_semigroup;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_lu_solve_residual;
            prop_eig_spectrum_matches_trace;
            prop_expm_det;
            prop_lu_in_place_bit_exact;
          ] );
    ]

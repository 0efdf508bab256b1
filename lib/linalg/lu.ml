type workspace = {
  n : int;
  lu : Mat.t; (* packed L (unit diagonal, below) and U (on/above diagonal) *)
  perm : int array; (* row permutation: source row of output row i *)
}

type factorization = {
  w : workspace;
  sign : float; (* parity of the permutation, for determinants *)
}

exception Singular of int

let workspace n =
  if n < 0 then invalid_arg "Lu.workspace: negative dimension";
  { n; lu = Mat.zeros n n; perm = Array.make n 0 }

(* The one elimination loop behind every entry point: copy [a] into the
   workspace (rejecting non-finite entries, which the pivot test below
   cannot see — [nan < 1e-300] is false), then run partial-pivot
   Gaussian elimination in place.  Returns the permutation parity as
   [1] or [-1] (an int, so the in-place path allocates nothing). *)
let eliminate name { n; lu; perm } a =
  if not (Mat.is_square a) then invalid_arg (name ^ ": matrix not square");
  if a.Mat.rows <> n then
    invalid_arg
      (Printf.sprintf "%s: matrix is %dx%d, workspace is %dx%d" name a.Mat.rows
         a.Mat.cols n n);
  let src = a.Mat.data and dst = lu.Mat.data in
  for i = 0 to (n * n) - 1 do
    let x = src.(i) in
    if not (Float.is_finite x) then
      invalid_arg
        (Printf.sprintf "%s: non-finite entry at (%d, %d)" name (i / n) (i mod n));
    dst.(i) <- x
  done;
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  let sign = ref 1 in
  (* [dst] is [lu]'s row-major storage, indexed directly: element (i, j)
     is [dst.(i * n + j)], and [rk]/[ri] are the offsets of rows k/i. *)
  for k = 0 to n - 1 do
    let rk = k * n in
    (* Pivot search in column k. *)
    let pivot_row = ref k in
    let pivot_mag = ref (Float.abs dst.(rk + k)) in
    for i = k + 1 to n - 1 do
      let m = Float.abs dst.((i * n) + k) in
      if m > !pivot_mag then begin
        pivot_mag := m;
        pivot_row := i
      end
    done;
    if !pivot_mag < 1e-300 then raise (Singular k);
    if !pivot_row <> k then begin
      let r = !pivot_row in
      let rr = r * n in
      for j = 0 to n - 1 do
        let tmp = dst.(rk + j) in
        dst.(rk + j) <- dst.(rr + j);
        dst.(rr + j) <- tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(r);
      perm.(r) <- tmp;
      sign := - !sign
    end;
    let pivot = dst.(rk + k) in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let factor = dst.(ri + k) /. pivot in
      dst.(ri + k) <- factor;
      if not (Float.equal factor 0.) then
        for j = k + 1 to n - 1 do
          dst.(ri + j) <- dst.(ri + j) -. (factor *. dst.(rk + j))
        done
    done
  done;
  !sign

let factorize_into w a = ignore (eliminate "Lu.factorize_into" w a : int)

let factorize a =
  let w = workspace a.Mat.rows in
  let sign = float_of_int (eliminate "Lu.factorize" w a) in
  { w; sign }

(* Forward then back substitution into [x]; [b] is only read. *)
let substitute name { n; lu; perm } b x =
  if Array.length b <> n then
    invalid_arg (Printf.sprintf "%s: rhs has length %d, expected %d" name (Array.length b) n);
  if Array.length x <> n then
    invalid_arg
      (Printf.sprintf "%s: solution buffer has length %d, expected %d" name
         (Array.length x) n);
  if n > 0 && x == b then invalid_arg (name ^ ": rhs and solution buffer are shared");
  let lu = lu.Mat.data in
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  (* Forward substitution with unit-diagonal L. *)
  for i = 1 to n - 1 do
    let ri = i * n in
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (lu.(ri + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* Back substitution with U. *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (lu.(ri + j) *. x.(j))
    done;
    x.(i) <- !acc /. lu.(ri + i)
  done

let solve_into w b x = substitute "Lu.solve_into" w b x

let solve_vec f b =
  let x = Array.make f.w.n 0. in
  substitute "Lu.solve_vec" f.w b x;
  x

let solve_mat f b =
  let n = f.w.n in
  if b.Mat.rows <> n then
    invalid_arg (Printf.sprintf "Lu.solve_mat: rhs has %d rows, expected %d" b.Mat.rows n);
  let x = Mat.zeros n b.Mat.cols in
  for j = 0 to b.Mat.cols - 1 do
    let xj = solve_vec f (Mat.col b j) in
    for i = 0 to n - 1 do
      Mat.set x i j xj.(i)
    done
  done;
  x

let solve a b = solve_vec (factorize a) b
let inverse a = solve_mat (factorize a) (Mat.identity a.Mat.rows)

let det_of f =
  let acc = ref f.sign in
  for i = 0 to f.w.n - 1 do
    acc := !acc *. Mat.get f.w.lu i i
  done;
  !acc

let det a = match factorize a with f -> det_of f | exception Singular _ -> 0.

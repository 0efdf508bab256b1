(** Eigendecomposition of real symmetric tridiagonal matrices by implicit
    QL with Wilkinson shifts (EISPACK [tql2]).

    This is the small-matrix kernel behind {!Krylov}: every Lanczos
    projection [T_m] is symmetric tridiagonal, so it is diagonalized
    straight from the recurrence coefficients, without building a dense
    matrix.  One QL sweep costs O(m) on the eigenvalues plus O(m²) to
    accumulate the eigenvectors, against O(m³) for a cyclic Jacobi sweep
    over the dense [m × m] matrix ({!Sym_eig}, which remains the dense
    model's eigensolver and this kernel's test oracle).

    Zero off-diagonal couplings split the matrix into independent
    blocks, the shape an invariant Lanczos breakdown produces; they are
    handled exactly.  The result is a pure function of the inputs: no
    randomness, fixed sweep order, so a decomposition is bit-identical
    across runs and pool sizes. *)

(** [decompose ?max_iter ~alpha ~beta m] diagonalizes the [m × m]
    symmetric tridiagonal matrix with diagonal [alpha.(0 .. m-1)] and
    off-diagonal [beta.(0 .. m-2)], where [beta.(i)] couples rows [i]
    and [i + 1]; entries past those ranges are ignored.  The result has
    the same layout as {!Sym_eig.decompose}: eigenvalues ascending,
    orthonormal eigenvectors as the matching columns.

    [max_iter] (default [30]) bounds the QL iterations spent isolating
    any one eigenvalue.  Raises [Invalid_argument] if [m < 0], if an
    array is too short, or if a used [alpha]/[beta] entry is not finite;
    raises [Failure] if some eigenvalue needs more than [max_iter]
    iterations. *)
val decompose :
  ?max_iter:int -> alpha:float array -> beta:float array -> int -> Sym_eig.t

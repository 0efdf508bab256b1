(** Eigendecomposition of real symmetric matrices by the cyclic Jacobi
    method.

    The thermal coefficient matrix [A = -C^{-1}(G - beta I)] is similar to
    the symmetric matrix [-C^{-1/2}(G - beta I)C^{-1/2}], so a symmetric
    eigensolver suffices to diagonalize it exactly; {!Thermal.Model}
    performs that similarity transform.  Jacobi is slow for huge matrices
    but the paper's platforms have at most a few dozen thermal nodes, where
    it is both fast and exceptionally accurate.

    That dense model eigenbasis is this module's only production use.
    The tridiagonal Lanczos projections inside {!Krylov} go through
    {!Tridiag_eig} instead (O(m²) per QL sweep, no dense matrix), for
    which Jacobi on the dense image of the same tridiagonal is the test
    oracle.  The {!t} record is shared by both solvers. *)

type t = {
  eigenvalues : Vec.t;  (** Ascending eigenvalues. *)
  eigenvectors : Mat.t;
      (** Orthonormal eigenvectors as columns, ordered to match
          [eigenvalues]: [a = V diag(lambda) V^T]. *)
}

(** [decompose ?tol ?max_sweeps a] diagonalizes the symmetric matrix [a].
    [tol] (default [1e-14]) is the relative off-diagonal threshold for
    convergence; [max_sweeps] (default [64]) bounds the number of cyclic
    sweeps.  Raises [Invalid_argument] if [a] is not symmetric to within
    [1e-8] relative, or [Failure] if convergence is not reached. *)
val decompose : ?tol:float -> ?max_sweeps:int -> Mat.t -> t

(** [reconstruct d] recomputes [V diag(lambda) V^T], for testing. *)
val reconstruct : t -> Mat.t

(** [apply_function d f] is [V diag(f lambda_i) V^T] — evaluates a scalar
    function of the matrix, e.g. [exp] for the matrix exponential of a
    symmetric matrix. *)
val apply_function : t -> (float -> float) -> Mat.t

(** Cholesky factorization of symmetric positive definite matrices.

    The thermal code uses it as the cheap definiteness certificate: an
    [n x n] attempt costs [n^3 / 6] multiply-adds, against the full
    eigensolve's many Jacobi sweeps, and succeeds exactly when every
    pivot stays positive.  Only the lower triangle (diagonal included)
    of the input is read; callers that need symmetry check it
    themselves. *)

exception Not_positive_definite of int
(** Raised with the offending pivot column when a pivot is not
    positive: the matrix is indefinite, singular to working precision,
    or carries a NaN that reached the diagonal. *)

(** [factorize a] is the lower-triangular [l] with [a = l l^T].  A pivot
    [d] is accepted only when [d > r * a_jj] with
    [r = max 1e-12 (n * epsilon_float)] (and, for a NaN, never), so a
    matrix that is singular up to rounding — an ungrounded conductance
    network, whose last pivot is a cancellation residue of order
    [n * epsilon_float * a_jj] — is rejected instead of passing on it.
    The thermal models it certifies (HotSpot core-level, layered and 3D
    stacks, conduction sheets) keep every pivot above [0.3 a_jj], far
    from that floor.
    Raises [Invalid_argument] on a non-square [a] and
    {!Not_positive_definite} as above.  [a] is not modified. *)
val factorize : Mat.t -> Mat.t

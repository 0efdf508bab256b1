(** LU decomposition with partial pivoting, and the linear solves built on
    it.

    The thermal code needs [A^{-1}B] (steady states), [(I - K)^{-1}]
    (periodic stable status) and determinant signs (sanity checks).  All of
    these route through a single factorization so repeated solves against
    the same matrix are cheap.

    Every entry point runs the same elimination loop.  {!factorize}
    allocates fresh storage for it; {!factorize_into} and {!solve_into}
    run it in a caller-owned {!workspace}, for loops that must factorize
    a new matrix many times without allocating (the textbook EXS of
    Algorithm 1).  Both paths perform the same floating-point operations
    in the same order, so their results are bit-identical.

    Non-finite input is rejected: a NaN or infinite matrix entry raises
    [Invalid_argument] at factorization, since partial pivoting would
    otherwise return NaN or silently wrong solutions (a NaN pivot passes
    the singularity test). *)

type factorization
(** An opaque [P A = L U] factorization of a square matrix. *)

exception Singular of int
(** Raised (with the offending pivot column) when the matrix is singular
    to working precision. *)

(** [factorize a] computes the partial-pivoting LU factorization of the
    square matrix [a].  Raises {!Singular} when a pivot underflows, and
    [Invalid_argument] when [a] is not square or has a NaN or infinite
    entry.  [a] is not modified. *)
val factorize : Mat.t -> factorization

(** [solve_vec f b] solves [A x = b] for the factorized [A].  Raises
    [Invalid_argument] when [b] has the wrong length. *)
val solve_vec : factorization -> Vec.t -> Vec.t

(** [solve_mat f b] solves [A X = B] column by column. *)
val solve_mat : factorization -> Mat.t -> Mat.t

(** [solve a b] is [solve_vec (factorize a) b]. *)
val solve : Mat.t -> Vec.t -> Vec.t

(** [inverse a] is [A^{-1}].  Raises {!Singular} if [a] is singular. *)
val inverse : Mat.t -> Mat.t

(** [det a] is the determinant, computed from the factorization. *)
val det : Mat.t -> float

(** [det_of f] is the determinant read off an existing factorization. *)
val det_of : factorization -> float

(** {2 In-place factorization} *)

type workspace
(** Reusable storage for the factorization of one [n x n] matrix: the
    packed factors and the row permutation.  A workspace is mutable
    scratch owned by one caller; do not share it across domains. *)

(** [workspace n] allocates storage for [n x n] factorizations.  Raises
    [Invalid_argument] when [n] is negative. *)
val workspace : int -> workspace

(** [factorize_into w a] factorizes [a] into [w], overwriting whatever
    [w] held.  Same checks and the same arithmetic as {!factorize}:
    raises {!Singular} on an underflowing pivot and [Invalid_argument]
    when [a] is not square, has a non-finite entry, or its dimension
    differs from [w]'s.  [a] is not modified.  After an exception [w]
    holds no usable factorization until the next successful call. *)
val factorize_into : workspace -> Mat.t -> unit

(** [solve_into w b x] solves [A x = b] for the matrix last factorized
    into [w], writing the solution into [x] (bit-identical to
    {!solve_vec} on {!factorize}'s result).  [b] is only read.  Raises
    [Invalid_argument] when either length differs from [w]'s dimension
    or [x] and [b] are the same array. *)
val solve_into : workspace -> Vec.t -> Vec.t -> unit

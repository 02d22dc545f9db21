(** Compressed sparse row matrices.

    Column indices are sorted within each row and duplicate coordinate
    entries are summed on construction. For a symmetric matrix the same
    structure read column-wise is the CSC form, which is how the
    elimination-tree and symbolic-factorization code consumes it. *)

type t = private {
  nrows : int;
  ncols : int;
  row_ptr : int array;  (** Length [nrows + 1]; row [i] occupies
                            [row_ptr.(i) .. row_ptr.(i+1) - 1]. *)
  col_idx : int array;  (** Column indices, sorted within each row. *)
  values : float array;  (** Numerical values, parallel to [col_idx]. *)
}

val of_triplet : Triplet.t -> t
(** Compress a coordinate matrix; duplicates are summed, columns sorted. *)

val of_rows :
  nrows:int ->
  ncols:int ->
  row_ptr:int array ->
  col_idx:int array ->
  values:float array ->
  t
(** The matrix whose arrays these are, for a builder that writes sorted,
    duplicate-free rows itself. It takes ownership: the caller must not
    mutate them afterwards. Checking costs O(nrows + nnz) and no
    allocation.
    @raise Invalid_argument if the lengths disagree, [row_ptr] does not
    rise from 0, or a row's columns are not strictly ascending within
    [0, ncols). *)

val of_dense : float array array -> t
(** Build from a dense row-major array, dropping exact zeros. *)

val to_dense : t -> float array array
(** Expand to dense (for tests on small matrices). *)

val nnz : t -> int
(** Number of stored entries. *)

val get : t -> int -> int -> float
(** [get a i j] is the entry at [(i, j)], [0.] if not stored
    (binary search within the row). *)

val row : t -> int -> (int * float) Seq.t
(** Entries of row [i] as [(column, value)] pairs, ascending columns. *)

val transpose : t -> t
(** The transposed matrix, by one counting pass (O(nrows + ncols +
    nnz)). *)

val is_symmetric : ?tol:float -> t -> bool
(** Whether the matrix equals its transpose up to [tol] (default 0:
    exact, including pattern). *)

val symmetrize_pattern : t -> t
(** The paper's preprocessing: the pattern of [|A| + |A^T| + I], with
    value [1.] on every entry. The result is square, structurally
    symmetric, with a full diagonal. O(n + nnz): each row is one merge
    with the same row of {!transpose}.
    @raise Invalid_argument if the matrix is not square. *)

val symmetrize_values : t -> t
(** [(A + A^T) / 2] plus a diagonal shift making the result strictly
    diagonally dominant (hence SPD) — used to build numeric test problems
    from arbitrary patterns. O(n + nnz): each row is one merge with the
    same row of {!transpose}.
    @raise Invalid_argument if the matrix is not square. *)

val lower : ?strict:bool -> t -> t
(** The lower triangle (including the diagonal unless [strict]). *)

val permute_sym : t -> int array -> t
(** [permute_sym a perm] is [P A P^T] where [perm.(new_index) =
    old_index] — entry [(i,j)] of the result is [a(perm i, perm j)].
    Values are moved, never summed, so they are bit-identical. O(n +
    nnz) by two counting passes.
    @raise Invalid_argument if [perm] is not a permutation of the
    dimension. *)

val mul_vec : t -> float array -> float array
(** Matrix–vector product. *)

val equal_pattern : t -> t -> bool
(** Same dimensions and same stored pattern. *)

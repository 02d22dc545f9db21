(** Numeric multifrontal Cholesky factorization, driven by an arbitrary
    bottom-up schedule, with exact live-memory accounting.

    At column [j] the method allocates the frontal matrix on
    [struct j] (the symbolic column structure), assembles the original
    entries of A and the children's contribution blocks (extend–add, in
    ascending child order), eliminates the pivot, and stores the resulting contribution block
    until the parent column is processed. Live memory = all pending
    contribution blocks + the current front, measured in words; the front
    is allocated {e before} the children blocks are released, matching
    Equation (1) of the paper: with the raw assembly-tree weights
    ([f = (µ-1)², n = 2µ-1]) the measured per-step usage coincides
    exactly with {!Tt_core.Transform.in_tree_peak}. *)

type result = {
  l : Tt_sparse.Csr.t;  (** The Cholesky factor (lower triangular). *)
  peak_words : int;  (** Maximum live words over the factorization. *)
  profile : int array;
      (** Live words during the processing of each schedule step. *)
}

val run : Tt_sparse.Csr.t -> Tt_etree.Symbolic.t -> schedule:int array -> result
(** [run a sym ~schedule] factors the SPD matrix [a]. [schedule] is a
    bottom-up (children first) ordering of the columns, e.g. the reverse
    of a MinMemory traversal of the assembly tree.
    @raise Invalid_argument (["Factor.run: wrong schedule length"],
    ["...: bad schedule entry"] or ["...: child after parent"]) if the
    schedule is not a valid bottom-up order.
    @raise Failure if a pivot is non-positive (matrix not SPD). *)

val default_schedule : Tt_etree.Symbolic.t -> int array
(** A postorder of the elimination tree (the classic multifrontal
    stack order). *)

val solve : Tt_sparse.Csr.t -> float array -> float array
(** [solve l b] solves [L Lᵀ x = b] by forward and backward
    substitution. *)

val residual_norm : Tt_sparse.Csr.t -> Tt_sparse.Csr.t -> float
(** [residual_norm a l] is [max_ij |A - L Lᵀ|] — the factorization
    accuracy check used by the tests. *)

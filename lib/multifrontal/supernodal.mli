(** Supernodal multifrontal Cholesky: one frontal matrix per
    {e amalgamated} supernode, eliminating all its [η] columns at once.

    This is the numeric counterpart of the paper's assembly trees: the
    frontal matrix of a group [g] lives on
    [members g ∪ struct (head g)], whose size is exactly [η + µ - 1]
    (each member's column pattern nests into its parent's, so the union
    telescopes). Consequently the paper's weights are {e exact} for every
    amalgamation level:

    - front words [(η + µ - 1)² = n + f] with [n = η² + 2η(µ-1)],
    - contribution block words [(µ - 1)² = f],

    and the measured live memory of a supernodal factorization equals the
    amalgamated assembly tree's {!Tt_core.Traversal.peak} word for word —
    asserted in the tests. Relaxed amalgamation stores explicit zeros
    inside the union pattern, trading memory for denser kernels, exactly
    as in production multifrontal solvers. *)

type plan = {
  amal : Tt_etree.Amalgamation.t;  (** The supernode partition. *)
  rows : int array array;
      (** [rows.(g)]: sorted front indices of supernode [g] — its [η]
          members first, then [struct (head g)] minus the head. *)
  parent : int array;  (** Supernode tree ([-1] for roots). *)
}

val plan : Tt_etree.Symbolic.t -> Tt_etree.Amalgamation.t -> plan
(** Build the per-supernode front structures.
    @raise Invalid_argument if the amalgamation does not belong to the
    symbolic factorization (size mismatch). *)

val front_words : plan -> int -> int
(** [(η + µ - 1)²] for supernode [g] — equals
    [node_weight + edge_weight] of the group. *)

val default_schedule : plan -> int array
(** Postorder of the supernode tree. *)

val run : Tt_sparse.Csr.t -> Tt_etree.Symbolic.t -> plan -> schedule:int array -> Factor.result
(** Factor the SPD matrix with one front per supernode, following the
    bottom-up [schedule] (supernode indices, children first). The
    returned profile has one entry per supernode step.
    @raise Invalid_argument (["Supernodal.run: ..."], the messages of
    {!Factor.run}) on an invalid schedule.
    @raise Failure if a pivot is non-positive. *)

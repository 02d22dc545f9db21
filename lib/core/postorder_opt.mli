(** Best postorder traversal for MinMemory — Liu (1986), §IV-A of the
    paper.

    A postorder traversal (in the paper's top-down sense) executes a node
    and then processes each child subtree completely, one after the other.
    The peak of the subtree rooted at [i] for a given child order
    [c_1 .. c_m] is
    [max(MemReq i, max_k (P(c_k) + sum of f over c_j, j > k))], and the
    classical exchange argument shows the order minimizing it sorts the
    children by {e increasing} [P(c) - f(c)]. (The paper phrases the rule
    as "increasing memory requirement of the subtrees", which coincides
    when all files have equal size; the general keyed rule implemented
    here is validated against exhaustive enumeration in the tests.)

    Complexity: O(p log p). {!run} allocates three arrays of [p] words
    and nothing per node: one copy of the CSR [child] array whose
    per-node slices are sorted in place (by a transcription of
    [Array.sort], so equal keys fall as [Array.sort] leaves them), the
    peaks, and the order, which first holds the children-first
    processing order and then receives the traversal, emitted from an
    explicit stack kept in its own unused tail. *)

val subtree_peaks : Tree.t -> int array
(** [.(i)] is the minimal postorder peak of the subtree rooted at [i]
    (counting only memory attributable to that subtree). *)

val run : Tree.t -> int * int array
(** [run t] is [(memory, order)]: the minimum memory over all postorder
    traversals and a postorder traversal achieving it. *)

val best_memory : Tree.t -> int
(** First component of {!run}. *)

val peak_with_child_order : Tree.t -> (int -> int array) -> int
(** [peak_with_child_order t order_of] is the postorder peak when the
    children of each node [i] are processed in the order given by
    [order_of i] (a permutation of [Tree.children t i]). Used by the
    child-ordering ablation bench and by the exhaustive oracle. *)

val all_postorders : Tree.t -> int array list
(** Every postorder traversal (all child permutations at every node) —
    exponential, for oracle tests on tiny trees.
    @raise Invalid_argument if the tree has more than 9 nodes. *)

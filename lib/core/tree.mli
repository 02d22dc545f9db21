(** Tree-shaped workflows with file weights — the application model of
    Section III of the paper.

    A tree has [p] nodes numbered [0 .. p-1]. Following the paper we store
    it as an {e out-tree}: the root is executed first and every other node
    becomes ready when its parent has been executed. Node [i] carries

    - [f i] — the size of its {e input file}, produced by its parent
      (for the root: input from the outside world, possibly [0]);
    - [n i] — the size of its {e execution file}, the extra memory held
      only while [i] runs. [n i] may be negative: the model reductions of
      §III-C (pebble game with replacement, Liu's two-node model) encode
      their memory behaviour with negative execution files.

    The memory needed to execute [i] is
    [MemReq i = f i + n i + sum of f j over children j] (Equation (1)).

    The same data structure serves for {e in-trees} (multifrontal assembly
    trees, processed leaves-to-root): §III-C shows that reversing a valid
    in-tree traversal yields a valid out-tree traversal of the same tree
    and vice versa, with identical peak memory — see
    {!Transform.reverse_traversal}. *)

type t = private {
  parent : int array;  (** [parent.(i)] is [i]'s parent, [-1] for the root. *)
  child_off : int array;  (** CSR offsets, length [p + 1]. *)
  child : int array;
      (** CSR children, length [p - 1]: the children of [i] are
          [child.(child_off.(i)) .. child.(child_off.(i + 1) - 1)], in
          increasing index order. *)
  f : int array;  (** Input-file sizes [f_i >= 0]. *)
  n : int array;  (** Execution-file sizes [n_i], possibly negative. *)
  root : int;  (** The unique node with [parent = -1]. *)
}
(** A weighted rooted tree in compressed sparse row (CSR) layout: five
    flat arrays and no per-node block, so a tree of [p] nodes is about
    [5p] words, and every traversal below is iterative — chains of 10M
    nodes are safe. Values are created only through {!make},
    {!of_arrays} (or {!of_parents}), which validate the structure, so a
    [t] is always a well-formed tree. The arrays are never mutated after
    construction.

    Hot kernels loop over [child_off]/[child] directly; elsewhere
    {!degree}, {!iter_children} and {!children} read the same slices. *)

val make : parent:int array -> f:int array -> n:int array -> t
(** [make ~parent ~f ~n] copies the three arrays, then builds and
    validates a tree.
    @raise Invalid_argument if the arrays disagree in length, if there is
    not exactly one root, if the parent pointers contain a cycle or go out
    of range, or if some [f.(i) < 0]. *)

val of_arrays : parent:int array -> f:int array -> n:int array -> t
(** {!make} without the copies: the tree takes ownership of the three
    arrays, and the caller must not mutate them afterwards. At 10M nodes
    a defensive copy would double the footprint; the streaming huge-tree
    generators build through this.
    @raise Invalid_argument under the same conditions as {!make}, whose
    validation it shares. *)

val of_parents : int array -> t
(** Structure-only tree: all [f] and [n] set to [0]. *)

val size : t -> int
(** Number of nodes [p]. *)

val mem_req : t -> int -> int
(** [mem_req t i] is Equation (1):
    [f i + n i + sum of f j over children j]. *)

val max_mem_req : t -> int
(** [max_i mem_req t i] — the trivial lower bound on the memory needed by
    any traversal. *)

val sum_children_f : t -> int -> int
(** Total size of the output files of node [i]. *)

val total_f : t -> int
(** Sum of all input-file sizes (an upper bound on any reasonable peak
    when all [n] are 0). *)

val degree : t -> int -> int
(** Number of children of node [i]. *)

val is_leaf : t -> int -> bool
(** Whether node [i] has no children. *)

val children : t -> int -> int array
(** A fresh array of the children of node [i], in increasing index
    order. *)

val iter_children : t -> int -> (int -> unit) -> unit
(** [iter_children t i g] applies [g] to each child of [i], in increasing
    index order. *)

val depth : t -> int array
(** [depth t] gives each node's distance from the root (root = 0);
    breadth-first with a preallocated ring, O(p). *)

val bottom_up_order : t -> int array
(** All nodes ordered by decreasing depth (ascending index within one
    level), so children are always processed before their parent without
    recursion. Counting sort, O(p). *)

val height : t -> int
(** Longest root-to-leaf path length (in edges); 0 for a single node. *)

val subtree_sizes : t -> int array
(** [.(i)] is the number of nodes in the subtree rooted at [i]. *)

val map_weights : f:(int -> int) -> n:(int -> int) -> t -> t
(** New tree with the same shape, [f] and [n] rewritten pointwise from the
    node index. *)

val equal : t -> t -> bool
(** Structural equality of shape and weights. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering, one node per line with indentation. *)

val to_dot : ?label:(int -> string) -> t -> string
(** Graphviz rendering. The default label shows the node id and its
    weights; edges are annotated with the input-file sizes. *)

val to_string : t -> string
(** Compact single-line textual form, parseable by {!of_string}: the
    node count, then [" parent:f:n"] for each node in index order. It is
    the canonical encoding that content addresses (job ids, tree
    digests) hash, so its bytes are fixed across revisions. Written into
    one exact-size string, without [Printf]. *)

val of_string : string -> t
(** Parse the {!to_string} format.
    @raise Invalid_argument on malformed input. *)

val random : rng:Tt_util.Rng.t -> size:int -> max_f:int -> max_n:int -> t
(** Uniformly attach each node [i >= 1] to a random earlier node; weights
    [f] drawn from [1..max_f], [n] from [0..max_n]. The root gets [f] in
    [0..max_f]. Used pervasively by property tests. *)

val random_shape :
  rng:Tt_util.Rng.t -> size:int -> max_degree:int -> t
(** Random tree with bounded arity and zero weights, for shape-sensitive
    tests. *)

(** Undirected adjacency view of a sparse pattern (diagonal dropped).
    The shared substrate of every ordering. *)

type t = private {
  n : int;  (** Number of vertices. *)
  adj : int array array;
      (** Sorted neighbor lists, no self-loops, symmetric: [u] is in
          [v]'s list exactly when [v] is in [u]'s. *)
}

val of_pattern : Tt_sparse.Csr.t -> t
(** Build from a square matrix: [u] and [v] are neighbors when [(u, v)]
    or [(v, u)] is stored. Callers normally pass
    {!Tt_sparse.Csr.symmetrize_pattern}'s result, whose rows are used as
    they are after one O(nnz) symmetry check.
    @raise Invalid_argument if the matrix is not square. *)

val of_adjacency : int array array -> t
(** Build directly from neighbor lists (used for induced subgraphs).
    Lists are sorted and deduplicated, self-loops are dropped, and a
    one-sided edge is added to the other list too.
    @raise Invalid_argument if an index is out of range. *)

val degree : t -> int -> int
(** Number of neighbors. *)

val bfs_levels : t -> int -> int array
(** [bfs_levels g s] assigns each vertex its BFS distance from [s]
    ([-1] for unreachable vertices). *)

val components : t -> int array * int
(** [(comp, count)]: component id of every vertex and the number of
    connected components. *)

val pseudo_peripheral : t -> int -> int
(** A vertex approximately maximizing eccentricity in the component of
    the given seed (iterated last-level BFS, George–Liu style). *)

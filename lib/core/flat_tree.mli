(** Huge-tree names kept for benchmark code outside the library.

    {!Tree.t} is itself the CSR tree, so a flat tree {e is} a
    {!Tree.t}: huge instances are built without copies by
    {!Tree.of_arrays}, and {!Liu_exact}, {!Postorder_opt} and
    {!Traversal} run on them directly. What is left here is the alias,
    the identity conversion and {!peak} that the benchmark still calls,
    and the chunked digests that summarize multi-million-entry
    arrays. *)

type t = Tree.t

val of_tree : Tree.t -> t
(** The identity. *)

val peak : t -> int array -> int
(** {!Traversal.peak}. *)

val digest : t -> string
(** Hex digest of the complete structure and weights, computed over
    fixed-size chunks so no O(p)-byte intermediate string is built. Two
    trees digest equal iff parents, weights and root agree — the anchor
    of the generator-determinism tests. *)

val digest_ints : int array -> string
(** Chunked hex digest of an int array — used to summarize multi-million
    entry traversal orders in benchmark payloads without serializing
    them. *)

(** Streaming seeded generators for huge instances (p up to 10⁷ and
    beyond) — the feed of the [huge/*] benchmark family.

    Unlike {!Tt_core.Instances}, these generators write straight into
    the parent/weight arrays that {!Tt_core.Tree.of_arrays} then takes
    over without copying — no intermediate lists, no per-node
    allocation, O(p) time and exactly the final tree's memory.

    {b Determinism.} Generation is chunked: the nodes are split into
    fixed 64k-index chunks and each chunk draws from its own
    {!Tt_util.Rng} seeded by [(seed, chunk index)]. Tree {e shape} is a
    pure function of the node index. Consequently the generated tree —
    and hence {!Tt_core.Flat_tree.digest} — depends only on [(family, p,
    seed)]: the same instance is produced run after run and whether the
    chunks are filled by 1 or N domains ([?domains]), which is asserted
    by the determinism tests. *)

val caterpillar : ?domains:int -> p:int -> seed:int -> unit -> Tt_core.Tree.t
(** Deep caterpillar: a spine every third index (so depth ≈ p/3 — at
    p = 10M the tree is ~3.3M levels deep, the stack-safety stress
    shape), each spine node carrying two leaves. Weights [f ∈ 1..64],
    [n ∈ 0..8] drawn per chunk. *)

val binary : ?domains:int -> p:int -> seed:int -> unit -> Tt_core.Tree.t
(** Complete binary shape [parent.(i) = (i-1)/2] (depth ≈ log₂ p) with
    the same chunk-seeded weights — the wide/shallow counterpart. *)

val random_attach : ?domains:int -> p:int -> seed:int -> unit -> Tt_core.Tree.t
(** Uniform random attachment: node [i]'s parent is drawn uniformly from
    [0..i-1] using the chunk generator, giving log-depth trees with
    heavy-tailed degrees. Same chunk-seeded weights. *)

(** Minimum-degree ordering on the quotient (elimination) graph — the
    stand-in for the paper's [amd].

    The contract is one pivot rule: each step eliminates the variable of
    least {e exact} degree, its number of neighbors in the elimination
    graph (the graph left after eliminating the earlier pivots, where
    each pivot's neighbors become a clique), ties to the smaller vertex
    id. The rule fixes the permutation, so any implementation that keeps
    degrees exact returns the same one.

    When an eliminated pivot's degree is the number of variables left
    minus one, the rest is a clique: every remaining variable has that
    degree, each elimination leaves a smaller clique, and the rule takes
    the rest in ascending id order. The ordering stops there.

    Two exact reductions make it fast without changing a permutation.
    Variable and element lists live in flat arrays and are pruned in
    place. Twins (variables with the same closed neighborhood) are
    merged into supervariables and eliminated together, in ascending id
    order, as the rule would take them one at a time. Aggressive element
    absorption was not adopted: it did not make the [pipeline/mindeg]
    rows of [treetrav perf] faster. Approximate degrees (AMD) would
    change the permutations. *)

val order : Graph_adj.t -> int array
(** [order g] is the elimination permutation,
    [perm.(new_index) = old_index]. Extra space is O(n + nnz) words. *)

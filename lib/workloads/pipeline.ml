type ordering = Natural | Rcm | Min_degree | Nested_dissection

let ordering_name = function
  | Natural -> "natural"
  | Rcm -> "rcm"
  | Min_degree -> "mindeg"
  | Nested_dissection -> "nd"

let all_orderings = [ Rcm; Min_degree; Nested_dissection ]

let permutation_of ordering pattern =
  match ordering with
  | Natural -> Tt_ordering.Permute.identity pattern.Tt_sparse.Csr.nrows
  | Rcm -> Tt_ordering.Rcm.order (Tt_ordering.Graph_adj.of_pattern pattern)
  | Min_degree -> Tt_ordering.Min_degree.order (Tt_ordering.Graph_adj.of_pattern pattern)
  | Nested_dissection ->
      Tt_ordering.Nested_dissection.order (Tt_ordering.Graph_adj.of_pattern pattern)

let assembly_tree ?(ordering = Min_degree) ?(amalgamation = 4) a =
  let pattern = Tt_sparse.Csr.symmetrize_pattern a in
  let perm = permutation_of ordering pattern in
  let b = Tt_ordering.Permute.apply pattern perm in
  let parent = Tt_etree.Elimination_tree.parents b in
  let col_counts = Tt_etree.Col_counts.counts b ~parent in
  let am = Tt_etree.Amalgamation.run ~parent ~col_counts ~limit:amalgamation in
  Tt_etree.Assembly.of_amalgamation am

let stats (asm : Tt_etree.Assembly.t) =
  let tree = asm.Tt_etree.Assembly.tree in
  let p = Tt_core.Tree.size tree in
  let height = Tt_core.Tree.height tree in
  let maxdeg =
    let best = ref 0 in
    for i = 0 to p - 1 do
      best := max !best (Tt_core.Tree.degree tree i)
    done;
    !best
  in
  Printf.sprintf "p=%d height=%d maxdeg=%d total_f=%d maxreq=%d" p height maxdeg
    (Tt_core.Tree.total_f tree)
    (Tt_core.Tree.max_mem_req tree)

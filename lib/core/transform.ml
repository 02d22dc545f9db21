let reverse_traversal order =
  let p = Array.length order in
  Array.init p (fun k -> order.(p - 1 - k))

let is_valid_in_tree_order t order =
  Traversal.is_valid_order t (reverse_traversal order)

(* Shared bottom-up simulation: [usage i pending_sum] gives the memory
   while executing [i] when the completed-but-unconsumed subtrees other
   than i's children hold [pending_sum]. *)
let in_tree_simulate t order usage =
  let p = Tree.size t in
  if Array.length order <> p then invalid_arg "Transform: wrong order length";
  let done_ = Array.make p false in
  (* pending = sum of contribution of completed subtrees whose parent has
     not yet executed *)
  let pending = ref 0 in
  let peak = ref min_int in
  Array.iter
    (fun i ->
      if i < 0 || i >= p || done_.(i) then invalid_arg "Transform: invalid order";
      Tree.iter_children t i (fun c ->
          if not done_.(c) then invalid_arg "Transform: child after parent");
      let children_contribution = Tree.sum_children_f t i in
      let u = usage i (!pending - children_contribution) in
      if u > !peak then peak := u;
      done_.(i) <- true;
      pending := !pending - children_contribution + t.Tree.f.(i))
    order;
  !peak

let in_tree_peak t order =
  in_tree_simulate t order (fun i other -> other + Tree.mem_req t i)

let min_memory_in_tree t =
  let mem, order = Liu_exact.run t in
  (mem, reverse_traversal order)

let of_replacement_model ~parent ~f =
  let skeleton = Tree.make ~parent ~f ~n:(Array.make (Array.length parent) 0) in
  let n =
    Array.init (Array.length parent) (fun i ->
        -min f.(i) (Tree.sum_children_f skeleton i))
  in
  Tree.make ~parent ~f ~n

let replacement_peak ~parent ~f ~order =
  let t = Tree.make ~parent ~f ~n:(Array.make (Array.length parent) 0) in
  let p = Tree.size t in
  if not (Traversal.is_valid_order t order) then
    invalid_arg "Transform.replacement_peak: invalid order";
  (* top-down simulation with in-place replacement semantics *)
  let ready = Array.make p false in
  ready.(t.Tree.root) <- true;
  let ready_f = ref f.(t.Tree.root) in
  let peak = ref min_int in
  Array.iter
    (fun i ->
      let out = Tree.sum_children_f t i in
      let u = !ready_f - f.(i) + max f.(i) out in
      if u > !peak then peak := u;
      ready.(i) <- false;
      ready_f := !ready_f - f.(i) + out;
      Tree.iter_children t i (fun c -> ready.(c) <- true))
    order;
  !peak

let of_liu_model ~parent ~n_plus ~n_minus =
  Array.iter
    (fun x -> if x < 0 then invalid_arg "Transform.of_liu_model: negative n_minus")
    n_minus;
  let skeleton =
    Tree.make ~parent ~f:n_minus ~n:(Array.make (Array.length parent) 0)
  in
  let n =
    Array.init (Array.length parent) (fun i ->
        n_plus.(i) - n_minus.(i) - Tree.sum_children_f skeleton i)
  in
  Tree.make ~parent ~f:n_minus ~n

let liu_model_peak ~parent ~n_plus ~n_minus ~order =
  let t = of_liu_model ~parent ~n_plus ~n_minus in
  in_tree_simulate t order (fun i other -> other + n_plus.(i))

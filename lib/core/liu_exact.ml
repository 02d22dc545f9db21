(* Compute the canonical profile of every subtree, bottom-up. When
   [release] is set, children profiles are dropped as soon as their parent
   is combined, keeping live memory proportional to the tree's width. *)
let compute ~release t =
  let p = Tree.size t in
  let { Tree.child_off; child; _ } = t in
  let prof : Segments.t array = Array.make p Segments.empty in
  Array.iter
    (fun i ->
      let off = child_off.(i) in
      let deg = child_off.(i + 1) - off in
      let merged =
        Segments.merge_array (Array.init deg (fun k -> prof.(child.(off + k))))
      in
      (* executing i (in-tree direction): all children files are live, the
         execution and output files are allocated, then the children files
         are freed, leaving f i *)
      prof.(i) <-
        Segments.append_parent merged ~hill:(Tree.mem_req t i) ~valley:t.Tree.f.(i)
          ~node:i;
      if release then
        for k = off to off + deg - 1 do
          prof.(child.(k)) <- Segments.empty
        done)
    (Tree.bottom_up_order t);
  prof

let profiles t = compute ~release:false t

let run t =
  let p = Tree.size t in
  let prof = compute ~release:true t in
  let root_profile = prof.(t.Tree.root) in
  (* the profile lists nodes in the in-tree direction; the traversal
     wants root-first — fill the array backwards during the walk *)
  let order = Array.make p 0 in
  let k = ref p in
  Segments.iter_nodes root_profile (fun i ->
      decr k;
      order.(!k) <- i);
  (Segments.peak root_profile, order)

let min_memory t = fst (run t)

(* Children are sorted by increasing P(c) - f(c): the child processed
   first suffers the largest pending-sibling sum, so it must be the one
   whose peak exceeds its own file the least. (This is the reversal of
   Liu's decreasing rule for bottom-up in-trees.)

   [sort_slice] is Stdlib's [Array.sort] (a ternary heap sort, not
   stable) transcribed onto the slice [a.(off) .. a.(off + len - 1)]
   with that comparator built in: equal keys end in exactly the order
   [Array.sort] leaves them in. Its helpers are top-level and [maxson]
   returns [-1] where Stdlib raises [Bottom], so a sort allocates
   nothing. *)
let[@inline] cmp peaks f x y = Int.compare (peaks.(x) - f.(x)) (peaks.(y) - f.(y))

let maxson peaks f a off l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if cmp peaks f a.(off + i31) a.(off + i31 + 1) < 0 then i31 + 1 else i31 in
    if cmp peaks f a.(off + x) a.(off + i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && cmp peaks f a.(off + i31) a.(off + i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickle peaks f a off l i e =
  let j = maxson peaks f a off l i in
  if j >= 0 && cmp peaks f a.(off + j) e > 0 then begin
    a.(off + i) <- a.(off + j);
    trickle peaks f a off l j e
  end
  else a.(off + i) <- e

let rec bubble peaks f a off l i =
  let j = maxson peaks f a off l i in
  if j < 0 then i
  else begin
    a.(off + i) <- a.(off + j);
    bubble peaks f a off l j
  end

let rec trickleup peaks f a off i e =
  let father = (i - 1) / 3 in
  if cmp peaks f a.(off + father) e < 0 then begin
    a.(off + i) <- a.(off + father);
    if father > 0 then trickleup peaks f a off father e else a.(off) <- e
  end
  else a.(off + i) <- e

let sort_slice peaks f a off l =
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle peaks f a off l i a.(off + i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(off + i) in
    a.(off + i) <- a.(off);
    trickleup peaks f a off (bubble peaks f a off i 0) e
  done;
  if l > 1 then begin
    let e = a.(off + 1) in
    a.(off + 1) <- a.(off);
    a.(off) <- e
  end

let peaks_with t order_of =
  let p = Tree.size t in
  let peaks = Array.make p 0 in
  Array.iter
    (fun i ->
      let cs = order_of i in
      (* pending = sum of f over children not yet processed; [cs] is a
         permutation of the children, so the initial best is MemReq i *)
      let pending = ref (Array.fold_left (fun acc c -> acc + t.Tree.f.(c)) 0 cs) in
      let best = ref (t.Tree.f.(i) + t.Tree.n.(i) + !pending) in
      Array.iter
        (fun c ->
          pending := !pending - t.Tree.f.(c);
          let v = peaks.(c) + !pending in
          if v > !best then best := v)
        cs;
      peaks.(i) <- !best)
    (Tree.bottom_up_order t);
  peaks

(* The optimal subtree peaks, children before parents along [order]:
   each node's slice of one copy of [child] is sorted in place once its
   children's peaks are known, and the sorted copy is returned for the
   emission. *)
let subtree_peaks_sorted t order =
  let { Tree.child_off; f; n; _ } = t in
  let peaks = Array.make (Tree.size t) 0 in
  let cs = Array.copy t.Tree.child in
  Array.iter
    (fun i ->
      let off = child_off.(i) and hi = child_off.(i + 1) in
      sort_slice peaks f cs off (hi - off);
      let pending = ref 0 in
      for k = off to hi - 1 do
        pending := !pending + f.(cs.(k))
      done;
      let best = ref (f.(i) + n.(i) + !pending) in
      for k = off to hi - 1 do
        let c = cs.(k) in
        pending := !pending - f.(c);
        let v = peaks.(c) + !pending in
        if v > !best then best := v
      done;
      peaks.(i) <- !best)
    order;
  (peaks, cs)

let subtree_peaks t = fst (subtree_peaks_sorted t (Tree.children_first_order t))

let run t =
  let p = Tree.size t in
  let { Tree.child_off; _ } = t in
  let order = Tree.children_first_order t in
  let peaks, cs = subtree_peaks_sorted t order in
  (* [order] is free again: emit the preorder into it, each node's
     children in sorted order. The explicit stack (deep chains) lives in
     its tail: a node is either emitted, in order.(0 .. k-1), or waiting,
     in order.(s .. p-1), never both, so k <= s throughout. *)
  let k = ref 0 and s = ref (p - 1) in
  order.(p - 1) <- t.Tree.root;
  while !s < p do
    let i = order.(!s) in
    incr s;
    order.(!k) <- i;
    incr k;
    (* children must be popped in sorted order: push in reverse *)
    for j = child_off.(i + 1) - 1 downto child_off.(i) do
      decr s;
      order.(!s) <- cs.(j)
    done
  done;
  (peaks.(t.Tree.root), order)

let best_memory t = fst (run t)

let peak_with_child_order t order_of =
  let peaks = peaks_with t order_of in
  peaks.(t.Tree.root)

let all_postorders t =
  let p = Tree.size t in
  if p > 9 then invalid_arg "Postorder_opt.all_postorders: tree too large";
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y <> x) l in
            List.map (fun perm -> x :: perm) (permutations rest))
          l
  in
  (* all traversals of the subtree rooted at i, each as a node list *)
  let rec subtree i =
    let cs = Array.to_list (Tree.children t i) in
    let child_seqs = List.map subtree cs in
    (* for each permutation of children, all combinations of their
       sub-traversals *)
    let perms = permutations (List.mapi (fun idx c -> (idx, c)) cs) in
    List.concat_map
      (fun perm ->
        let rec combine = function
          | [] -> [ [] ]
          | (idx, _) :: rest ->
              let seqs = List.nth child_seqs idx in
              List.concat_map
                (fun tail -> List.map (fun s -> s @ tail) seqs)
                (combine rest)
        in
        List.map (fun body -> i :: body) (combine perm))
      perms
  in
  List.map Array.of_list (subtree t.Tree.root)

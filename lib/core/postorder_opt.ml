(* Children of [i] sorted by increasing P(c) - f(c): the child processed
   first suffers the largest pending-sibling sum, so it must be the one
   whose peak exceeds its own file the least. (This is the reversal of
   Liu's decreasing rule for bottom-up in-trees.) *)
let sorted_children t peaks i =
  let cs = Tree.children t i in
  Array.sort
    (fun a b -> Int.compare (peaks.(a) - t.Tree.f.(a)) (peaks.(b) - t.Tree.f.(b)))
    cs;
  cs

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

(* Bottom-up computation of the optimal subtree peaks: the children must
   be sorted with the peaks computed so far, so the array is filled in
   place (children strictly before parents). The sorted children arrays
   are kept so that traversal emission reuses them instead of sorting
   every child list a second time. *)
let subtree_peaks_sorted t =
  let p = Tree.size t in
  let peaks = Array.make p 0 in
  let sorted = Array.make p [||] in
  Array.iter
    (fun i ->
      let cs = sorted_children t peaks i in
      sorted.(i) <- cs;
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
  (peaks, sorted)

let subtree_peaks t = fst (subtree_peaks_sorted t)

let run t =
  let p = Tree.size t in
  let peaks, sorted = subtree_peaks_sorted t in
  (* emit the traversal: explicit stack to survive deep chains *)
  let order = Array.make p (-1) in
  let k = ref 0 in
  let stack = ref [ t.Tree.root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        order.(!k) <- i;
        incr k;
        let cs = sorted.(i) in
        (* children must be popped in sorted order: push in reverse *)
        for j = Array.length cs - 1 downto 0 do
          stack := cs.(j) :: !stack
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

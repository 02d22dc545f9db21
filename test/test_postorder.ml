(* Tests for the best-postorder algorithm (Liu 1986). The key oracle is
   exhaustive enumeration of every postorder on small random trees. *)

module T = Tt_core.Tree
module Tr = Tt_core.Traversal
module PO = Tt_core.Postorder_opt
module H = Helpers

let is_postorder t order =
  (* every subtree occupies a contiguous slice of the order *)
  let pos = Array.make (T.size t) 0 in
  Array.iteri (fun step i -> pos.(i) <- step) order;
  let sz = T.subtree_sizes t in
  let ok = ref true in
  for i = 0 to T.size t - 1 do
    (* all descendants of i must be within (pos i, pos i + size i) *)
    let lo = pos.(i) and hi = pos.(i) + sz.(i) - 1 in
    T.iter_children t i (fun c -> if pos.(c) <= lo || pos.(c) > hi then ok := false)
  done;
  !ok

let prop_result_is_postorder =
  H.qcheck "run returns a valid postorder traversal" (H.arb_tree ~size_max:25 ())
    (fun t ->
      let _, order = PO.run t in
      Tr.is_valid_order t order && is_postorder t order)

let prop_claimed_peak_matches =
  H.qcheck "claimed memory equals the traversal's peak" (H.arb_tree ~size_max:25 ())
    (fun t ->
      let mem, order = PO.run t in
      Tr.peak t order = mem)

let prop_optimal_among_postorders =
  H.qcheck ~count:300 "optimal among all postorders (exhaustive oracle)"
    (H.arb_tree ~size_max:7 ~max_f:9 ~max_n:5 ()) (fun t ->
      let mem, _ = PO.run t in
      let best =
        List.fold_left
          (fun acc o -> min acc (Tr.peak t o))
          max_int (PO.all_postorders t)
      in
      mem = best)

let prop_subtree_peaks_root =
  H.qcheck "subtree_peaks at root = best postorder memory" (H.arb_tree ())
    (fun t -> (PO.subtree_peaks t).(t.T.root) = PO.best_memory t)

let prop_keyed_rule_beats_natural =
  H.qcheck "the keyed child order never loses to the natural order"
    (H.arb_tree ~size_max:20 ()) (fun t ->
      PO.best_memory t <= PO.peak_with_child_order t (T.children t))

let prop_peak_with_child_order_consistent =
  H.qcheck "peak_with_child_order on natural order equals simulated postorder"
    (H.arb_tree ~size_max:15 ()) (fun t ->
      (* emit the natural-order postorder traversal and simulate it *)
      let order = Array.make (T.size t) (-1) in
      let k = ref 0 in
      let rec emit i =
        order.(!k) <- i;
        incr k;
        T.iter_children t i emit
      in
      emit t.T.root;
      PO.peak_with_child_order t (T.children t) = Tr.peak t order)

let test_harpoon_formula () =
  (* the closed form from the proof of Theorem 1 *)
  List.iter
    (fun (b, m, eps) ->
      let t = Tt_core.Instances.harpoon ~branches:b ~m ~eps in
      Alcotest.(check int)
        (Printf.sprintf "harpoon b=%d" b)
        (m + eps + ((b - 1) * (m / b)))
        (PO.best_memory t))
    [ (2, 100, 1); (3, 300, 1); (4, 400, 2); (5, 1000, 3) ]

let test_chain_postorder () =
  (* a chain has a single traversal; peak = max consecutive pair + n *)
  let t = Tt_core.Instances.chain ~length:6 ~f:5 ~n:2 in
  Alcotest.(check int) "chain peak" 12 (PO.best_memory t);
  let t' = Tt_core.Instances.chain ~length:2 ~f:3 ~n:0 in
  Alcotest.(check int) "2-chain peak" 6 (PO.best_memory t')

let test_star_postorder () =
  (* star: root executes with all leaves in memory: f_root + n + b*f_leaf,
     then leaves are consumed one by one *)
  let t = Tt_core.Instances.star ~branches:4 ~f_root:2 ~f_leaf:3 ~n:1 in
  Alcotest.(check int) "star peak" (2 + 1 + 12) (PO.best_memory t)

let test_all_postorders_guard () =
  let big = Tt_core.Instances.star ~branches:10 ~f_root:1 ~f_leaf:1 ~n:0 in
  Alcotest.check_raises "guard"
    (Invalid_argument "Postorder_opt.all_postorders: tree too large") (fun () ->
      ignore (PO.all_postorders big))

let test_all_postorders_star_count () =
  let t = Tt_core.Instances.star ~branches:4 ~f_root:1 ~f_leaf:1 ~n:0 in
  Alcotest.(check int) "4! postorders" 24 (List.length (PO.all_postorders t))

let () =
  H.run "postorder"
    [ ( "structure",
        [ prop_result_is_postorder;
          prop_claimed_peak_matches;
          H.case "all_postorders guard" test_all_postorders_guard;
          H.case "star enumeration count" test_all_postorders_star_count
        ] );
      ( "optimality",
        [ prop_optimal_among_postorders;
          prop_subtree_peaks_root;
          prop_keyed_rule_beats_natural;
          prop_peak_with_child_order_consistent
        ] );
      ( "closed forms",
        [ H.case "harpoon" test_harpoon_formula;
          H.case "chain" test_chain_postorder;
          H.case "star" test_star_postorder
        ] )
    ]

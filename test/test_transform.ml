(* Tests for the §III-C model variants: in/out-tree duality, the pebble
   game with replacement, and Liu's two-node model. *)

module T = Tt_core.Tree
module Tr = Tt_core.Traversal
module X = Tt_core.Transform
module H = Helpers

let prop_reverse_involution =
  H.qcheck "reversal is an involution" (H.arb_tree_with_order ())
    (fun (_, order) -> X.reverse_traversal (X.reverse_traversal order) = order)

let prop_duality_validity =
  H.qcheck "reversal maps out-tree orders to in-tree orders and back"
    (H.arb_tree_with_order ()) (fun (t, order) ->
      let rev = X.reverse_traversal order in
      X.is_valid_in_tree_order t rev
      && Tr.is_valid_order t (X.reverse_traversal rev))

let prop_duality_peak =
  H.qcheck ~count:400 "in-tree peak of sigma = out-tree peak of reversed sigma"
    (H.arb_tree_with_order ()) (fun (t, order) ->
      let rev = X.reverse_traversal order in
      X.in_tree_peak t rev = Tr.peak t order)

let prop_min_memory_in_tree =
  H.qcheck "min_memory_in_tree returns a valid optimal bottom-up traversal"
    (H.arb_tree ~size_max:14 ()) (fun t ->
      let mem, order = X.min_memory_in_tree t in
      X.is_valid_in_tree_order t order
      && X.in_tree_peak t order = mem
      && mem = Tt_core.Minmem.min_memory t)

(* ----------------------------------------------- replacement model (Fig 1) *)

(* random structure + files for the replacement model *)
let arb_replacement =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Tt_util.Rng.create seed in
        let t = H.random_tree ~rng ~size_max:12 ~max_f:9 ~max_n:0 in
        let order = Tr.random_order ~rng t in
        (t.T.parent, t.T.f, order))
      (QCheck.Gen.int_bound 1_000_000)
  in
  QCheck.make gen

let prop_replacement_simulation =
  H.qcheck ~count:300 "Fig. 1 reduction preserves every traversal's peak"
    arb_replacement (fun (parent, f, order) ->
      let t' = X.of_replacement_model ~parent ~f in
      Tr.peak t' order = X.replacement_peak ~parent ~f ~order)

let test_replacement_figure1 () =
  (* the example of Figure 1: E with children {G, H}; the node with two
     children of sizes 1 and 2 gets n = -min(f, 3) *)
  let parent = [| -1; 0; 0 |] in
  let f = [| 2; 1; 2 |] in
  let t = X.of_replacement_model ~parent ~f in
  Alcotest.(check int) "root n" (-2) t.T.n.(0);
  Alcotest.(check int) "leaf n" 0 t.T.n.(1);
  (* peak: max(f_root, sum children) = 3, leaves then hold 3 *)
  Alcotest.(check int) "peak" 3 (Tr.peak t [| 0; 1; 2 |])

let prop_replacement_optimum_reachable =
  H.qcheck ~count:100 "optimum of the reduced instance matches the oracle"
    arb_replacement (fun (parent, f, _) ->
      let t' = X.of_replacement_model ~parent ~f in
      QCheck.assume (T.size t' <= 10);
      Tt_core.Liu_exact.min_memory t' = Tt_core.Brute_force.min_memory t')

(* ---------------------------------------------------- Liu's model (Fig 2) *)

let arb_liu_model =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Tt_util.Rng.create seed in
        let t = H.random_tree ~rng ~size_max:10 ~max_f:1 ~max_n:0 in
        let p = T.size t in
        (* n_minus: storage after processing; n_plus must cover the
           children's storage plus the node's own *)
        let n_minus = Array.init p (fun _ -> Tt_util.Rng.int_incl rng 0 8) in
        let n_plus =
          Array.init p (fun i ->
              let child_sum =
                Array.fold_left (fun acc c -> acc + n_minus.(c)) 0 (T.children t i)
              in
              n_minus.(i) + child_sum + Tt_util.Rng.int_incl rng 0 5)
        in
        let order = X.reverse_traversal (Tr.random_order ~rng t) in
        (t.T.parent, n_plus, n_minus, order))
      (QCheck.Gen.int_bound 1_000_000)
  in
  QCheck.make gen

let prop_liu_model_simulation =
  H.qcheck ~count:300 "Fig. 2 reduction preserves every bottom-up peak"
    arb_liu_model (fun (parent, n_plus, n_minus, order) ->
      let t = X.of_liu_model ~parent ~n_plus ~n_minus in
      X.in_tree_peak t order = X.liu_model_peak ~parent ~n_plus ~n_minus ~order)

let test_liu_model_figure2 () =
  (* one column with one child: f = n_minus, n = n_plus - n_minus - child *)
  let parent = [| -1; 0 |] in
  let n_plus = [| 9; 5 |] and n_minus = [| 3; 2 |] in
  let t = X.of_liu_model ~parent ~n_plus ~n_minus in
  Alcotest.(check (array int)) "f = n_minus" [| 3; 2 |] t.T.f;
  Alcotest.(check int) "root n" (9 - 3 - 2) t.T.n.(0);
  Alcotest.(check int) "leaf n" (5 - 2) t.T.n.(1);
  (* bottom-up: exec 1: n_plus(1) = 5; exec 0: n_plus(0) = 9 *)
  Alcotest.(check int) "peak" 9
    (X.liu_model_peak ~parent ~n_plus ~n_minus ~order:[| 1; 0 |])

let test_liu_model_validation () =
  Alcotest.check_raises "negative n_minus"
    (Invalid_argument "Transform.of_liu_model: negative n_minus") (fun () ->
      ignore (X.of_liu_model ~parent:[| -1 |] ~n_plus:[| 1 |] ~n_minus:[| -1 |]))

let prop_exact_algorithms_handle_negative_n =
  H.qcheck ~count:150 "liu = minmem = oracle on reduced (negative-n) instances"
    arb_replacement (fun (parent, f, _) ->
      let t = X.of_replacement_model ~parent ~f in
      QCheck.assume (T.size t <= 10);
      let liu = Tt_core.Liu_exact.min_memory t in
      liu = Tt_core.Minmem.min_memory t
      && liu = Tt_core.Brute_force.min_memory t)

let () =
  H.run "transform"
    [ ( "duality",
        [ prop_reverse_involution;
          prop_duality_validity;
          prop_duality_peak;
          prop_min_memory_in_tree
        ] );
      ( "replacement model",
        [ H.case "figure 1" test_replacement_figure1;
          prop_replacement_simulation;
          prop_replacement_optimum_reachable
        ] );
      ( "liu model",
        [ H.case "figure 2" test_liu_model_figure2;
          H.case "validation" test_liu_model_validation;
          prop_liu_model_simulation;
          prop_exact_algorithms_handle_negative_n
        ] )
    ]

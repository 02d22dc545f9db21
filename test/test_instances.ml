(* Tests for the instance constructions. *)

module T = Tt_core.Tree
module H = Helpers

let test_chain () =
  let t = Tt_core.Instances.chain ~length:4 ~f:2 ~n:1 in
  Alcotest.(check int) "size" 4 (T.size t);
  Alcotest.(check int) "height" 3 (T.height t);
  Alcotest.(check (array int)) "parents" [| -1; 0; 1; 2 |] t.T.parent;
  Alcotest.check_raises "length 0" (Invalid_argument "Instances.chain: length < 1")
    (fun () -> ignore (Tt_core.Instances.chain ~length:0 ~f:1 ~n:0))

let test_star () =
  let t = Tt_core.Instances.star ~branches:5 ~f_root:7 ~f_leaf:2 ~n:3 in
  Alcotest.(check int) "size" 6 (T.size t);
  Alcotest.(check int) "root f" 7 t.T.f.(0);
  Alcotest.(check int) "leaf f" 2 t.T.f.(3);
  Alcotest.(check int) "degree" 5 (T.degree t 0)

let test_caterpillar () =
  let t = Tt_core.Instances.caterpillar ~length:3 ~leaves_per_node:2 ~f:1 ~n:0 in
  Alcotest.(check int) "size" 9 (T.size t);
  Alcotest.(check int) "height" 3 (T.height t)

let test_complete_binary () =
  let t = Tt_core.Instances.complete_binary ~levels:4 ~f:1 ~n:0 in
  Alcotest.(check int) "size" 15 (T.size t);
  Alcotest.(check int) "height" 3 (T.height t);
  for i = 0 to T.size t - 1 do
    let d = T.degree t i in
    if d <> 0 && d <> 2 then Alcotest.failf "node %d has degree %d" i d
  done

let test_harpoon_structure () =
  let b = 3 in
  let t = Tt_core.Instances.harpoon ~branches:b ~m:30 ~eps:1 in
  Alcotest.(check int) "size 1 + 3b" (1 + (3 * b)) (T.size t);
  Alcotest.(check int) "root degree" b (T.degree t 0);
  (* each branch is M/b, eps, M from the root down *)
  Array.iter
    (fun a ->
      Alcotest.(check int) "a file" 10 t.T.f.(a);
      let bb = (T.children t a).(0) in
      Alcotest.(check int) "b file" 1 t.T.f.(bb);
      let c = (T.children t bb).(0) in
      Alcotest.(check int) "c file" 30 t.T.f.(c);
      Alcotest.(check bool) "c leaf" true (T.is_leaf t c))
    (T.children t 0)

let test_harpoon_nested_size () =
  (* p(L) = 1 + b(2 + p'(L-1)) with p'(1) = 3b counted without its root *)
  let size b l =
    T.size (Tt_core.Instances.harpoon_nested ~branches:b ~levels:l ~m:(10 * b) ~eps:1)
  in
  Alcotest.(check int) "b=2 L=1" 7 (size 2 1);
  Alcotest.(check int) "b=2 L=2" (1 + (2 * (2 + 1 + 6))) (size 2 2);
  Alcotest.(check int) "b=3 L=1" 10 (size 3 1)

let test_harpoon_validation () =
  Alcotest.check_raises "branches" (Invalid_argument "Instances.harpoon_nested: branches < 1")
    (fun () -> ignore (Tt_core.Instances.harpoon ~branches:0 ~m:10 ~eps:1));
  Alcotest.check_raises "levels" (Invalid_argument "Instances.harpoon_nested: levels < 1")
    (fun () -> ignore (Tt_core.Instances.harpoon_nested ~branches:2 ~levels:0 ~m:10 ~eps:1));
  Alcotest.check_raises "m too small" (Invalid_argument "Instances.harpoon_nested: m < branches")
    (fun () -> ignore (Tt_core.Instances.harpoon ~branches:5 ~m:3 ~eps:1));
  Alcotest.check_raises "eps" (Invalid_argument "Instances.harpoon_nested: eps < 0")
    (fun () -> ignore (Tt_core.Instances.harpoon ~branches:2 ~m:10 ~eps:(-1)))

let test_theorem1_monotone_in_m () =
  let r m = Tt_core.Instances.theorem1_ratio ~branches:3 ~levels:2 ~m ~eps:1 in
  Alcotest.(check bool) "larger M, larger ratio" true (r 300 > r 30)

let test_gadget_weights () =
  let a = [| 2; 1; 1 |] in
  let tree, memory, _ = Tt_core.Instances.two_partition_gadget a in
  let s = 4 in
  (* root f = 0; T_i files a_i; Tout_i files S; T_big file S; Tout_big S/2 *)
  Alcotest.(check int) "root f" 0 tree.T.f.(tree.T.root);
  Alcotest.(check int) "memory" (2 * s) memory;
  let leaves = ref 0 and big = ref 0 in
  Array.iteri
    (fun i fi ->
      if T.is_leaf tree i then begin
        incr leaves;
        if fi = s / 2 then incr big
      end)
    tree.T.f;
  Alcotest.(check int) "n + 1 leaves" 4 !leaves;
  Alcotest.(check int) "one S/2 leaf" 1 !big;
  Alcotest.check_raises "nonpositive a"
    (Invalid_argument "Instances.two_partition_gadget: a_i <= 0") (fun () ->
      ignore (Tt_core.Instances.two_partition_gadget [| 2; 0 |]))

let () =
  H.run "instances"
    [ ( "generic shapes",
        [ H.case "chain" test_chain;
          H.case "star" test_star;
          H.case "caterpillar" test_caterpillar;
          H.case "complete binary" test_complete_binary
        ] );
      ( "harpoons",
        [ H.case "structure" test_harpoon_structure;
          H.case "nested size" test_harpoon_nested_size;
          H.case "validation" test_harpoon_validation;
          H.case "ratio monotone in M" test_theorem1_monotone_in_m
        ] );
      ("gadget", [ H.case "weights" test_gadget_weights ])
    ]

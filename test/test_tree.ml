(* Tests for the tree workflow model (Tt_core.Tree). *)

module T = Tt_core.Tree
module H = Helpers

let tiny () =
  (* 0 -> {1, 2}, 2 -> 3 *)
  T.make ~parent:[| -1; 0; 0; 2 |] ~f:[| 5; 2; 3; 4 |] ~n:[| 1; 0; 2; 0 |]

let test_make_valid () =
  let t = tiny () in
  Alcotest.(check int) "size" 4 (T.size t);
  Alcotest.(check int) "root" 0 t.T.root;
  Alcotest.(check (array int)) "children of 0" [| 1; 2 |] (T.children t 0);
  Alcotest.(check (array int)) "children of 2" [| 3 |] (T.children t 2);
  Alcotest.(check (array int)) "CSR offsets" [| 0; 2; 2; 3; 3 |] t.T.child_off;
  Alcotest.(check (array int)) "CSR children" [| 1; 2; 3 |] t.T.child;
  Alcotest.(check int) "degree of 0" 2 (T.degree t 0);
  Alcotest.(check bool) "leaf 1" true (T.is_leaf t 1);
  Alcotest.(check bool) "leaf 0" false (T.is_leaf t 0)

let test_make_errors () =
  let expect msg parent f n =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (T.make ~parent ~f ~n))
  in
  expect "Tree.make: empty tree" [||] [||] [||];
  expect "Tree.make: several roots" [| -1; -1 |] [| 0; 0 |] [| 0; 0 |];
  expect "Tree.make: no root" [| 1; 0 |] [| 0; 0 |] [| 0; 0 |];
  expect "Tree.make: parent out of range" [| -1; 7 |] [| 0; 0 |] [| 0; 0 |];
  expect "Tree.make: self-loop" [| -1; 1 |] [| 0; 0 |] [| 0; 0 |];
  expect "Tree.make: array length mismatch" [| -1 |] [| 0; 1 |] [| 0 |];
  expect "Tree.make: f.(1) < 0" [| -1; 0 |] [| 0; -2 |] [| 0; 0 |];
  (* cycle among non-root nodes *)
  Alcotest.check_raises "cycle" (Invalid_argument "Tree.make: cycle in parent pointers")
    (fun () -> ignore (T.make ~parent:[| -1; 2; 1 |] ~f:[| 0; 0; 0 |] ~n:[| 0; 0; 0 |]))

let test_mem_req () =
  let t = tiny () in
  Alcotest.(check int) "root req" (5 + 1 + 2 + 3) (T.mem_req t 0);
  Alcotest.(check int) "leaf req" 2 (T.mem_req t 1);
  Alcotest.(check int) "inner req" (3 + 2 + 4) (T.mem_req t 2);
  Alcotest.(check int) "max req" 11 (T.max_mem_req t);
  Alcotest.(check int) "total f" 14 (T.total_f t);
  Alcotest.(check int) "sum children f" 5 (T.sum_children_f t 0)

let test_depth_height () =
  let t = tiny () in
  Alcotest.(check (array int)) "depth" [| 0; 1; 1; 2 |] (T.depth t);
  Alcotest.(check int) "height" 2 (T.height t);
  Alcotest.(check (array int)) "subtree sizes" [| 4; 1; 2; 1 |] (T.subtree_sizes t);
  let chain = Tt_core.Instances.chain ~length:5 ~f:1 ~n:0 in
  Alcotest.(check int) "chain height" 4 (T.height chain)

let test_negative_n_allowed () =
  let t = T.make ~parent:[| -1; 0 |] ~f:[| 3; 2 |] ~n:[| -2; 0 |] in
  Alcotest.(check int) "negative n in mem_req" 3 (T.mem_req t 0)

let test_string_round_trip () =
  let t = tiny () in
  Alcotest.(check bool) "round trip" true (T.equal t (T.of_string (T.to_string t)))

let prop_string_round_trip =
  H.qcheck "to_string/of_string round trip" (H.arb_tree ()) (fun t ->
      T.equal t (T.of_string (T.to_string t)))

let test_of_string_errors () =
  List.iter
    (fun s ->
      match T.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ ""; "x"; "2 -1:0:0"; "1 -1:a:0"; "1 -1:0"; "1 0:0:0" ]

let prop_random_tree_valid =
  H.qcheck "random trees validate and have consistent arrays"
    (H.arb_tree ~size_max:40 ()) (fun t ->
      let d = T.depth t in
      Array.for_all (fun x -> x >= 0) d
      && Array.for_all (fun f -> f >= 0) t.T.f
      && T.size t = Array.length t.T.parent)

let prop_subtree_sizes =
  H.qcheck "subtree sizes sum over children + 1" (H.arb_tree ~size_max:30 ())
    (fun t ->
      let sz = T.subtree_sizes t in
      let ok = ref (sz.(t.T.root) = T.size t) in
      for i = 0 to T.size t - 1 do
        let s = ref 1 in
        T.iter_children t i (fun c -> s := !s + sz.(c));
        if !s <> sz.(i) then ok := false
      done;
      !ok)

(* the children-first order is the recursive postorder with children in
   increasing index order *)
let prop_children_first_order =
  H.qcheck "children_first_order is the recursive postorder" (H.arb_tree ~size_max:40 ())
    (fun t ->
      let rec post i = List.concat_map post (Array.to_list (T.children t i)) @ [ i ] in
      Array.to_list (T.children_first_order t) = post t.T.root)

(* --- hostile input ------------------------------------------------------- *)

module Rng = Tt_util.Rng

(* The encoding of raw arrays, valid or not, in the [to_string] format. *)
let encode parent f n =
  String.concat " "
    (string_of_int (Array.length parent)
    :: List.init (Array.length parent) (fun i -> Printf.sprintf "%d:%d:%d" parent.(i) f.(i) n.(i)))

(* One seeded mutation of a valid encoding: the shapes a corrupted or
   hostile frame takes on its way to [of_string]. *)
let mutate rng t =
  let s = T.to_string t in
  let len = String.length s in
  let insert x =
    let at = Rng.int rng (len + 1) in
    String.sub s 0 at ^ x ^ String.sub s at (len - at)
  in
  let fields = String.split_on_char ' ' s in
  let pick_field () = Rng.int rng (List.length fields) in
  (* half the time the count is fixed up, so the edit reaches the
     validator instead of the count check *)
  let join = function
    | _ :: nodes when Rng.bool rng ->
        String.concat " " (string_of_int (List.length nodes) :: nodes)
    | fs -> String.concat " " fs
  in
  let p = T.size t in
  let non_root () = (t.T.root + 1 + Rng.int rng (p - 1)) mod p in
  let parent = Array.copy t.T.parent in
  match Rng.int rng 8 with
  | 0 -> String.sub s 0 (Rng.int rng len)
  | 1 ->
      let b = Bytes.of_string s in
      Bytes.set b (Rng.int rng len) (Char.chr (Rng.int rng 256));
      Bytes.to_string b
  | 2 -> insert (String.make (19 + Rng.int rng 20) '9')
  | 3 -> insert (if Rng.bool rng then "\000" else "\r")
  | 4 ->
      let k = pick_field () in
      join (List.filteri (fun i _ -> i <> k) fields)
  | 5 ->
      let k = pick_field () in
      join (List.concat (List.mapi (fun i x -> if i = k then [ x; x ] else [ x ]) fields))
  | 6 when p > 1 ->
      (* a cycle: hang a non-root below itself or one of its descendants *)
      let i = non_root () in
      let j = ref i in
      for _ = 1 to Rng.int rng p do
        if not (T.is_leaf t !j) then j := Rng.pick rng (T.children t !j)
      done;
      parent.(i) <- !j;
      encode parent t.T.f t.T.n
  | 7 when p > 1 ->
      parent.(non_root ()) <- -1;
      encode parent t.T.f t.T.n
  | _ -> String.sub s 0 (Rng.int rng len)

let arb_mutated =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Rng.create seed in
        mutate rng (H.random_tree ~rng ~size_max:12 ~max_f:12 ~max_n:6))
      (QCheck.Gen.int_bound 1_000_000)
  in
  QCheck.make ~print:String.escaped gen

let prop_hostile_encodings =
  H.qcheck ~count:1000 "mutated encodings parse to a re-encodable tree or raise Invalid_argument"
    arb_mutated (fun s ->
      match T.of_string s with
      | t -> T.equal t (T.of_string (T.to_string t))
      | exception Invalid_argument _ -> true)

(* A random tree's parent array, shuffled and half the time with one
   entry overwritten, plus the odd negative [f] or over-long [n]: about
   one in seven is a tree, and every rejection reason occurs. *)
let arb_raw_arrays =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Rng.create seed in
        let p = Rng.int_incl rng 0 10 in
        let parent = Array.init p (fun i -> if i = 0 then -1 else Rng.int rng i) in
        Rng.shuffle rng parent;
        if p > 0 && Rng.bool rng then parent.(Rng.int rng p) <- Rng.int_incl rng (-2) p;
        let f = Array.init p (fun _ -> Rng.int_incl rng (-1) 20) in
        let n = Array.init (if Rng.int rng 10 = 0 then p + 1 else p) (fun _ -> Rng.int_incl rng (-3) 3) in
        (parent, f, n))
      (QCheck.Gen.int_bound 1_000_000)
  in
  QCheck.make ~print:(fun (parent, f, n) -> encode parent f (Array.sub n 0 (Array.length parent))) gen

let prop_make_of_arrays_agree =
  H.qcheck ~count:1000 "make and of_arrays accept and reject the same arrays" arb_raw_arrays
    (fun (parent, f, n) ->
      let outcome build =
        match build ~parent:(Array.copy parent) ~f:(Array.copy f) ~n:(Array.copy n) with
        | t -> Ok (T.to_string t, t.T.child_off, t.T.child)
        | exception Invalid_argument msg ->
            Error (String.sub msg (String.index msg ':') (String.length msg - String.index msg ':'))
      in
      outcome T.make = outcome T.of_arrays)

let test_map_weights () =
  let t = tiny () in
  let t' = T.map_weights ~f:(fun i -> 10 + i) ~n:(fun i -> i) t in
  Alcotest.(check (array int)) "f rewritten" [| 10; 11; 12; 13 |] t'.T.f;
  Alcotest.(check (array int)) "n rewritten" [| 0; 1; 2; 3 |] t'.T.n;
  Alcotest.(check (array int)) "shape preserved" t.T.parent t'.T.parent

let test_random_shape_degree () =
  let rng = Tt_util.Rng.create 3 in
  for _ = 1 to 20 do
    let t = T.random_shape ~rng ~size:40 ~max_degree:2 in
    for i = 0 to T.size t - 1 do
      if T.degree t i > 2 then Alcotest.failf "degree %d > 2" (T.degree t i)
    done
  done

let test_deep_tree_is_stack_safe () =
  (* 200k-node chain: structural operations must not overflow the stack *)
  let p = 200_000 in
  let t = Tt_core.Instances.chain ~length:p ~f:1 ~n:0 in
  Alcotest.(check int) "height" (p - 1) (T.height t);
  Alcotest.(check int) "subtree size at root" p (T.subtree_sizes t).(t.T.root);
  Alcotest.(check (array int)) "children-first order" (Array.init p (fun k -> p - 1 - k))
    (T.children_first_order t)

(* [of_arrays] takes its arrays over and allocates only the CSR
   children and a byte per node of cycle-check scratch: 2.125 words per
   node at p = 1M (a copy of the offsets as fill cursor made it 3.125). *)
let test_of_arrays_alloc () =
  let p = 1_000_000 in
  let rng = Tt_util.Rng.create 5 in
  let parent = Array.init p (fun i -> if i = 0 then -1 else Tt_util.Rng.int rng i) in
  let f = Array.make p 0 and n = Array.make p 0 in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let t = T.of_arrays ~parent ~f ~n in
  let bytes = Gc.allocated_bytes () -. before in
  let words = bytes /. float_of_int (Sys.word_size / 8) /. float_of_int p in
  Alcotest.(check int) "size" p (T.size t);
  if words >= 2.5 then
    Alcotest.failf "Tree.of_arrays allocated %.3f words per node (bound 2.5)" words

let () =
  H.run "tree"
    [ ( "construction",
        [ H.case "valid" test_make_valid;
          H.case "errors" test_make_errors;
          H.case "negative n" test_negative_n_allowed
        ] );
      ( "accessors",
        [ H.case "mem_req" test_mem_req;
          H.case "depth/height" test_depth_height;
          H.case "map_weights" test_map_weights;
          prop_subtree_sizes;
          prop_children_first_order
        ] );
      ( "serialization",
        [ H.case "round trip" test_string_round_trip;
          H.case "parse errors" test_of_string_errors;
          prop_string_round_trip;
          prop_hostile_encodings
        ] );
      ( "random",
        [ prop_random_tree_valid;
          H.case "bounded degree" test_random_shape_degree;
          H.case "deep chain" test_deep_tree_is_stack_safe;
          prop_make_of_arrays_agree;
          H.case "of_arrays at 1M nodes under 2.5 words per node" test_of_arrays_alloc
        ] )
    ]

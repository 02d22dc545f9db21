(* The huge-tree tier: the CSR kernels of [Tree.t] must be bit-identical
   to references over per-node child arrays, the certified Minmem_approx
   bounds must really sandwich the exact optimum (gap 0 wherever the
   exact answer is affordable), the segment truncations must preserve
   the canonical invariants, and the streaming generators must be
   deterministic across runs and domain counts. *)

module T = Tt_core.Tree
module Ft = Tt_core.Flat_tree
module Ma = Tt_core.Minmem_approx
module Seg = Tt_core.Segments
module Traversal = Tt_core.Traversal
module Liu = Tt_core.Liu_exact
module Huge = Tt_workloads.Huge
module H = Helpers

(* the parity corpus of test_perf_parity: every family the paper's
   experiments exercise, with index-hashed weights *)
let hash_weight i m = 1 + (i * 2654435761) land max_int mod m

let reweight ~max_f t =
  T.map_weights ~f:(fun i -> hash_weight i max_f) ~n:(fun i -> hash_weight (i + 1) 7 - 1) t

let family_instances =
  let module I = Tt_core.Instances in
  [ ("chain-stair", reweight ~max_f:401 (I.chain ~length:120 ~f:1 ~n:0));
    ("binary-rand", reweight ~max_f:401 (I.complete_binary ~levels:6 ~f:1 ~n:0));
    ("star", I.star ~branches:60 ~f_root:3 ~f_leaf:7 ~n:5);
    ("harpoon", I.harpoon_nested ~branches:2 ~levels:5 ~m:64 ~eps:3);
    ("caterpillar", reweight ~max_f:97 (I.caterpillar ~length:40 ~leaves_per_node:3 ~f:7 ~n:3));
    ("random", T.random ~rng:(Tt_util.Rng.create 97) ~size:150 ~max_f:50 ~max_n:9)
  ]

(* --- references ------------------------------------------------------------
   The kernels as they ran before the CSR layout, over per-node child
   arrays built from [parent] alone by [H.children_of_parents]: the CSR
   kernels of [Tree], [Postorder_opt], [Liu_exact] and [Traversal] must
   reproduce them bit for bit. *)

let ref_depth t = H.depth_of_children (H.children_of_parents t.T.parent) t.T.root

(* decreasing depth, ascending index within a level *)
let ref_bottom_up t =
  let d = ref_depth t in
  let order = Array.init (T.size t) Fun.id in
  Array.stable_sort (fun a b -> compare d.(b) d.(a)) order;
  order

let ref_mem_req children t i = t.T.f.(i) + t.T.n.(i) + H.sum_f t children.(i)

let ref_postorder_run t =
  let children = H.children_of_parents t.T.parent in
  let p = T.size t in
  let peaks = Array.make p 0 and sorted = Array.make p [||] in
  Array.iter
    (fun i ->
      let cs = Array.copy children.(i) in
      Array.sort (fun a b -> Int.compare (peaks.(a) - t.T.f.(a)) (peaks.(b) - t.T.f.(b))) cs;
      sorted.(i) <- cs;
      let best = ref (ref_mem_req children t i) in
      let pending = ref (H.sum_f t cs) in
      Array.iter
        (fun c ->
          pending := !pending - t.T.f.(c);
          best := max !best (peaks.(c) + !pending))
        cs;
      peaks.(i) <- !best)
    (ref_bottom_up t);
  let order = Array.make p (-1) and k = ref 0 in
  let rec emit = function
    | [] -> ()
    | i :: rest ->
        order.(!k) <- i;
        incr k;
        emit (Array.fold_right List.cons sorted.(i) rest)
  in
  emit [ t.T.root ];
  (peaks.(t.T.root), order)

let ref_liu_run t =
  let children = H.children_of_parents t.T.parent in
  let p = T.size t in
  let prof = Array.make p Seg.empty in
  Array.iter
    (fun i ->
      let merged = Seg.merge_array (Array.map (fun c -> prof.(c)) children.(i)) in
      prof.(i) <-
        Seg.append_parent merged ~hill:(ref_mem_req children t i) ~valley:t.T.f.(i) ~node:i)
    (ref_bottom_up t);
  let order = Array.make p 0 and k = ref p in
  Seg.iter_nodes prof.(t.T.root) (fun i ->
      decr k;
      order.(!k) <- i);
  (Seg.peak prof.(t.T.root), order)

(* Algorithm 1 with a ready flag per node; [order] must be valid *)
let ref_peak t order =
  let children = H.children_of_parents t.T.parent in
  let ready = Array.make (T.size t) false in
  ready.(t.T.root) <- true;
  let ready_f = ref t.T.f.(t.T.root) and peak = ref min_int in
  Array.iter
    (fun i ->
      if not ready.(i) then invalid_arg "ref_peak: invalid order";
      let out = H.sum_f t children.(i) in
      peak := max !peak (!ready_f + t.T.n.(i) + out);
      ready.(i) <- false;
      ready_f := !ready_f - t.T.f.(i) + out;
      Array.iter (fun c -> ready.(c) <- true) children.(i))
    order;
  !peak

(* --- conversion ---------------------------------------------------------- *)

let test_roundtrip () =
  List.iter
    (fun (name, tree) ->
      let children = H.children_of_parents tree.T.parent in
      let copy =
        T.of_arrays ~parent:(Array.copy tree.T.parent) ~f:(Array.copy tree.T.f)
          ~n:(Array.copy tree.T.n)
      in
      Alcotest.(check bool) (name ^ " roundtrip") true
        (T.equal tree (Ft.of_tree copy) && copy.T.root = tree.T.root);
      Alcotest.(check (array int)) (name ^ " depth") (ref_depth tree) (T.depth tree);
      Alcotest.(check (array int))
        (name ^ " bottom-up")
        (ref_bottom_up tree) (T.bottom_up_order tree);
      Alcotest.(check int) (name ^ " height")
        (Array.fold_left max 0 (ref_depth tree))
        (T.height tree);
      Alcotest.(check int) (name ^ " max-mem-req")
        (Array.fold_left max min_int (Array.init (T.size tree) (ref_mem_req children tree)))
        (T.max_mem_req tree);
      Alcotest.(check int) (name ^ " total-f") (Array.fold_left ( + ) 0 tree.T.f) (T.total_f tree);
      for i = 0 to T.size tree - 1 do
        Alcotest.(check (array int))
          (Printf.sprintf "%s children %d" name i)
          children.(i) (T.children copy i);
        Alcotest.(check int)
          (Printf.sprintf "%s mem-req %d" name i)
          (ref_mem_req children tree i) (T.mem_req tree i);
        Alcotest.(check bool)
          (Printf.sprintf "%s leaf %d" name i)
          (children.(i) = [||]) (T.is_leaf tree i)
      done)
    family_instances

let test_of_arrays_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let ok = Alcotest.(check bool) in
  ok "empty" true (raises (fun () -> T.of_arrays ~parent:[||] ~f:[||] ~n:[||]));
  ok "length mismatch" true
    (raises (fun () -> T.of_arrays ~parent:[| -1 |] ~f:[| 1; 2 |] ~n:[| 0 |]));
  ok "negative f" true
    (raises (fun () -> T.of_arrays ~parent:[| -1 |] ~f:[| -3 |] ~n:[| 0 |]));
  ok "two roots" true
    (raises (fun () -> T.of_arrays ~parent:[| -1; -1 |] ~f:[| 1; 1 |] ~n:[| 0; 0 |]));
  ok "no root" true
    (raises (fun () -> T.of_arrays ~parent:[| 1; 0 |] ~f:[| 1; 1 |] ~n:[| 0; 0 |]));
  ok "out of range" true
    (raises (fun () -> T.of_arrays ~parent:[| -1; 7 |] ~f:[| 1; 1 |] ~n:[| 0; 0 |]));
  ok "self-loop" true
    (raises (fun () -> T.of_arrays ~parent:[| -1; 1 |] ~f:[| 1; 1 |] ~n:[| 0; 0 |]));
  ok "cycle" true
    (raises (fun () ->
         T.of_arrays ~parent:[| -1; 2; 3; 1 |] ~f:[| 1; 1; 1; 1 |] ~n:[| 0; 0; 0; 0 |]));
  ok "valid chain" true
    (match T.of_arrays ~parent:[| -1; 0; 1 |] ~f:[| 0; 2; 3 |] ~n:[| 1; 0; 2 |] with
    | ft -> T.size ft = 3 && ft.T.root = 0
    | exception _ -> false)

(* --- kernel parity -------------------------------------------------------- *)

let test_kernel_parity_families () =
  List.iter
    (fun (name, tree) ->
      let em, eo = ref_postorder_run tree in
      let gm, go = Tt_core.Postorder_opt.run tree in
      Alcotest.(check int) (name ^ " postorder mem") em gm;
      Alcotest.(check (array int)) (name ^ " postorder order") eo go;
      let lm, lo = ref_liu_run tree in
      let fm, fo = Liu.run tree in
      Alcotest.(check int) (name ^ " liu mem") lm fm;
      Alcotest.(check (array int)) (name ^ " liu order") lo fo)
    family_instances

let prop_kernel_parity_random =
  H.qcheck ~count:300 "flat kernels bit-identical to Tree.t kernels"
    (H.arb_tree ~size_max:60 ())
    (fun tree ->
      Tt_core.Postorder_opt.run tree = ref_postorder_run tree
      && Liu.run tree = ref_liu_run tree
      && T.bottom_up_order tree = ref_bottom_up tree
      && Array.for_all2 ( = ) (H.children_of_parents tree.T.parent)
           (Array.init (T.size tree) (T.children tree)))

let prop_peak_parity =
  H.qcheck ~count:200 "flat peak simulation matches Traversal.peak"
    (H.arb_tree_with_order ~size_max:40 ())
    (fun (tree, order) ->
      Ft.peak tree order = ref_peak tree order)

(* --- segment truncation --------------------------------------------------- *)

(* Liu subtree profiles of random trees are a rich source of canonical
   profiles; truncating them at aggressive caps must preserve the
   canonical invariants, the final valley (the subtree's output size),
   the node coverage, and bracket the original peak from the right
   sides. *)
let prop_truncate_invariants =
  H.qcheck ~count:300 "truncations stay canonical and bracket the peak"
    (QCheck.pair (H.arb_tree ~size_max:40 ()) QCheck.(2 -- 5))
    (fun (tree, cap) ->
      let profiles = Liu.profiles tree in
      Array.for_all
        (fun prof ->
          let tl = Seg.truncate_lower prof ~cap in
          let tu = Seg.truncate_upper prof ~cap in
          Seg.check_canonical tl && Seg.check_canonical tu
          && Seg.length tl <= cap
          && Seg.length tu <= cap
          && Seg.peak tl <= Seg.peak prof
          && Seg.peak tu = Seg.peak prof
          && Seg.final_valley tl = Seg.final_valley prof
          && Seg.final_valley tu = Seg.final_valley prof
          && Seg.nodes tu = Seg.nodes prof
          && List.sort compare (Seg.nodes tl) = List.sort compare (Seg.nodes prof))
        profiles)

let test_truncate_cap_errors () =
  let prof = Seg.singleton ~hill:5 ~valley:2 ~node:0 in
  Alcotest.check_raises "lower cap<2" (Invalid_argument "Segments.truncate: cap < 2")
    (fun () -> ignore (Seg.truncate_lower prof ~cap:1));
  Alcotest.check_raises "upper cap<2" (Invalid_argument "Segments.truncate: cap < 2")
    (fun () -> ignore (Seg.truncate_upper prof ~cap:1))

(* --- certified bounds ----------------------------------------------------- *)

let test_bounds_exact_small () =
  List.iter
    (fun (name, tree) ->
      let b = Ma.run tree in
      let opt = Liu.min_memory tree in
      Alcotest.(check int) (name ^ " lower") opt b.Ma.lower;
      Alcotest.(check int) (name ^ " upper") opt b.Ma.upper;
      Alcotest.(check bool) (name ^ " exact") true b.Ma.exact;
      Alcotest.(check (float 0.)) (name ^ " gap") 0. (Ma.gap b);
      H.check_valid_traversal tree b.Ma.order;
      Alcotest.(check int) (name ^ " order peak") opt (Traversal.peak tree b.Ma.order))
    family_instances

let prop_bounds_exact_small =
  H.qcheck ~count:200 "gap 0 wherever the exact answer is affordable"
    (H.arb_tree ~size_max:50 ())
    (fun tree ->
      let b = Ma.run tree in
      let opt = Liu.min_memory tree in
      b.Ma.lower = opt && b.Ma.upper = opt && b.Ma.exact && Ma.gap b = 0.)

(* force the approximate path with brutal caps: the sandwich must hold
   no matter how hard the profiles are truncated *)
let prop_bounds_sandwich =
  H.qcheck ~count:300 "lower <= Minmem.min_memory <= upper under truncation"
    (QCheck.pair (H.arb_tree ~size_max:45 ()) QCheck.(2 -- 6))
    (fun (tree, cap) ->
      let opt = Liu.min_memory tree in
      let b =
        Ma.run ~exact_threshold:0 ~seg_cap:cap ~tol:0. ~max_rounds:2 tree
      in
      b.Ma.lower <= opt && opt <= b.Ma.upper
      && Traversal.is_valid_order tree b.Ma.order
      && Traversal.peak tree b.Ma.order = b.Ma.upper
      && ((not b.Ma.exact) || b.Ma.lower = b.Ma.upper))

(* with a cap no profile reaches, the relaxation is vacuous: the numeric
   lower-bound pass must reproduce Liu's exact optimum bit for bit —
   this pins the number-only transcription of the segment calculus *)
let prop_lb_exact_when_uncapped =
  H.qcheck ~count:300 "uncapped numeric lower bound equals Liu exactly"
    (H.arb_tree ~size_max:60 ())
    (fun tree ->
      let b =
        Ma.run ~exact_threshold:0 ~seg_cap:1_000_000 ~tol:0. ~max_rounds:0 tree
      in
      b.Ma.lower = Liu.min_memory tree)

(* --- generator determinism ------------------------------------------------ *)

let generators =
  [ ("caterpillar", fun ~domains ~p ~seed -> Huge.caterpillar ~domains ~p ~seed ());
    ("binary", fun ~domains ~p ~seed -> Huge.binary ~domains ~p ~seed ());
    ("random", fun ~domains ~p ~seed -> Huge.random_attach ~domains ~p ~seed ())
  ]

let test_generator_determinism () =
  List.iter
    (fun (name, build) ->
      (* same seed, two runs: identical digests *)
      let a = Ft.digest (build ~domains:1 ~p:200_000 ~seed:11) in
      let b = Ft.digest (build ~domains:1 ~p:200_000 ~seed:11) in
      Alcotest.(check string) (name ^ " rerun") a b;
      (* 1 vs N domains: identical instance *)
      let par = Ft.digest (build ~domains:4 ~p:200_000 ~seed:11) in
      Alcotest.(check string) (name ^ " 1-vs-4 domains") a par;
      (* a different seed changes the instance *)
      let other = Ft.digest (build ~domains:1 ~p:200_000 ~seed:12) in
      Alcotest.(check bool) (name ^ " seed sensitivity") true (a <> other))
    generators

let test_generator_shapes () =
  List.iter
    (fun (name, build) ->
      let ft = build ~domains:2 ~p:50_000 ~seed:3 in
      Alcotest.(check int) (name ^ " size") 50_000 (T.size ft);
      (* of_arrays validated the structure; cross-check via Tree.make *)
      let tree = T.make ~parent:ft.T.parent ~f:ft.T.f ~n:ft.T.n in
      Alcotest.(check bool) (name ^ " roundtrip") true
        (T.equal tree ft && tree.T.child_off = ft.T.child_off && tree.T.child = ft.T.child))
    generators

let test_digest_ints () =
  let a = Ft.digest_ints (Array.init 100_000 (fun i -> i * 7)) in
  let b = Ft.digest_ints (Array.init 100_000 (fun i -> i * 7)) in
  Alcotest.(check string) "stable" a b;
  let c = Ft.digest_ints (Array.init 100_000 (fun i -> i * 7 + (if i = 99_999 then 1 else 0))) in
  Alcotest.(check bool) "last-entry sensitivity" true (a <> c);
  (* chunked chaining must not collide length-prefix boundaries *)
  Alcotest.(check bool) "length sensitivity" true
    (Ft.digest_ints [| 1; 2 |] <> Ft.digest_ints [| 1; 2; 0 |])

(* --- stack safety at depth ------------------------------------------------ *)

(* p = 5M deep caterpillar (~1.7M levels): every flat path — validation
   climb, BFS, counting sort, postorder emission, bounded Liu, peak
   simulation — must run without growing the OCaml stack. This is the
   smoke test the recursive implementations could not survive. *)
let test_deep_caterpillar_5m () =
  let p = 5_000_000 in
  let ft = Huge.caterpillar ~p ~seed:5 () in
  Alcotest.(check int) "size" p (T.size ft);
  Alcotest.(check bool) "deep" true (T.height ft > 1_000_000);
  let b = Ma.run ft in
  Alcotest.(check bool) "bounds ordered" true (b.Ma.lower <= b.Ma.upper);
  Alcotest.(check bool) "certified gap within pinned threshold" true
    (Ma.gap b <= 0.05);
  Alcotest.(check int) "upper is the order's simulated peak" b.Ma.upper
    (Ft.peak ft b.Ma.order)

(* Deep chains through the two paths the audit rewrote iteratively:
   Tree.pp's preorder walk and Amalgamation's head resolution (a fully
   merged chain makes its compression path O(n) long). Both previously
   recursed once per level and overflowed well below this size. *)
let test_deep_pp () =
  let p = 2_000_000 in
  let parent = Array.init p (fun i -> i - 1) in
  let t = T.make ~parent ~f:(Array.make p 1) ~n:(Array.make p 0) in
  let sink = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  T.pp sink t;
  Format.pp_print_flush sink ()

let test_deep_amalgamation () =
  let n = 2_000_000 in
  (* etree convention: parents have larger indices; strictly decreasing
     col counts towards the root make every merge "perfect", collapsing
     the whole chain into one group *)
  let parent = Array.init n (fun i -> if i = n - 1 then -1 else i + 1) in
  let col_counts = Array.init n (fun i -> n - i) in
  let a = Tt_etree.Amalgamation.run ~parent ~col_counts ~limit:max_int in
  Alcotest.(check int) "one group" 1 (Array.length a.Tt_etree.Amalgamation.groups);
  Alcotest.(check int) "group_of covers every vertex" 0
    (Array.fold_left max 0 a.Tt_etree.Amalgamation.group_of)

let () =
  H.run "flat"
    [ ( "conversion",
        [ H.case "family roundtrips" test_roundtrip;
          H.case "of_arrays validation" test_of_arrays_validation
        ] );
      ( "parity",
        [ H.case "family instances" test_kernel_parity_families;
          prop_kernel_parity_random;
          prop_peak_parity
        ] );
      ( "truncation",
        [ prop_truncate_invariants; H.case "cap errors" test_truncate_cap_errors ] );
      ( "bounds",
        [ H.case "exact on families" test_bounds_exact_small;
          prop_bounds_exact_small;
          prop_bounds_sandwich;
          prop_lb_exact_when_uncapped
        ] );
      ( "generators",
        [ H.case "determinism across runs and domains" test_generator_determinism;
          H.case "shapes validate" test_generator_shapes;
          H.case "digest_ints" test_digest_ints
        ] );
      ( "deep",
        [ H.case "caterpillar p=5M end to end" test_deep_caterpillar_5m;
          H.case "pp on a 2M chain" test_deep_pp;
          H.case "amalgamation head on a 2M chain" test_deep_amalgamation
        ] )
    ]

(* Unit and property tests for the tt_util containers. *)

module D = Tt_util.Dynarray_compat
module H = Helpers

(* ------------------------------------------------------------- dynarray *)

let test_dynarray_basic () =
  let a = D.create () in
  Alcotest.(check bool) "empty" true (D.is_empty a);
  D.add_last a 1;
  D.add_last a 2;
  D.add_last a 3;
  Alcotest.(check int) "length" 3 (D.length a);
  Alcotest.(check int) "get 0" 1 (D.get a 0);
  Alcotest.(check int) "last" 3 (D.last a);
  D.set a 1 9;
  Alcotest.(check (list int)) "to_list" [ 1; 9; 3 ] (D.to_list a);
  Alcotest.(check int) "pop" 3 (D.pop_last a);
  Alcotest.(check int) "length after pop" 2 (D.length a);
  D.clear a;
  Alcotest.(check bool) "cleared" true (D.is_empty a)

let test_dynarray_errors () =
  let a = D.of_list [ 1; 2 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Dynarray_compat.get: index 5 out of [0,2)")
    (fun () -> ignore (D.get a 5));
  let e = D.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Dynarray_compat.pop_last: empty")
    (fun () -> ignore (D.pop_last e));
  Alcotest.check_raises "make negative" (Invalid_argument "Dynarray_compat.make")
    (fun () -> ignore (D.make (-1) 0))

let test_dynarray_append () =
  let a = D.of_list [ 1; 2 ] and b = D.of_list [ 3; 4; 5 ] in
  D.append a b;
  Alcotest.(check (list int)) "append" [ 1; 2; 3; 4; 5 ] (D.to_list a);
  D.append_array a [| 6 |];
  Alcotest.(check (list int)) "append_array" [ 1; 2; 3; 4; 5; 6 ] (D.to_list a)

let prop_dynarray_model =
  H.qcheck "dynarray behaves like a list" (H.arb_int_list ())
    (fun l ->
      let a = D.create () in
      List.iter (D.add_last a) l;
      D.to_list a = l
      && D.length a = List.length l
      && Array.to_list (D.to_array a) = l
      && D.fold_left (fun acc x -> acc + x) 0 a = List.fold_left ( + ) 0 l
      && D.to_list (D.map succ a) = List.map succ l)

let prop_dynarray_push_pop =
  H.qcheck "dynarray push/pop round trip" (H.arb_int_list ())
    (fun l ->
      let a = D.create () in
      List.iter (D.add_last a) l;
      let popped = List.init (List.length l) (fun _ -> D.pop_last a) in
      popped = List.rev l && D.is_empty a)

(* ------------------------------------------------------------- int heap *)

let prop_heapsort =
  H.qcheck "heap sorts like List.sort"
    QCheck.(list_of_size (Gen.int_bound 40) (int_bound 1000))
    (fun keys ->
      let n = List.length keys in
      let h = Tt_util.Int_heap.create n in
      List.iteri (fun i k -> Tt_util.Int_heap.insert h i k) keys;
      let out = List.init n (fun _ -> snd (Tt_util.Int_heap.pop_min h)) in
      out = List.sort compare keys)

let prop_heap_update =
  H.qcheck "heap update (decrease/increase key) keeps order"
    QCheck.(pair (list_of_size (Gen.int_bound 25) (int_bound 100))
              (list_of_size (Gen.int_bound 25) (int_bound 100)))
    (fun (keys, updates) ->
      let n = List.length keys in
      QCheck.assume (n > 0);
      let h = Tt_util.Int_heap.create n in
      List.iteri (fun i k -> Tt_util.Int_heap.insert h i k) keys;
      let model = Array.of_list keys in
      List.iteri
        (fun j k ->
          let x = j mod n in
          Tt_util.Int_heap.update h x k;
          model.(x) <- k)
        updates;
      let out = List.init n (fun _ -> snd (Tt_util.Int_heap.pop_min h)) in
      out = List.sort compare (Array.to_list model))

let test_heap_ops () =
  let h = Tt_util.Int_heap.create 10 in
  Tt_util.Int_heap.insert h 3 7;
  Tt_util.Int_heap.insert h 5 2;
  Alcotest.(check bool) "mem" true (Tt_util.Int_heap.mem h 3);
  Alcotest.(check int) "key" 7 (Tt_util.Int_heap.key h 3);
  Alcotest.(check (pair int int)) "min" (5, 2) (Tt_util.Int_heap.min_elt h);
  Tt_util.Int_heap.remove h 5;
  Alcotest.(check (pair int int)) "min after remove" (3, 7) (Tt_util.Int_heap.min_elt h);
  Alcotest.check_raises "duplicate insert"
    (Invalid_argument "Int_heap.insert: duplicate element") (fun () ->
      Tt_util.Int_heap.insert h 3 1);
  Tt_util.Int_heap.remove h 3;
  Alcotest.(check bool) "empty" true (Tt_util.Int_heap.is_empty h);
  Alcotest.check_raises "pop empty" Not_found (fun () ->
      ignore (Tt_util.Int_heap.pop_min h))

(* ---------------------------------------------------------- ordered set *)

(* [Tt_util.Ordered_set] is a tower of summary bitsets; its group is
   named after that. Alcotest pads every result line to the longest
   group name and cuts a test name that overruns 80 columns, so the
   printed names of the other groups depend on that length: at 12
   characters, the longest group name this suite has had, they stay
   as they were printed before. *)

module Os = Tt_util.Ordered_set

(* Universes of one level (n <= 63 on 64-bit), two (n <= 63^2) and
   three, each near a word boundary. *)
let prop_ordered_set_model =
  H.qcheck "agrees with a sorted list"
    QCheck.(
      pair
        (oneofl [ 1; 63; 64; 200; 3969; 3970; 9000 ])
        (list_of_size (Gen.int_bound 80) (pair bool (int_bound 8999))))
    (fun (n, ops) ->
      let s = Os.create n in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, x) ->
          let x = x mod n in
          if add then begin
            Os.add s x;
            Hashtbl.replace model x ()
          end
          else begin
            Os.remove s x;
            Hashtbl.remove model x
          end)
        ops;
      let members = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model []) in
      let pred_of i = List.fold_left (fun acc x -> if x < i then Some x else acc) None members in
      let succ_of i = List.find_opt (fun x -> x > i) members in
      let probes =
        (-1) :: n :: List.concat_map (fun x -> [ x - 1; x; x + 1 ]) members
        @ List.map (fun (_, x) -> x mod n) ops
      in
      Os.to_desc_list s = List.rev members
      && Os.cardinal s = List.length members
      && Os.min_elt s = List.nth_opt members 0
      && Os.max_elt s = List.nth_opt (List.rev members) 0
      && List.for_all
           (fun i ->
             Os.mem s i = List.mem i members
             && Os.pred s i = pred_of i
             && Os.succ s i = succ_of i)
           probes)

let test_ordered_set_ops () =
  Alcotest.check_raises "negative universe" (Invalid_argument "Ordered_set.create")
    (fun () -> ignore (Os.create (-1)));
  let s = Os.create 200 in
  Alcotest.(check int) "capacity" 200 (Os.capacity s);
  Alcotest.(check bool) "empty" true (Os.is_empty s);
  Alcotest.(check (option int)) "no max" None (Os.max_elt s);
  Alcotest.(check (option int)) "no succ" None (Os.succ s (-1));
  List.iter (Os.add s) [ 0; 62; 63; 126; 199; 63 ];
  Alcotest.(check int) "add is idempotent" 5 (Os.cardinal s);
  Alcotest.(check (list int)) "word boundaries" [ 199; 126; 63; 62; 0 ] (Os.to_desc_list s);
  Alcotest.(check (option int)) "pred across a word" (Some 62) (Os.pred s 63);
  Alcotest.(check (option int)) "succ across a word" (Some 126) (Os.succ s 63);
  Alcotest.(check (option int)) "pred above the universe" (Some 199) (Os.pred s 1000);
  Alcotest.(check (option int)) "succ below the universe" (Some 0) (Os.succ s (-5));
  Alcotest.(check (option int)) "nothing below 0" None (Os.pred s 0);
  Alcotest.(check (option int)) "nothing above 199" None (Os.succ s 199);
  Alcotest.check_raises "add out of range"
    (Invalid_argument "Ordered_set.add: out of range") (fun () -> Os.add s 200);
  Os.remove s 500;
  Os.remove s (-3);
  Alcotest.(check bool) "out-of-range mem" false (Os.mem s 200);
  Os.remove s 199;
  Alcotest.(check (option int)) "max after remove" (Some 126) (Os.max_elt s);
  Os.clear s;
  Alcotest.(check (list int)) "cleared" [] (Os.to_desc_list s);
  Alcotest.(check int) "cleared cardinal" 0 (Os.cardinal s)

(* ------------------------------------------------------------------ rng *)

let test_rng_determinism () =
  let a = Tt_util.Rng.create 7 and b = Tt_util.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Tt_util.Rng.int a 1000) (Tt_util.Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Tt_util.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Tt_util.Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of bounds: %d" v;
    let w = Tt_util.Rng.int_incl rng (-3) 3 in
    if w < -3 || w > 3 then Alcotest.failf "int_incl out of bounds: %d" w;
    let f = Tt_util.Rng.float rng 2.5 in
    if f < 0. || f >= 2.5 then Alcotest.failf "float out of bounds: %f" f
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Tt_util.Rng.int rng 0))

let test_rng_shuffle () =
  let rng = Tt_util.Rng.create 9 in
  let a = Array.init 50 (fun i -> i) in
  Tt_util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted;
  (* all bounded draws hit every residue eventually *)
  let seen = Array.make 5 false in
  for _ = 1 to 200 do
    seen.(Tt_util.Rng.int rng 5) <- true
  done;
  Alcotest.(check (array bool)) "all residues reachable" (Array.make 5 true) seen

let test_rng_split () =
  let rng = Tt_util.Rng.create 11 in
  let a = Tt_util.Rng.split rng in
  let b = Tt_util.Rng.split rng in
  (* split streams should differ from each other *)
  let va = List.init 10 (fun _ -> Tt_util.Rng.int a 1000) in
  let vb = List.init 10 (fun _ -> Tt_util.Rng.int b 1000) in
  Alcotest.(check bool) "independent streams differ" true (va <> vb)

(* ----------------------------------------------------------------- rope *)

let prop_rope_model =
  H.qcheck "rope concatenation flattens like lists"
    QCheck.(list_of_size (Gen.int_bound 20) (H.arb_int_list ~len:8 ()))
    (fun chunks ->
      let rope =
        List.fold_left
          (fun acc l -> Tt_util.Rope.cat acc (Tt_util.Rope.of_array (Array.of_list l)))
          Tt_util.Rope.empty chunks
      in
      let expected = List.concat chunks in
      Tt_util.Rope.to_list rope = expected
      && Tt_util.Rope.length rope = List.length expected)

let test_rope_deep () =
  (* left-leaning rope of 100_000 elements: to_array must not overflow *)
  let r = ref Tt_util.Rope.empty in
  for i = 0 to 99_999 do
    r := Tt_util.Rope.snoc !r i
  done;
  let a = Tt_util.Rope.to_array !r in
  Alcotest.(check int) "length" 100_000 (Array.length a);
  Alcotest.(check int) "first" 0 a.(0);
  Alcotest.(check int) "last" 99_999 a.(99_999)

(* ------------------------------------------------------------ statistics *)

let test_statistics () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Tt_util.Statistics.mean xs);
  Alcotest.(check (float 1e-9)) "stddev" (sqrt 1.25) (Tt_util.Statistics.stddev xs);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "min_max" (1., 4.)
    (Tt_util.Statistics.min_max xs);
  Alcotest.(check (float 1e-9)) "median" 2.5 (Tt_util.Statistics.median xs);
  Alcotest.(check (float 1e-9)) "quantile 0" 1. (Tt_util.Statistics.quantile xs 0.);
  Alcotest.(check (float 1e-9)) "quantile 1" 4. (Tt_util.Statistics.quantile xs 1.);
  Alcotest.(check (float 1e-9)) "fraction" 0.5
    (Tt_util.Statistics.fraction (fun x -> x > 2.) xs);
  Alcotest.(check (float 1e-9)) "geometric mean of equal" 3.
    (Tt_util.Statistics.geometric_mean [| 3.; 3.; 3. |]);
  Alcotest.(check bool) "mean of empty is nan" true
    (Float.is_nan (Tt_util.Statistics.mean [||]))

let prop_quantile_monotone =
  H.qcheck "quantiles are monotone"
    QCheck.(list_of_size (Gen.return 20) (int_bound 1000))
    (fun l ->
      let xs = Array.of_list (List.map float_of_int l) in
      let q1 = Tt_util.Statistics.quantile xs 0.25 in
      let q2 = Tt_util.Statistics.quantile xs 0.5 in
      let q3 = Tt_util.Statistics.quantile xs 0.75 in
      q1 <= q2 && q2 <= q3)

(* ----------------------------------------------------------------- timer *)

let test_timer () =
  let r, dt = Tt_util.Timer.time (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check bool) "non-negative" true (dt >= 0.);
  let r2, per = Tt_util.Timer.time_repeat ~min_time:0.001 (fun () -> 7) in
  Alcotest.(check int) "repeat result" 7 r2;
  Alcotest.(check bool) "per-run positive" true (per > 0.)

let test_timer_wall_clock () =
  (* Timer.now is wall-clock time: blocking (no CPU burned) must still
     advance it. Sys.time, the old clock, would report ~0 here. *)
  let t0 = Tt_util.Timer.now () in
  let (), dt = Tt_util.Timer.time (fun () -> Unix.sleepf 0.02) in
  let t1 = Tt_util.Timer.now () in
  Alcotest.(check bool) "a sleep counts as elapsed time" true (dt >= 0.015);
  Alcotest.(check bool) "now advances across the sleep" true (t1 -. t0 >= 0.015)

(* ---------------------------------------------------------------- cancel *)

let test_cancel_linked () =
  let module Cancel = Tt_util.Cancel in
  let parent = Cancel.create () in
  let child = Cancel.linked ~parent () in
  Alcotest.(check bool) "fresh child not cancelled" false (Cancel.cancelled child);
  Cancel.cancel parent;
  Alcotest.(check bool) "parent cancellation propagates" true (Cancel.cancelled child);
  let expired = Cancel.linked ~deadline_after:(-1.) () in
  Alcotest.(check bool) "own deadline still applies" true (Cancel.cancelled expired);
  let p2 = Cancel.create () in
  let c2 = Cancel.linked ~parent:p2 () in
  Cancel.cancel c2;
  Alcotest.(check bool) "child cancel does not propagate up" false
    (Cancel.cancelled p2)

let () =
  H.run "util"
    [ ( "dynarray",
        [ H.case "basic" test_dynarray_basic;
          H.case "errors" test_dynarray_errors;
          H.case "append" test_dynarray_append;
          prop_dynarray_model;
          prop_dynarray_push_pop
        ] );
      ("int_heap", [ H.case "ops" test_heap_ops; prop_heapsort; prop_heap_update ]);
      ("bitset_tower", [ H.case "ops" test_ordered_set_ops; prop_ordered_set_model ]);
      ( "rng",
        [ H.case "determinism" test_rng_determinism;
          H.case "bounds" test_rng_bounds;
          H.case "shuffle" test_rng_shuffle;
          H.case "split" test_rng_split
        ] );
      ("rope", [ H.case "deep" test_rope_deep; prop_rope_model ]);
      ("statistics", [ H.case "basics" test_statistics; prop_quantile_monotone ]);
      ("timer", [ H.case "time" test_timer; H.case "wall clock" test_timer_wall_clock ]);
      ("cancel", [ H.case "linked tokens" test_cancel_linked ])
    ]

(* Tests for the Explore routine (Algorithm 3) in isolation. *)

module T = Tt_core.Tree
module E = Tt_core.Explore
module H = Helpers

let fresh_explore t ~mavail =
  let mpeak_tbl = Array.make (T.size t) E.infinity_mem in
  let cache = E.make_cache t in
  E.explore t ~mpeak_tbl ~cache t.T.root ~mavail ~linit:[] ~trinit:Tt_util.Rope.empty

let test_full_exploration () =
  let t = Tt_core.Instances.harpoon ~branches:3 ~m:30 ~eps:1 in
  let opt = Tt_core.Liu_exact.min_memory t in
  let r = fresh_explore t ~mavail:opt in
  Alcotest.(check int) "cut occupation" 0 r.E.m_cut;
  Alcotest.(check (list int)) "empty cut" [] r.E.cut;
  Alcotest.(check int) "mpeak infinity" E.infinity_mem r.E.mpeak;
  let order = Tt_util.Rope.to_array r.E.trav in
  Alcotest.(check int) "complete traversal" (T.size t) (Array.length order);
  H.check_valid_traversal t order;
  if Tt_core.Traversal.peak t order > opt then Alcotest.fail "traversal above budget"

let test_entry_failure () =
  let t = T.make ~parent:[| -1; 0 |] ~f:[| 5; 3 |] ~n:[| 2; 0 |] in
  (* MemReq(root) = 10: with 9 the root itself cannot run *)
  let r = fresh_explore t ~mavail:9 in
  Alcotest.(check int) "m_cut infinity" E.infinity_mem r.E.m_cut;
  Alcotest.(check int) "mpeak is MemReq" 10 r.E.mpeak

let test_leaf_shortcut () =
  let t = T.make ~parent:[| -1 |] ~f:[| 4 |] ~n:[| 3 |] in
  let r = fresh_explore t ~mavail:7 in
  Alcotest.(check int) "leaf done" 0 r.E.m_cut;
  let r2 = fresh_explore t ~mavail:6 in
  Alcotest.(check int) "leaf fails" E.infinity_mem r2.E.m_cut;
  Alcotest.(check int) "leaf peak" 7 r2.E.mpeak

let prop_mpeak_exceeds_mavail =
  H.qcheck "returned mpeak always exceeds the memory explored with"
    (H.arb_tree ~size_max:15 ()) (fun t ->
      let mavail = T.max_mem_req t in
      let r = fresh_explore t ~mavail in
      r.E.mpeak = E.infinity_mem || r.E.mpeak > mavail)

let prop_partial_traversal_feasible =
  H.qcheck "the partial traversal is a feasible prefix"
    (H.arb_tree ~size_max:15 ()) (fun t ->
      let mavail = T.max_mem_req t in
      let r = fresh_explore t ~mavail in
      let prefix = Tt_util.Rope.to_array r.E.trav in
      (* simulate the prefix: it must respect precedence and memory *)
      let ready = Array.make (T.size t) false in
      ready.(t.T.root) <- true;
      let ready_f = ref t.T.f.(t.T.root) in
      let ok = ref true in
      Array.iter
        (fun i ->
          if not ready.(i) then ok := false
          else begin
            let usage = !ready_f + t.T.n.(i) + T.sum_children_f t i in
            if usage > mavail then ok := false;
            ready.(i) <- false;
            ready_f := !ready_f - t.T.f.(i) + T.sum_children_f t i;
            T.iter_children t i (fun c -> ready.(c) <- true)
          end)
        prefix;
      !ok)

let prop_cut_matches_traversal =
  H.qcheck "the cut is exactly the ready frontier after the prefix"
    (H.arb_tree ~size_max:15 ()) (fun t ->
      let mavail = T.max_mem_req t in
      let r = fresh_explore t ~mavail in
      if r.E.m_cut = E.infinity_mem then true
      else begin
        let prefix = Tt_util.Rope.to_array r.E.trav in
        let executed = Array.make (T.size t) false in
        Array.iter (fun i -> executed.(i) <- true) prefix;
        let frontier = ref [] in
        for i = T.size t - 1 downto 0 do
          let produced = i = t.T.root || executed.(t.T.parent.(i)) in
          if produced && not executed.(i) then frontier := i :: !frontier
        done;
        List.sort compare r.E.cut = !frontier
        && r.E.m_cut = List.fold_left (fun acc i -> acc + t.T.f.(i)) 0 !frontier
      end)

let test_resume_equivalence () =
  (* exploring at M directly and exploring at M' < M then resuming at M
     must reach the same final memory answer through MinMem *)
  let rng = Tt_util.Rng.create 31 in
  for _ = 1 to 50 do
    let t = T.random ~rng ~size:(Tt_util.Rng.int_incl rng 2 20) ~max_f:15 ~max_n:8 in
    Alcotest.(check int) "minmem (resume machinery) = liu (direct)"
      (Tt_core.Liu_exact.min_memory t)
      (Tt_core.Minmem.min_memory t)
  done

let () =
  H.run "explore"
    [ ( "basics",
        [ H.case "full exploration" test_full_exploration;
          H.case "entry failure" test_entry_failure;
          H.case "leaf shortcut" test_leaf_shortcut
        ] );
      ( "invariants",
        [ prop_mpeak_exceeds_mavail;
          prop_partial_traversal_feasible;
          prop_cut_matches_traversal
        ] );
      ("resume", [ H.case "resume equivalence" test_resume_equivalence ])
    ]

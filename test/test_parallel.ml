(* Tests for the memory-constrained parallel list scheduler. *)

module T = Tt_core.Tree
module P = Tt_core.Parallel
module V = Tt_sched.Validate
module H = Helpers

let unit_work _ = 1
let node_work t i = 1 + abs t.T.n.(i)

let big_memory t = (4 * T.total_f t) + (4 * T.max_mem_req t) + 16

let prop_schedule_validates =
  H.qcheck ~count:200 "schedules pass the independent validator"
    (QCheck.pair (H.arb_tree ~size_max:14 ()) (QCheck.int_range 1 4))
    (fun (t, procs) ->
      let work = node_work t in
      match P.list_schedule t ~procs ~memory:(big_memory t) ~work with
      | None -> false
      | Some s -> V.check t ~memory:(big_memory t) ~work s = Ok ())

let prop_makespan_bounds =
  H.qcheck ~count:200 "critical path <= makespan <= sequential sum"
    (QCheck.pair (H.arb_tree ~size_max:14 ()) (QCheck.int_range 1 4))
    (fun (t, procs) ->
      let work = node_work t in
      match P.list_schedule t ~procs ~memory:(big_memory t) ~work with
      | None -> false
      | Some s ->
          P.critical_path t ~work <= s.P.makespan
          && s.P.makespan <= P.sequential_makespan t ~work
          (* the area bound: procs * makespan covers the total work *)
          && procs * s.P.makespan >= P.sequential_makespan t ~work)

let prop_one_proc_is_sequential =
  H.qcheck "one processor with ample memory = sequential sum"
    (H.arb_tree ~size_max:14 ()) (fun t ->
      let work = node_work t in
      match P.list_schedule t ~procs:1 ~memory:(big_memory t) ~work with
      | None -> false
      | Some s -> s.P.makespan = P.sequential_makespan t ~work)

let prop_many_procs_hit_critical_path =
  H.qcheck "unbounded processors with ample memory = critical path"
    (H.arb_tree ~size_max:14 ()) (fun t ->
      let work = node_work t in
      match P.list_schedule t ~procs:(T.size t) ~memory:(big_memory t) ~work with
      | None -> false
      | Some s -> s.P.makespan = P.critical_path t ~work)

let prop_memory_throttles_parallelism =
  H.qcheck ~count:100 "peak memory respects the budget even at the sequential optimum"
    (H.arb_tree ~size_max:12 ()) (fun t ->
      let work = unit_work in
      let m_small = Tt_core.Minmem.min_memory t in
      let m_big = big_memory t in
      match
        ( P.list_schedule t ~procs:4 ~memory:m_small ~work,
          P.list_schedule t ~procs:4 ~memory:m_big ~work )
      with
      | Some small, Some big ->
          (* the booking fallback makes the optimum always feasible; with
             unit work and ample memory the greedy critical-path rule is
             Hu's algorithm, so [big] is optimal and bounds [small] *)
          small.P.peak_memory <= m_small
          && big.P.makespan <= small.P.makespan
          && P.critical_path t ~work <= small.P.makespan
          && small.P.makespan <= P.sequential_makespan t ~work
      | _ -> false (* None is impossible at memory >= the optimum *))

let test_chain_no_parallelism () =
  (* a chain has no parallelism at all *)
  let t = Tt_core.Instances.chain ~length:9 ~f:2 ~n:1 in
  match P.list_schedule t ~procs:4 ~memory:1000 ~work:(fun _ -> 3) with
  | Some s ->
      Alcotest.(check int) "makespan = sequential" 27 s.P.makespan;
      Alcotest.(check int) "critical path too" 27 (P.critical_path t ~work:(fun _ -> 3))
  | None -> Alcotest.fail "schedule failed"

let test_star_speedup () =
  (* a star with b leaves: root then b independent unit tasks *)
  let t = Tt_core.Instances.star ~branches:6 ~f_root:1 ~f_leaf:1 ~n:0 in
  let work _ = 1 in
  (match P.list_schedule t ~procs:3 ~memory:1000 ~work with
  | Some s -> Alcotest.(check int) "1 + ceil(6/3)" 3 s.P.makespan
  | None -> Alcotest.fail "failed");
  match P.list_schedule t ~procs:6 ~memory:1000 ~work with
  | Some s -> Alcotest.(check int) "full fan-out" 2 s.P.makespan
  | None -> Alcotest.fail "failed"

let test_memory_serializes_star () =
  (* star with big leaf working sets: memory for only one leaf at a time *)
  let t = Tt_core.Instances.star ~branches:4 ~f_root:0 ~f_leaf:2 ~n:10 in
  let work _ = 5 in
  (* leaf working set: f 2 + n 10 = 12; all files alive: 8.
     memory 8 + 12 = 20 allows exactly one leaf running *)
  match P.list_schedule t ~procs:4 ~memory:20 ~work with
  | Some s ->
      Alcotest.(check bool) "memory-bound: serialized" true (s.P.makespan >= 5 * 5)
  | None -> Alcotest.fail "failed"

let test_validation_rejects_broken_schedules () =
  let t = Tt_core.Instances.chain ~length:2 ~f:1 ~n:0 in
  let work _ = 1 in
  let s = Option.get (P.list_schedule t ~procs:1 ~memory:100 ~work) in
  Alcotest.(check bool) "good" true (V.check t ~memory:100 ~work s = Ok ());
  (* break precedence: child starts at 0 *)
  let bad =
    { s with
      P.events =
        Array.map
          (fun e ->
            if e.P.node = 1 then { e with P.start = 0; finish = 1 } else e)
          s.P.events
    }
  in
  Alcotest.(check bool) "precedence violation caught" true
    (match V.check t ~memory:100 ~work bad with Error (V.Precedence _) -> true | _ -> false);
  (* break memory: claim a tiny budget *)
  Alcotest.(check bool) "memory violation caught" true
    (match V.check t ~memory:1 ~work s with Error (V.Memory _) -> true | _ -> false)

let test_bad_arguments () =
  let t = Tt_core.Instances.chain ~length:2 ~f:1 ~n:0 in
  Alcotest.check_raises "procs" (Invalid_argument "Parallel.list_schedule: procs < 1")
    (fun () -> ignore (P.list_schedule t ~procs:0 ~memory:10 ~work:(fun _ -> 1)));
  Alcotest.check_raises "work" (Invalid_argument "Parallel.list_schedule: work < 1")
    (fun () -> ignore (P.list_schedule t ~procs:1 ~memory:10 ~work:(fun _ -> 0)))

let () =
  H.run "parallel"
    [ ( "properties",
        [ prop_schedule_validates;
          prop_makespan_bounds;
          prop_one_proc_is_sequential;
          prop_many_procs_hit_critical_path;
          prop_memory_throttles_parallelism
        ] );
      ( "cases",
        [ H.case "chain" test_chain_no_parallelism;
          H.case "star speedup" test_star_speedup;
          H.case "memory serializes" test_memory_serializes_star;
          H.case "validator" test_validation_rejects_broken_schedules;
          H.case "arguments" test_bad_arguments
        ] )
    ]

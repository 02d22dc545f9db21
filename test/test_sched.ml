(* Tests for the tt_sched parallel scheduling tier: the booking
   guarantee (never a deadlock at the sequential optimum), the splitting
   scheduler, the Pareto sweep, and — adversarially — the independent
   validator, which must reject every mutation class applied to a valid
   schedule. *)

module T = Tt_core.Tree
module P = Tt_core.Parallel
module S = Tt_sched
module H = Helpers

let arb_tree_procs = QCheck.pair (H.arb_tree ~size_max:14 ()) (QCheck.int_range 1 4)

let event_of_node (s : P.schedule) node =
  let found = ref None in
  Array.iter (fun (e : P.event) -> if e.P.node = node then found := Some e) s.P.events;
  Option.get !found

let start_of_node s node = (event_of_node s node).P.start

(* --- booking: the guarantee ---------------------------------------------- *)

let prop_booking_never_deadlocks =
  H.qcheck ~count:300 "booking succeeds at exactly the sequential optimum"
    arb_tree_procs (fun (t, procs) ->
      let work = S.Work.default t in
      let memory = Tt_core.Minmem.min_memory t in
      match S.Booking.run t ~procs ~memory ~work with
      | None -> false
      | Some (order, s) -> (
          match S.Validate.check ~activation:order t ~memory ~work s with
          | Ok () -> true
          | Error _ -> false))

let prop_greedy_fallback_never_fails =
  H.qcheck ~count:300
    "list_schedule never returns None for memory >= the optimum"
    arb_tree_procs (fun (t, procs) ->
      let work = S.Work.default t in
      let memory = Tt_core.Minmem.min_memory t in
      match P.list_schedule t ~procs ~memory ~work with
      | None -> false
      | Some s ->
          s.P.peak_memory <= memory
          && S.Validate.check t ~memory ~work s = Ok ())

let test_booking_corpus () =
  (* the guarantee on real assembly trees, not just random ones *)
  let corpus =
    Tt_workloads.Dataset.small_corpus ~seed:42
    |> List.filter (fun (i : Tt_workloads.Dataset.instance) -> T.size i.tree <= 150)
  in
  Alcotest.(check bool) "corpus has small instances" true (List.length corpus >= 3);
  List.iter
    (fun (inst : Tt_workloads.Dataset.instance) ->
      let t = inst.tree in
      let work = S.Work.default t in
      let memory = Tt_core.Minmem.min_memory t in
      match S.Booking.run t ~procs:4 ~memory ~work with
      | None -> Alcotest.failf "booking deadlocked on %s at the optimum" inst.name
      | Some (order, s) -> (
          match S.Validate.check ~activation:order t ~memory ~work s with
          | Ok () -> ()
          | Error v ->
              Alcotest.failf "%s: %s" inst.name (S.Validate.violation_to_string v)))
    corpus

let test_booking_below_optimum () =
  (* below the activation order's peak the loop must report None, not spin *)
  let t = Tt_core.Instances.star ~branches:4 ~f_root:2 ~f_leaf:3 ~n:1 in
  let work = S.Work.default t in
  let memory = Tt_core.Minmem.min_memory t - 1 in
  match S.Booking.run t ~procs:2 ~memory ~work with
  | None -> ()
  | Some _ -> Alcotest.fail "booking claimed success below the optimum"

(* --- splitting ------------------------------------------------------------ *)

let prop_split_validates =
  H.qcheck ~count:300 "split schedules pass the validator at their own peak"
    arb_tree_procs (fun (t, procs) ->
      let work = S.Work.default t in
      let s = S.Split.run t ~procs ~work in
      S.Validate.check t ~memory:s.P.peak_memory ~work s = Ok ())

let prop_split_one_proc_sequential =
  H.qcheck ~count:200 "one processor degenerates to the sequential makespan"
    (H.arb_tree ~size_max:14 ()) (fun t ->
      let work = S.Work.default t in
      let s = S.Split.run t ~procs:1 ~work in
      s.P.makespan = P.sequential_makespan t ~work)

let prop_split_respects_bounds =
  H.qcheck ~count:200 "critical path <= split makespan <= sequential sum"
    arb_tree_procs (fun (t, procs) ->
      let work = S.Work.default t in
      let s = S.Split.run t ~procs ~work in
      P.critical_path t ~work <= s.P.makespan
      && s.P.makespan <= P.sequential_makespan t ~work)

(* --- Pareto sweep --------------------------------------------------------- *)

let prop_pareto_deterministic =
  H.qcheck ~count:50 "two identical sweeps produce the same digest"
    (QCheck.pair (H.arb_tree ~size_max:10 ()) (QCheck.int_range 1 4))
    (fun (t, procs) ->
      let work = S.Work.default t in
      let a = S.Pareto.sweep ~steps:4 t ~procs ~work in
      let b = S.Pareto.sweep ~steps:4 t ~procs ~work in
      S.Pareto.digest a = S.Pareto.digest b)

let prop_pareto_frontier_non_dominated =
  H.qcheck ~count:50 "the frontier is the non-dominated subset"
    (QCheck.pair (H.arb_tree ~size_max:10 ()) (QCheck.int_range 1 4))
    (fun (t, procs) ->
      let work = S.Work.default t in
      let points = S.Pareto.sweep ~steps:4 t ~procs ~work in
      let front = S.Pareto.frontier points in
      let dominates (a : S.Pareto.point) (b : S.Pareto.point) =
        a.peak <= b.peak && a.makespan <= b.makespan
        && (a.peak < b.peak || a.makespan < b.makespan)
      in
      (* no sweep point strictly dominates a frontier point … *)
      List.for_all
        (fun fp -> not (List.exists (fun p -> dominates p fp) points))
        front
      (* … and the frontier is sorted: peaks up, makespans strictly down *)
      && fst
           (List.fold_left
              (fun (ok, prev) (p : S.Pareto.point) ->
                match prev with
                | None -> (ok, Some p)
                | Some (q : S.Pareto.point) ->
                    (ok && q.peak < p.peak && q.makespan > p.makespan, Some p))
              (true, None) front))

let prop_pareto_budgets_span =
  H.qcheck ~count:100 "budgets start at the optimum and rise monotonically"
    (H.arb_tree ~size_max:12 ()) (fun t ->
      let b = S.Pareto.budgets t ~steps:5 in
      let lo = Tt_core.Minmem.min_memory t in
      let hi = max lo (T.total_f t) in
      Array.length b >= 1
      && b.(0) = lo
      && b.(Array.length b - 1) <= hi
      && fst
           (Array.fold_left
              (fun (ok, prev) v -> ((ok && v > prev), v))
              (true, lo - 1) b))

(* the budget grid before it was computed without overflow, verbatim *)
let ref_budgets_from ~lo t ~steps =
  if steps < 1 then invalid_arg "Pareto.budgets: steps < 1";
  let hi = max lo (T.total_f t) in
  if steps = 1 || hi = lo then [| lo |]
  else begin
    let out = Array.make steps lo in
    for k = 0 to steps - 1 do
      out.(k) <- lo + ((hi - lo) * k / (steps - 1))
    done;
    (* the integer grid can repeat budgets on tiny ranges; keep firsts *)
    let seen = Hashtbl.create steps in
    Array.to_list out
    |> List.filter (fun b ->
           if Hashtbl.mem seen b then false
           else begin
             Hashtbl.add seen b ();
             true
           end)
    |> Array.of_list
  end

let prop_pareto_budgets_reference =
  H.qcheck ~count:300 "budgets equal the reference grid wherever it does not wrap"
    (QCheck.triple
       (H.arb_tree ~size_max:10 ~max_f:1000 ())
       (QCheck.int_range 1 3000) (QCheck.int_range 0 30))
    (fun (t, steps, scale) ->
      (* scale the files so spans range from a few words to 2^40 *)
      let t = T.map_weights ~f:(fun i -> t.T.f.(i) lsl scale) ~n:(fun i -> t.T.n.(i)) t in
      let lo = Tt_core.Minmem.min_memory t in
      let span = max lo (T.total_f t) - lo in
      QCheck.assume (steps = 1 || span <= max_int / (steps - 1));
      S.Pareto.budgets t ~steps = ref_budgets_from ~lo t ~steps)

(* a five-node tree with 2^60-word files: the interpolation product
   passes max_int on an 8-step grid *)
let huge_file_tree () =
  let big = 1 lsl 60 in
  T.make ~parent:[| -1; 0; 0; 0; 3 |] ~f:[| 0; big; big; 0; big |] ~n:[| 0; 0; 0; 0; 0 |]

let test_pareto_budgets_huge_files () =
  let t = huge_file_tree () in
  let lo = Tt_core.Minmem.min_memory t and hi = T.total_f t in
  Alcotest.(check bool) "the product wraps" true (hi - lo > max_int / 7);
  let b = S.Pareto.budgets t ~steps:8 in
  Alcotest.(check int) "eight budgets" 8 (Array.length b);
  Alcotest.(check int) "first is the optimum" lo b.(0);
  Alcotest.(check int) "last is total_f" hi b.(7);
  Array.iteri
    (fun k v ->
      let exact = float_of_int lo +. (float_of_int (hi - lo) *. float_of_int k /. 7.) in
      if Float.abs (float_of_int v -. exact) > 1e3 then
        Alcotest.failf "budget %d is %d, not near %.0f" k v exact;
      if k > 0 && v <= b.(k - 1) then Alcotest.failf "budget %d does not rise" k)
    b;
  let points = S.Pareto.sweep ~steps:8 t ~procs:2 ~work:(S.Work.default t) in
  Alcotest.(check bool) "the sweep reaches total_f" true
    (List.exists (fun (p : S.Pareto.point) -> p.budget = hi) points)

(* a million steps over a few distinct budgets allocate those budgets,
   not the grid *)
let test_pareto_steps_allocation () =
  let t = T.make ~parent:[| -1; 0; 0; 1; 1 |] ~f:[| 3; 5; 7; 4; 9 |] ~n:[| 1; 2; 0; 1; 0 |] in
  let lo = Tt_core.Minmem.min_memory t in
  let span = T.total_f t - lo in
  let bytes f =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let r = f () in
    (r, Gc.allocated_bytes () -. before)
  in
  let b, alloc = bytes (fun () -> S.Pareto.budgets t ~steps:1_000_000) in
  Alcotest.(check int) "every budget in the range" (span + 1) (Array.length b);
  if alloc >= 1e6 then Alcotest.failf "budgets at steps=10^6 allocated %.0f bytes" alloc;
  let _, alloc =
    bytes (fun () -> S.Pareto.sweep ~steps:1_000_000 t ~procs:2 ~work:(S.Work.default t))
  in
  if alloc >= 1e6 then Alcotest.failf "sweep at steps=10^6 allocated %.0f bytes" alloc

(* Split's per-subtree MinMem runs and the sweep's MinMem run take the
   caller's token: an expired one stops both. *)
let test_cancel_expired () =
  let t = T.random ~rng:(Tt_util.Rng.create 23) ~size:200 ~max_f:50 ~max_n:9 in
  let work = S.Work.default t in
  let expired = Tt_util.Cancel.create () in
  Tt_util.Cancel.cancel expired;
  let cancelled name f =
    match f () with
    | _ -> Alcotest.failf "%s ran to completion on an expired token" name
    | exception Tt_util.Cancel.Cancelled -> ()
  in
  cancelled "Split.run" (fun () -> ignore (S.Split.run ~cancel:expired t ~procs:3 ~work));
  cancelled "Pareto.sweep" (fun () ->
      ignore (S.Pareto.sweep ~cancel:expired ~steps:4 t ~procs:3 ~work))

(* --- the validator under mutation ----------------------------------------
   Each property takes a schedule the validator accepts, applies one
   mutation class, and demands rejection — ideally with the violation
   that names the broken rule. *)

let booking_fixture (t, procs) =
  let work = S.Work.default t in
  let memory = Tt_core.Minmem.min_memory t in
  match S.Booking.run t ~procs ~memory ~work with
  | None -> QCheck.assume_fail ()
  | Some (order, s) -> (order, s, work)

let prop_validator_rejects_precedence_break =
  H.qcheck ~count:200 "moving a child onto its parent's start is a precedence break"
    arb_tree_procs (fun (t, procs) ->
      QCheck.assume (T.size t >= 2);
      let _, s, work = booking_fixture (t, procs) in
      (* the last event of a booking schedule is never the root (the root
         starts first in any out-tree traversal), so it has a parent *)
      let q = Array.length s.P.events in
      let victim = s.P.events.(q - 1).P.node in
      QCheck.assume (t.T.parent.(victim) >= 0);
      let parent = t.T.parent.(victim) in
      let parent_start =
        let found = ref 0 in
        Array.iter
          (fun (e : P.event) -> if e.P.node = parent then found := e.P.start)
          s.P.events;
        !found
      in
      let bad =
        { s with
          P.events =
            Array.map
              (fun (e : P.event) ->
                if e.P.node = victim then
                  { e with P.start = parent_start;
                    finish = parent_start + work victim }
                else e)
              s.P.events
        }
      in
      match S.Validate.check t ~memory:max_int ~work bad with
      | Error (S.Validate.Precedence _) -> true
      | _ -> false)

let prop_validator_rejects_budget_shrink =
  H.qcheck ~count:200 "shrinking the budget below the observed peak is a memory violation"
    arb_tree_procs (fun (t, procs) ->
      let _, s, work = booking_fixture (t, procs) in
      let peak = S.Validate.peak_usage t s in
      QCheck.assume (peak > 0);
      match S.Validate.check t ~memory:(peak - 1) ~work s with
      | Error (S.Validate.Memory _) -> true
      | _ -> false)

let prop_validator_rejects_proc_overlap =
  H.qcheck ~count:200 "collapsing processors onto one is an overlap"
    (QCheck.pair (H.arb_tree ~size_max:14 ()) (QCheck.int_range 2 4))
    (fun (t, procs) ->
      let work = S.Work.default t in
      let memory = (4 * T.total_f t) + (4 * T.max_mem_req t) + 16 in
      let s =
        match P.list_schedule t ~procs ~memory ~work with
        | Some s -> s
        | None -> QCheck.assume_fail ()
      in
      (* only meaningful when two tasks actually run concurrently *)
      let overlapping =
        Array.exists
          (fun (a : P.event) ->
            Array.exists
              (fun (b : P.event) ->
                a.P.node <> b.P.node && a.P.start < b.P.finish
                && b.P.start < a.P.finish)
              s.P.events)
          s.P.events
      in
      QCheck.assume overlapping;
      let bad =
        { s with
          P.events = Array.map (fun (e : P.event) -> { e with P.proc = 0 }) s.P.events
        }
      in
      match S.Validate.check t ~memory ~work bad with
      | Error (S.Validate.Overlap _) -> true
      | _ -> false)

let prop_validator_rejects_booking_perturbation =
  H.qcheck ~count:200 "perturbing the activation order breaks the booking discipline"
    arb_tree_procs (fun (t, procs) ->
      QCheck.assume (T.size t >= 3);
      let order, s, work = booking_fixture (t, procs) in
      let memory = Tt_core.Minmem.min_memory t in
      let start_of = Array.make (T.size t) 0 in
      Array.iter (fun (e : P.event) -> start_of.(e.P.node) <- e.P.start) s.P.events;
      (* find adjacent positions that may be swapped while remaining a
         valid traversal (not parent/child) and whose starts strictly
         rise — the swapped order then reads decreasing starts *)
      let p = Array.length order in
      let k = ref (-1) in
      for i = 1 to p - 1 do
        if
          !k < 0
          && t.T.parent.(order.(i)) <> order.(i - 1)
          && start_of.(order.(i)) > start_of.(order.(i - 1))
        then k := i
      done;
      QCheck.assume (!k >= 0);
      let perturbed = Array.copy order in
      let tmp = perturbed.(!k) in
      perturbed.(!k) <- perturbed.(!k - 1);
      perturbed.(!k - 1) <- tmp;
      match S.Validate.check ~activation:perturbed t ~memory ~work s with
      | Error (S.Validate.Booking _) -> true
      | _ -> false)

let prop_validator_rejects_event_swap =
  H.qcheck ~count:200 "swapping a parent/child pair of time slots is rejected"
    arb_tree_procs (fun (t, procs) ->
      QCheck.assume (T.size t >= 2);
      let _, s, work = booking_fixture (t, procs) in
      let q = Array.length s.P.events in
      let victim = s.P.events.(q - 1).P.node in
      QCheck.assume (t.T.parent.(victim) >= 0);
      let parent = t.T.parent.(victim) in
      QCheck.assume (start_of_node s parent < start_of_node s victim);
      let bad =
        { s with
          P.events =
            Array.map
              (fun (e : P.event) ->
                if e.P.node = victim then { (event_of_node s parent) with P.node = victim }
                else if e.P.node = parent then
                  { (event_of_node s victim) with P.node = parent }
                else e)
              s.P.events
        }
      in
      S.Validate.check t ~memory:max_int ~work bad <> Ok ())

let prop_validator_rejects_duplicate_node =
  H.qcheck ~count:200 "duplicating a node is malformed" arb_tree_procs
    (fun (t, procs) ->
      QCheck.assume (T.size t >= 2);
      let _, s, work = booking_fixture (t, procs) in
      let first = s.P.events.(0).P.node in
      let bad =
        { s with
          P.events =
            Array.mapi
              (fun k (e : P.event) ->
                if k = 1 then { e with P.node = first } else e)
              s.P.events
        }
      in
      match S.Validate.check t ~memory:max_int ~work bad with
      | Error (S.Validate.Malformed _) -> true
      | _ -> false)

let () =
  H.run "sched"
    [ ( "booking",
        [ prop_booking_never_deadlocks;
          prop_greedy_fallback_never_fails;
          H.case "corpus guarantee" test_booking_corpus;
          H.case "below optimum" test_booking_below_optimum
        ] );
      ( "split",
        [ prop_split_validates;
          prop_split_one_proc_sequential;
          prop_split_respects_bounds
        ] );
      ( "pareto",
        [ prop_pareto_deterministic;
          prop_pareto_frontier_non_dominated;
          prop_pareto_budgets_span;
          prop_pareto_budgets_reference;
          H.case "2^60-word files reach total_f" test_pareto_budgets_huge_files;
          H.case "steps = 10^6 allocates under 1 MB" test_pareto_steps_allocation
        ] );
      ("cancel", [ H.case "split and pareto stop on an expired token" test_cancel_expired ]);
      ( "validator mutations",
        [ prop_validator_rejects_precedence_break;
          prop_validator_rejects_budget_shrink;
          prop_validator_rejects_proc_overlap;
          prop_validator_rejects_booking_perturbation;
          prop_validator_rejects_event_swap;
          prop_validator_rejects_duplicate_node
        ] )
    ]

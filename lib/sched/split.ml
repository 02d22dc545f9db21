module T = Tt_core.Tree
module P = Tt_core.Parallel

(* The split: the tail in execution order, the frontier subtree roots
   heaviest first, and [assignment.(k)], the processor of
   [subtrees.(k)]. *)
type plan = { tail : int array; subtrees : int array; assignment : int array }

let subtree_work t ~work =
  let p = T.size t in
  let w = Array.make p 0 in
  Array.iter
    (fun i ->
      let acc = ref (work i) in
      for k = t.T.child_off.(i) to t.T.child_off.(i + 1) - 1 do
        acc := !acc + w.(t.T.child.(k))
      done;
      w.(i) <- !acc)
    (T.bottom_up_order t);
  w

(* Greedy makespan estimate for a candidate frontier: the tail runs
   first on one processor, then the subtrees are sheet-metal packed onto
   [procs] workers — bounded below by both the largest subtree and the
   average load. *)
let estimate ~procs ~tail_work ~max_w ~total_w =
  tail_work + max max_w ((total_w + procs - 1) / procs)

let plan t ~procs ~work =
  if procs < 1 then invalid_arg "Split.run: procs < 1";
  let p = T.size t in
  for i = 0 to p - 1 do
    if work i < 1 then invalid_arg "Split.run: work < 1"
  done;
  (* at most [p] subtrees run at once: clamping [procs] to [p] keeps
     the assignment below, and the estimate too, since a frontier of [k]
     subtrees has [max_w >= total_w / k >= total_w / p] *)
  let procs = min procs p in
  let w = subtree_work t ~work in
  (* SplitSubtrees (Eyraud-Dubois et al. 2014): repeatedly move the
     heaviest frontier subtree's root into the sequential tail and
     promote its children, keeping the iteration with the best makespan
     estimate. The max-heap keys by negated work; ties break toward the
     smaller node id, so the whole search is deterministic. *)
  let cap = max 8 (4 * procs) in
  let search () =
    let heap = Tt_util.Int_heap.create p in
    Tt_util.Int_heap.insert heap t.T.root (-w.(t.T.root));
    let tail_work = ref 0 in
    let total = ref w.(t.T.root) in
    let pops = ref 0 in
    let best =
      ref
        ( estimate ~procs ~tail_work:0 ~max_w:w.(t.T.root) ~total_w:!total,
          0 )
    in
    let stop = ref false in
    while (not !stop) && Tt_util.Int_heap.length heap < cap do
      let i, _ = Tt_util.Int_heap.min_elt heap in
      if T.is_leaf t i then stop := true
      else begin
        ignore (Tt_util.Int_heap.pop_min heap);
        incr pops;
        tail_work := !tail_work + work i;
        total := !total - work i;
        for k = t.T.child_off.(i) to t.T.child_off.(i + 1) - 1 do
          let c = t.T.child.(k) in
          Tt_util.Int_heap.insert heap c (-w.(c))
        done;
        let max_w = -snd (Tt_util.Int_heap.min_elt heap) in
        let e = estimate ~procs ~tail_work:!tail_work ~max_w ~total_w:!total in
        if e < fst !best then best := (e, !pops)
      end
    done;
    snd !best
  in
  let best_pops = search () in
  (* replay the deterministic search up to the winning iteration to
     materialize the tail (in pop order, a valid top-down prefix) and
     the parallel frontier *)
  let heap = Tt_util.Int_heap.create p in
  Tt_util.Int_heap.insert heap t.T.root (-w.(t.T.root));
  let tail = Array.make best_pops (-1) in
  for k = 0 to best_pops - 1 do
    let i, _ = Tt_util.Int_heap.pop_min heap in
    tail.(k) <- i;
    for j = t.T.child_off.(i) to t.T.child_off.(i + 1) - 1 do
      let c = t.T.child.(j) in
      Tt_util.Int_heap.insert heap c (-w.(c))
    done
  done;
  let subs = ref [] in
  while not (Tt_util.Int_heap.is_empty heap) do
    let i, _ = Tt_util.Int_heap.pop_min heap in
    subs := i :: !subs
  done;
  let subtrees = Array.of_list (List.rev !subs) in
  (* longest-processing-time assignment of subtrees to processors: each
     goes to the least-loaded processor, ties to the lowest index — the
     order of a heap keyed by load over processor ids. Every subtree
     weighs at least 1, so the first [k] subtrees take processors
     [0, k) and no other processor is ever chosen. *)
  let width = min procs (Array.length subtrees) in
  let loads = Tt_util.Int_heap.create width in
  for q = 0 to width - 1 do
    Tt_util.Int_heap.insert loads q 0
  done;
  let assignment =
    Array.map
      (fun r ->
        let q, load = Tt_util.Int_heap.pop_min loads in
        Tt_util.Int_heap.insert loads q (load + w.(r));
        q)
      subtrees
  in
  { tail; subtrees; assignment }

(* MinMem-optimal traversal of the subtree rooted at [r], expressed in
   the parent tree's node ids. [index] maps a node to its id within its
   subtree; subtrees are disjoint and every lookup is for a node of the
   current subtree, so one array serves them all. *)
let subtree_order ?cancel t ~index r =
  let nodes = ref [] in
  let count = ref 0 in
  let rec visit i =
    nodes := i :: !nodes;
    incr count;
    for k = t.T.child_off.(i) to t.T.child_off.(i + 1) - 1 do
      visit t.T.child.(k)
    done
  in
  visit r;
  let nodes = Array.of_list (List.rev !nodes) in
  let q = !count in
  if q = 1 then [| r |]
  else begin
    Array.iteri (fun k i -> index.(i) <- k) nodes;
    let parent =
      Array.map (fun i -> if i = r then -1 else index.(t.T.parent.(i))) nodes
    in
    let f = Array.map (fun i -> t.T.f.(i)) nodes in
    let n = Array.map (fun i -> t.T.n.(i)) nodes in
    let sub = T.make ~parent ~f ~n in
    let _, order = Tt_core.Minmem.run ?cancel sub in
    Array.map (fun k -> nodes.(k)) order
  end

let run ?cancel t ~procs ~work =
  let pl = plan t ~procs ~work in
  let p = T.size t in
  let proc = Array.make p 0 and start = Array.make p 0 and finish = Array.make p 0 in
  (* run node [i] on processor [q] from [at]; returns its finish time *)
  let run_at i q at =
    proc.(i) <- q;
    start.(i) <- at;
    finish.(i) <- at + work i;
    finish.(i)
  in
  (* the tail (the split-off top of the tree) runs first, sequentially
     on processor 0 — out-tree semantics: ancestors before subtrees *)
  let tail_end = Array.fold_left (fun at i -> run_at i 0 at) 0 pl.tail in
  (* each processor then runs its assigned subtrees back to back, every
     subtree in its own MinMem-optimal sequential order; the plan uses
     processors [0, min procs p) only *)
  let cursor = Array.make (min procs p) tail_end in
  let index = Array.make p 0 in
  Array.iteri
    (fun k r ->
      let q = pl.assignment.(k) in
      Array.iter
        (fun i -> cursor.(q) <- run_at i q cursor.(q))
        (subtree_order ?cancel t ~index r))
    pl.subtrees;
  let draft = P.of_runs ~proc ~start ~finish ~peak_memory:0 in
  { draft with P.peak_memory = Validate.peak_usage t draft }

module T = Tt_core.Tree
module P = Tt_core.Parallel

type plan = {
  tail : int array;
  subtrees : int array;
  assignment : int array;
  tail_work : int;
}

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
  if procs < 1 then invalid_arg "Split.plan: procs < 1";
  let p = T.size t in
  for i = 0 to p - 1 do
    if work i < 1 then invalid_arg "Split.plan: work < 1"
  done;
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
  let tail_work = ref 0 in
  for k = 0 to best_pops - 1 do
    let i, _ = Tt_util.Int_heap.pop_min heap in
    tail.(k) <- i;
    tail_work := !tail_work + work i;
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
  (* longest-processing-time assignment of subtrees to processors *)
  let load = Array.make procs 0 in
  let assignment =
    Array.map
      (fun r ->
        let best = ref 0 in
        for q = 1 to procs - 1 do
          if load.(q) < load.(!best) then best := q
        done;
        load.(!best) <- load.(!best) + w.(r);
        !best)
      subtrees
  in
  { tail; subtrees; assignment; tail_work = !tail_work }

(* MinMem-optimal traversal of the subtree rooted at [r], expressed in
   the parent tree's node ids. *)
let subtree_order t r =
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
    let index = Hashtbl.create q in
    Array.iteri (fun k i -> Hashtbl.add index i k) nodes;
    let parent =
      Array.map
        (fun i -> if i = r then -1 else Hashtbl.find index t.T.parent.(i))
        nodes
    in
    let f = Array.map (fun i -> t.T.f.(i)) nodes in
    let n = Array.map (fun i -> t.T.n.(i)) nodes in
    let sub = T.make ~parent ~f ~n in
    let _, order = Tt_core.Minmem.run sub in
    Array.map (fun k -> nodes.(k)) order
  end

let run ?plan:given t ~procs ~work =
  if procs < 1 then invalid_arg "Split.run: procs < 1";
  let pl = match given with Some pl -> pl | None -> plan t ~procs ~work in
  let events = Tt_util.Dynarray_compat.create () in
  (* the tail (the split-off top of the tree) runs first, sequentially
     on processor 0 — out-tree semantics: ancestors before subtrees *)
  let time = ref 0 in
  Array.iter
    (fun i ->
      Tt_util.Dynarray_compat.add_last events
        { P.node = i; proc = 0; start = !time; finish = !time + work i };
      time := !time + work i)
    pl.tail;
  let tail_end = !time in
  (* each processor then runs its assigned subtrees back to back, every
     subtree in its own MinMem-optimal sequential order *)
  let cursor = Array.make procs tail_end in
  Array.iteri
    (fun k r ->
      let q = pl.assignment.(k) in
      Array.iter
        (fun i ->
          Tt_util.Dynarray_compat.add_last events
            { P.node = i; proc = q; start = cursor.(q); finish = cursor.(q) + work i };
          cursor.(q) <- cursor.(q) + work i)
        (subtree_order t r))
    pl.subtrees;
  let evs = Tt_util.Dynarray_compat.to_array events in
  Array.sort
    (fun (a : P.event) b -> compare (a.start, a.node) (b.start, b.node))
    evs;
  let makespan = Array.fold_left (fun acc (e : P.event) -> max acc e.finish) 0 evs in
  let draft = { P.events = evs; makespan; peak_memory = 0 } in
  { draft with P.peak_memory = Validate.peak_usage t draft }

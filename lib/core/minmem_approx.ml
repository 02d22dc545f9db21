type bounds = {
  lower : int;
  upper : int;
  order : int array;
  seg_cap : int;
  rounds : int;
  exact : bool;
}

let gap b =
  if b.upper = 0 then 0.
  else float_of_int (b.upper - b.lower) /. float_of_int b.upper

(* ------------------------------------------------------------------ *)
(* Lower bound: bounded-profile Liu on numbers only. Profiles are the
   canonical hill/valley pairs of [Segments], packed per node as
   [|h0; v0; h1; v1; ...|] — no segment records and no node ropes, so
   the pass allocates a few dozen bytes per node instead of retaining an
   O(p) rope structure. The push/merge/append rules below transcribe
   [Segments.push_canonical], [merge2], [merge_array] and
   [append_parent]; with an unbounded cap the computed root peak equals
   [Liu_exact.min_memory] exactly (pinned by the property tests). *)

(* push (h, v) onto the canonical stack [buf.(0 .. 2n-1)], fusing while
   costs fail to strictly decrease or valleys fail to strictly increase;
   returns the new segment count *)
let npush buf n h v =
  let n = ref n and h = ref h in
  let continue_ = ref true in
  while !continue_ && !n > 0 do
    let th = buf.(2 * !n - 2) and tv = buf.(2 * !n - 1) in
    if !h - v >= th - tv || tv >= v then begin
      decr n;
      if th > !h then h := th
    end
    else continue_ := false
  done;
  buf.(2 * !n) <- !h;
  buf.(2 * !n + 1) <- v;
  !n + 1

let nmerge2 a b buf =
  let la = Array.length a / 2 and lb = Array.length b / 2 in
  let n = ref 0 in
  let ia = ref 0 and ib = ref 0 in
  let ca = ref 0 and cb = ref 0 in
  let total = ref 0 in
  while !ia < la || !ib < lb do
    let from_a =
      !ia < la
      && (!ib >= lb
         || a.(2 * !ia) - a.((2 * !ia) + 1) >= b.(2 * !ib) - b.((2 * !ib) + 1))
    in
    let h, v, contrib =
      if from_a then (a.(2 * !ia), a.((2 * !ia) + 1), ca)
      else (b.(2 * !ib), b.((2 * !ib) + 1), cb)
    in
    let base = !total - !contrib in
    n := npush buf !n (h + base) (v + base);
    total := base + v;
    contrib := v;
    if from_a then incr ia else incr ib
  done;
  !n

let nmerge_k arr buf =
  let k = Array.length arr in
  let idx = Array.make k 0 in
  let contrib = Array.make k 0 in
  let total = ref 0 in
  let segs c = Array.length arr.(c) / 2 in
  let cost_of c i = arr.(c).(2 * i) - arr.(c).((2 * i) + 1) in
  let heap = Tt_util.Int_heap.create k in
  for c = 0 to k - 1 do
    if segs c > 0 then Tt_util.Int_heap.insert heap c (-cost_of c 0)
  done;
  let n = ref 0 in
  while not (Tt_util.Int_heap.is_empty heap) do
    let c, _ = Tt_util.Int_heap.pop_min heap in
    let i = idx.(c) in
    let h = arr.(c).(2 * i) and v = arr.(c).((2 * i) + 1) in
    let base = !total - contrib.(c) in
    n := npush buf !n (h + base) (v + base);
    total := base + v;
    contrib.(c) <- v;
    idx.(c) <- i + 1;
    if idx.(c) < segs c then Tt_util.Int_heap.insert heap c (-cost_of c idx.(c))
  done;
  !n

(* returns (certified lower bound, whether any truncation happened) *)
let lower_bound t ~cap =
  let p = Tree.size t in
  let { Tree.child_off; child; f; _ } = t in
  let prof : int array array = Array.make p [||] in
  let truncated = ref false in
  let peak = ref 0 in
  (* shared scratch, regrown on demand: one merge is live at a time *)
  let scratch = ref (Array.make 64 0) in
  let ensure len = if Array.length !scratch < len then scratch := Array.make len 0 in
  Array.iter
    (fun i ->
      let off = child_off.(i) in
      let deg = child_off.(i + 1) - off in
      let total_segs = ref 1 in
      for k = off to off + deg - 1 do
        total_segs := !total_segs + (Array.length prof.(child.(k)) / 2)
      done;
      ensure (2 * !total_segs);
      let buf = !scratch in
      let n =
        match deg with
        | 0 -> 0
        | 1 ->
            let a = prof.(child.(off)) in
            Array.blit a 0 buf 0 (Array.length a);
            Array.length a / 2
        | 2 -> nmerge2 prof.(child.(off)) prof.(child.(off + 1)) buf
        | _ -> nmerge_k (Array.init deg (fun k -> prof.(child.(off + k)))) buf
      in
      let hill = Tree.mem_req t i and valley = f.(i) in
      if hill < valley then
        invalid_arg "Minmem_approx.lower_bound: mem_req < f";
      let n = npush buf n hill valley in
      if i = t.Tree.root then
        (* the relaxed optimum is the root's pre-truncation peak *)
        for j = 0 to n - 1 do
          if buf.(2 * j) > !peak then peak := buf.(2 * j)
        done
      else begin
        let m = if n <= cap then n else cap in
        let out = Array.make (2 * m) 0 in
        if n <= cap then Array.blit buf 0 out 0 (2 * n)
        else begin
          (* minorant truncation: keep the cap-1 costliest segments, park
             the tail at the final valley with a zero-cost segment *)
          truncated := true;
          Array.blit buf 0 out 0 (2 * (cap - 1));
          let vm = buf.((2 * n) - 1) in
          out.((2 * cap) - 2) <- vm;
          out.((2 * cap) - 1) <- vm
        end;
        prof.(i) <- out;
        for k = off to off + deg - 1 do
          prof.(child.(k)) <- [||]
        done
      end)
    (Tree.bottom_up_order t);
  (!peak, !truncated)

(* ------------------------------------------------------------------ *)
(* Upper bound refinement: bounded-profile Liu with majorant truncation,
   carrying real node ropes so a concrete traversal can be emitted. The
   emitted order is valid by construction (truncation only concatenates
   adjacent segments, preserving the children-before-parent in-tree
   order), and its peak is measured by simulation — the certificate does
   not rest on the truncation argument. *)

let bounded_upper_order t ~cap =
  let p = Tree.size t in
  let { Tree.child_off; child; _ } = t in
  let prof : Segments.t array = Array.make p Segments.empty in
  Array.iter
    (fun i ->
      let off = child_off.(i) in
      let deg = child_off.(i + 1) - off in
      let merged =
        Segments.merge_array (Array.init deg (fun k -> prof.(child.(off + k))))
      in
      let appended =
        Segments.append_parent merged ~hill:(Tree.mem_req t i)
          ~valley:t.Tree.f.(i) ~node:i
      in
      prof.(i) <- Segments.truncate_upper appended ~cap;
      if i <> t.Tree.root then
        for k = off to off + deg - 1 do
          prof.(child.(k)) <- Segments.empty
        done)
    (Tree.bottom_up_order t);
  let order = Array.make p 0 in
  let k = ref p in
  Segments.iter_nodes prof.(t.Tree.root) (fun i ->
      decr k;
      order.(!k) <- i);
  order

(* ------------------------------------------------------------------ *)

let run ?(seg_cap = 8) ?(tol = 0.01) ?(max_rounds = 3)
    ?(exact_threshold = 20_000) t =
  if seg_cap < 2 then invalid_arg "Minmem_approx.run: seg_cap < 2";
  if tol < 0. then invalid_arg "Minmem_approx.run: tol < 0";
  if max_rounds < 0 then invalid_arg "Minmem_approx.run: max_rounds < 0";
  let p = Tree.size t in
  if p <= exact_threshold then begin
    let peak, order = Liu_exact.run t in
    { lower = peak; upper = peak; order; seg_cap = 0; rounds = 0; exact = true }
  end
  else begin
    let cap = ref seg_cap in
    let lb, lb_truncated =
      let l, tr = lower_bound t ~cap:!cap in
      (ref l, ref tr)
    in
    let ub, order0 = Postorder_opt.run t in
    let best_ub = ref ub and best_order = ref order0 in
    let gap_ok () =
      float_of_int (!best_ub - !lb) <= tol *. float_of_int !best_ub
    in
    let rounds = ref 0 in
    while (not (gap_ok ())) && !rounds < max_rounds do
      incr rounds;
      (* try a certified traversal from the majorant pass at this cap *)
      let order' = bounded_upper_order t ~cap:!cap in
      let pk = Traversal.peak t order' in
      if pk < !best_ub then begin
        best_ub := pk;
        best_order := order'
      end;
      if not (gap_ok ()) then begin
        cap := !cap * 4;
        if !lb_truncated then begin
          let l, tr = lower_bound t ~cap:!cap in
          if l > !lb then lb := l;
          lb_truncated := tr
        end
      end
    done;
    {
      lower = !lb;
      upper = !best_ub;
      order = !best_order;
      seg_cap = !cap;
      rounds = !rounds;
      exact = (not !lb_truncated) && !lb = !best_ub;
    }
  end

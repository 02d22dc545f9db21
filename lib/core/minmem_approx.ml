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
(* Both bounds come from one bottom-up pass of bounded-profile Liu on
   numbers, over a few flat int arrays reused for the whole solve:

   - one children-first order ({!Tree.children_first_order}), so the
     profiles of a node's children are the top [deg] profiles of one
     growable stack, in CSR order;
   - the stack itself: a profile is its canonical segments packed
     contiguously, [w] ints each, and [starts] holds where each live
     profile begins. A node merges its children's profiles into [buf],
     pushes its own execution, truncates, and replaces them on the stack
     by the result;
   - for the majorant ([w = 4]), each segment also carries the first
     and last node of the nodes it runs, threaded through one [next]
     array: fusing two segments links the first one's last node to the
     second one's first node, so sequences concatenate in O(1) and the
     root's profile reads out the whole traversal. [next] is reused
     across refinement rounds: a round rewrites every link it reads.

   The push, merge and truncation rules transcribe
   [Segments.push_canonical], [merge2], [merge_array], [append_parent],
   [truncate_lower] and [truncate_upper]; with an unbounded cap the
   lower pass's root peak equals [Liu_exact.min_memory] exactly (pinned
   by the property tests). *)

type work = {
  order : int array;
  heap : Tt_util.Int_heap.t;  (* k-way merge over child positions *)
  idx : int array;  (* per child position: offset of its next segment *)
  contrib : int array;  (* per child position: its current valley *)
  mutable stack : int array;
  mutable starts : int array;
  mutable buf : int array;
  mutable next : int array;  (* [||] until the first majorant pass *)
}

let work t =
  let { Tree.child_off; _ } = t in
  let maxdeg = ref 1 in
  for i = 0 to Tree.size t - 1 do
    let d = child_off.(i + 1) - child_off.(i) in
    if d > !maxdeg then maxdeg := d
  done;
  { order = Tree.children_first_order t;
    heap = Tt_util.Int_heap.create !maxdeg;
    idx = Array.make !maxdeg 0;
    contrib = Array.make !maxdeg 0;
    stack = Array.make 1024 0;
    starts = Array.make 256 0;
    buf = Array.make 1024 0;
    next = [||]
  }

(* [a] with room for [need] ints, its first [keep] ints preserved *)
let grow a ~keep need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 keep;
    b
  end

(* Push segment [(h, v)], running nodes [hd .. tl] when [w = 4], onto
   the [n] canonical segments at [a.(0 ..)], fusing while costs fail to
   strictly decrease or valleys fail to strictly increase; returns the
   new count. A fused segment runs the lower segment's nodes first. *)
let push next w a n h v hd tl =
  let n = ref n and h = ref h and hd = ref hd in
  let continue_ = ref true in
  while !continue_ && !n > 0 do
    let o = w * (!n - 1) in
    let th = a.(o) and tv = a.(o + 1) in
    if !h - v >= th - tv || tv >= v then begin
      decr n;
      if th > !h then h := th;
      if w = 4 then begin
        next.(a.(o + 3)) <- !hd;
        hd := a.(o + 2)
      end
    end
    else continue_ := false
  done;
  let o = w * !n in
  a.(o) <- !h;
  a.(o + 1) <- v;
  if w = 4 then begin
    a.(o + 2) <- !hd;
    a.(o + 3) <- tl
  end;
  !n + 1

(* Interleave two profiles of [src] (at offsets [oa], [ob], [la] and
   [lb] segments) into [dst] by non-increasing cost, [a] first on ties *)
let merge2 next w src oa la ob lb dst =
  let n = ref 0 and ia = ref 0 and ib = ref 0 in
  let ca = ref 0 and cb = ref 0 and total = ref 0 in
  while !ia < la || !ib < lb do
    let from_a =
      !ia < la
      && (!ib >= lb
         ||
         let x = oa + (w * !ia) and y = ob + (w * !ib) in
         src.(x) - src.(x + 1) >= src.(y) - src.(y + 1))
    in
    let o = if from_a then oa + (w * !ia) else ob + (w * !ib) in
    let h = src.(o) and v = src.(o + 1) in
    let base = !total - if from_a then !ca else !cb in
    let hd = if w = 4 then src.(o + 2) else 0 and tl = if w = 4 then src.(o + 3) else 0 in
    n := push next w dst !n (h + base) (v + base) hd tl;
    total := base + v;
    if from_a then begin
      ca := v;
      incr ia
    end
    else begin
      cb := v;
      incr ib
    end
  done;
  !n

(* Interleave the [k] profiles of [src] that start at [starts.(first
   ..)] (the last one ends at [top]) into [dst]: a heap on negated cost
   that breaks ties on the smaller child position. Every profile holds
   at least one segment. *)
let merge_k wk w src first k top dst =
  let { heap; idx; contrib; starts; next; _ } = wk in
  for c = 0 to k - 1 do
    let o = starts.(first + c) in
    idx.(c) <- o;
    contrib.(c) <- 0;
    Tt_util.Int_heap.insert heap c (src.(o + 1) - src.(o))
  done;
  let n = ref 0 and total = ref 0 in
  while not (Tt_util.Int_heap.is_empty heap) do
    let c = Tt_util.Int_heap.pop heap in
    let o = idx.(c) in
    let h = src.(o) and v = src.(o + 1) in
    let base = !total - contrib.(c) in
    let hd = if w = 4 then src.(o + 2) else 0 and tl = if w = 4 then src.(o + 3) else 0 in
    n := push next w dst !n (h + base) (v + base) hd tl;
    total := base + v;
    contrib.(c) <- v;
    let o = o + w in
    idx.(c) <- o;
    (* a child's profile ends where the next one starts *)
    if o < (if c = k - 1 then top else starts.(first + c + 1)) then
      Tt_util.Int_heap.insert heap c (src.(o + 1) - src.(o))
  done;
  !n

(* One bottom-up pass at [cap]. The minorant ([upper = false], [w = 2])
   truncates a profile by keeping its cap-1 costliest segments and
   parking the tail at the final valley with a zero-cost segment, and
   returns the root's pre-truncation peak and whether any truncation
   happened. The majorant ([upper = true], [w = 4]) fuses the tail into
   one segment instead, and writes the root profile's nodes, reversed
   into out-tree order, to [out]. *)
let pass wk t ~upper ~cap ~out =
  let w = if upper then 4 else 2 in
  let { Tree.child_off; f; root; _ } = t in
  if upper && Array.length wk.next = 0 then wk.next <- Array.make (Tree.size t) 0;
  let next = wk.next in
  let top = ref 0 and nprof = ref 0 in
  let peak = ref 0 and truncated = ref false in
  Array.iter
    (fun i ->
      let deg = child_off.(i + 1) - child_off.(i) in
      let first = !nprof - deg in
      let base = if deg = 0 then !top else wk.starts.(first) in
      wk.buf <- grow wk.buf ~keep:0 (!top - base + w);
      let buf = wk.buf and stack = wk.stack in
      let n =
        match deg with
        | 0 -> 0
        | 1 ->
            Array.blit stack base buf 0 (!top - base);
            (!top - base) / w
        | 2 ->
            let mid = wk.starts.(first + 1) in
            merge2 next w stack base ((mid - base) / w) mid ((!top - mid) / w) buf
        | _ -> merge_k wk w stack first deg !top buf
      in
      let hill = Tree.mem_req t i and valley = f.(i) in
      if hill < valley then invalid_arg "Minmem_approx.lower_bound: mem_req < f";
      let n = push next w buf n hill valley i i in
      if i = root then begin
        if upper then begin
          (* the root is last: every node is in its profile, and
             truncating would not reorder them *)
          let k = ref (Array.length out) in
          for j = 0 to n - 1 do
            let x = ref buf.((w * j) + 2) in
            let last = buf.((w * j) + 3) in
            decr k;
            out.(!k) <- !x;
            while !x <> last do
              x := next.(!x);
              decr k;
              out.(!k) <- !x
            done
          done
        end
        else
          (* the relaxed optimum is the root's pre-truncation peak *)
          for j = 0 to n - 1 do
            if buf.(w * j) > !peak then peak := buf.(w * j)
          done
      end
      else begin
        let m =
          if n <= cap then n
          else begin
            let keep = cap - 1 in
            let vm = buf.((w * (n - 1)) + 1) in
            if upper then begin
              (* fuse the tail: the max tail hill, the final valley, the
                 tail's nodes run back to back *)
              let o = w * keep in
              for j = keep + 1 to n - 1 do
                let oj = w * j in
                if buf.(oj) > buf.(o) then buf.(o) <- buf.(oj);
                next.(buf.(oj - w + 3)) <- buf.(oj + 2)
              done;
              buf.(o + 1) <- vm;
              buf.(o + 3) <- buf.((w * (n - 1)) + 3)
            end
            else begin
              truncated := true;
              buf.(w * keep) <- vm;
              buf.((w * keep) + 1) <- vm
            end;
            cap
          end
        in
        wk.stack <- grow stack ~keep:base (base + (w * m));
        Array.blit buf 0 wk.stack base (w * m);
        top := base + (w * m);
        wk.starts <- grow wk.starts ~keep:first (first + 1);
        wk.starts.(first) <- base;
        nprof := first + 1
      end)
    wk.order;
  (!peak, !truncated)

let lower_bound wk t ~cap = pass wk t ~upper:false ~cap ~out:[||]

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
    let wk = work t in
    let cap = ref seg_cap in
    let lb, lb_truncated =
      let l, tr = lower_bound wk t ~cap:!cap in
      (ref l, ref tr)
    in
    let ub, order0 = Postorder_opt.run t in
    let best_ub = ref ub and best_order = ref order0 in
    (* a round writes its order into [spare], never into the best one;
       a beaten best order becomes the next spare *)
    let spare = ref [||] in
    let gap_ok () =
      float_of_int (!best_ub - !lb) <= tol *. float_of_int !best_ub
    in
    let rounds = ref 0 in
    while (not (gap_ok ())) && !rounds < max_rounds do
      incr rounds;
      (* try a traversal from the majorant pass at this cap. It is valid
         by construction (truncation only concatenates adjacent
         segments, preserving the children-before-parent in-tree
         order), and its peak is measured by simulation: the
         certificate does not rest on the truncation argument. *)
      if Array.length !spare = 0 then spare := Array.make p 0;
      ignore (pass wk t ~upper:true ~cap:!cap ~out:!spare);
      let pk = Traversal.peak t !spare in
      if pk < !best_ub then begin
        best_ub := pk;
        let beaten = !best_order in
        best_order := !spare;
        spare := beaten
      end;
      if not (gap_ok ()) then begin
        cap := !cap * 4;
        if !lb_truncated then begin
          let l, tr = lower_bound wk t ~cap:!cap in
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

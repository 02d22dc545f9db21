(* Exact minimum degree on the quotient graph, in flat arrays, with
   supervariables.

   Variables with the same closed neighborhood ("twins") stay twins and
   keep equal degrees, so they are kept as one supervariable: its
   principal is its smallest member, [size] counts its members (0 for
   any other variable), [mnext] chains them, and only principals are in
   the heap, keyed by the exact degree of a member. Popping the least
   (degree, principal) therefore finds the pivot of the one-at-a-time
   rule, and the whole block is eliminated at once: after a pivot of
   degree [d], its twins are the only variables of degree [d - 1], so
   the rule takes them next, by index.

   Each live principal [v] owns the slice [iw.(pe.(v) ..
   pe.(v) + len.(v) - 1)]: its [nv.(v)] adjacent variables first
   (original edges still alive), then its adjacent elements (eliminated
   principals whose clique contains [v]). Element [e]'s boundary is the
   slice [ew.(es.(e) .. es.(e) + el.(e) - 1)]. Entries naming a
   variable that has since joined another supervariable are stale and
   skipped: its twin's entries reach the same variables. Two invariants
   keep every update in place:
   - a live element's boundary names only live variables (eliminating
     any member absorbs the element);
   - adjacency is symmetric (every [Graph_adj.t] is), so each variable
     on a new element's boundary drops at least one entry (the pivot, or
     an element the pivot absorbed) for the one it gains, the new
     element. Its slice never grows.
   [mark] holds stamps: the new boundary keeps one stamp for the whole
   step, and each comparison or degree count takes a fresh, larger
   one. *)

(* [g]'s lists as one flat array: [v]'s list is [iw.(pe.(v) ..
   pe.(v + 1) - 1)] *)
let flatten (g : Graph_adj.t) =
  let n = g.Graph_adj.n and adj = g.Graph_adj.adj in
  let pe = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    pe.(v + 1) <- pe.(v) + Array.length adj.(v)
  done;
  let iw = Array.make pe.(n) 0 in
  Array.iteri (fun v a -> Array.blit a 0 iw pe.(v) (Array.length a)) adj;
  (pe, iw)

let order (g : Graph_adj.t) =
  let n = g.Graph_adj.n in
  let pe, iw = flatten g in
  let len = Array.init n (fun v -> pe.(v + 1) - pe.(v)) in
  let nv = Array.copy len in
  let size = Array.make n 1 and mnext = Array.make n (-1) and mlast = Array.init n Fun.id in
  let eliminated = Array.make n false and absorbed = Array.make n false in
  (* Live boundaries hold at most one word per variable-list slot, so
     after a compaction [ew] has room for [pe.(n) + n] more words, more
     than one boundary; compactions are paid for by the appends between
     them. [elts] lists the elements in creation order. *)
  let ew = Array.make (2 * (pe.(n) + n)) 0 in
  let es = Array.make n 0 and el = Array.make n 0 in
  let elts = Array.make n 0 and nelts = ref 0 in
  let top = ref 0 in
  let compact () =
    top := 0;
    for k = 0 to !nelts - 1 do
      let e = elts.(k) in
      if not absorbed.(e) then begin
        Array.blit ew es.(e) ew !top el.(e);
        es.(e) <- !top;
        top := !top + el.(e)
      end
    done
  in
  let mark = Array.make n 0 and stamp = ref 0 in
  let fresh () =
    incr stamp;
    !stamp
  in
  (* twin detection: boundary variables bucketed by a hash of their
     lists *)
  let hash = Array.make n 0 and bhead = Array.make n (-1) and bnext = Array.make n (-1) in
  let heap = Tt_util.Int_heap.create n in
  for v = 0 to n - 1 do
    Tt_util.Int_heap.insert heap v len.(v)
  done;
  (* [j]'s list is [i]'s, whose entries carry stamp [t] *)
  let twin i j t =
    len.(j) = len.(i)
    && nv.(j) = nv.(i)
    &&
    let lo = pe.(j) in
    let rec all q = q > lo + len.(j) - 1 || (mark.(iw.(q)) = t && all (q + 1)) in
    all lo
  in
  (* one block of twins [i] and [j]: the smaller keeps it, and the
     other's list is dropped *)
  let merge i j =
    let keep = min i j and drop = max i j in
    size.(keep) <- size.(keep) + size.(drop);
    size.(drop) <- 0;
    mnext.(mlast.(keep)) <- drop;
    mlast.(keep) <- mlast.(drop);
    Tt_util.Int_heap.remove heap drop;
    len.(drop) <- 0;
    nv.(drop) <- 0;
    keep
  in
  let perm = Array.make n (-1) in
  let step = ref 0 and left = ref n in
  (* Pivots of one twin class of the one-at-a-time rule come out as
     consecutive blocks, each at the previous degree minus the previous
     block's size (nothing else can reach that degree), but detection
     may split the class into several blocks. The rule takes the class
     by index, so each run of such blocks is sorted. *)
  let run = ref 0 and expect = ref (-1) in
  let close_run () =
    if !step - !run > 1 then begin
      let seg = Array.sub perm !run (!step - !run) in
      Array.sort Int.compare seg;
      Array.blit seg 0 perm !run (Array.length seg)
    end;
    run := !step
  in
  while !step < n do
    let p, deg = Tt_util.Int_heap.pop_min heap in
    if deg <> !expect then close_run ();
    if deg = !left - 1 then begin
      (* [p] is adjacent to every remaining variable and none has a
         smaller degree, so the rest is a clique. Eliminating from a
         clique leaves a clique, so the rule takes the rest by index. *)
      for v = 0 to n - 1 do
        if not eliminated.(v) then begin
          perm.(!step) <- v;
          incr step
        end
      done;
      run := n
    end
    else begin
      let s_p = size.(p) in
      let m = ref p in
      while !m >= 0 do
        perm.(!step) <- !m;
        eliminated.(!m) <- true;
        incr step;
        m := mnext.(!m)
      done;
      left := !left - s_p;
      expect := deg - s_p;
      size.(p) <- 0;
      (* the new element's boundary: the principals among [p]'s
         variables and in the boundaries of the elements it absorbs,
         [deg - s_p + 1] variables in all *)
      let ext = deg - s_p + 1 in
      if !top + ext > Array.length ew then compact ();
      let s = fresh () in
      let b0 = !top in
      let b = ref b0 in
      let lo = pe.(p) in
      let vend = lo + nv.(p) in
      for k = lo to vend - 1 do
        let u = iw.(k) in
        if size.(u) > 0 && mark.(u) <> s then begin
          mark.(u) <- s;
          ew.(!b) <- u;
          incr b
        end
      done;
      for k = vend to lo + len.(p) - 1 do
        let e = iw.(k) in
        for q = es.(e) to es.(e) + el.(e) - 1 do
          let u = ew.(q) in
          if size.(u) > 0 && mark.(u) <> s then begin
            mark.(u) <- s;
            ew.(!b) <- u;
            incr b
          end
        done;
        absorbed.(e) <- true
      done;
      let b1 = !b in
      es.(p) <- b0;
      el.(p) <- b1 - b0;
      elts.(!nelts) <- p;
      incr nelts;
      top := b1;
      (* Prune each boundary variable in place: drop the variables now
         reached through [p], stale entries and the absorbed elements,
         then append [p]. Bucket the variable by a hash of its list. *)
      for i = b0 to b1 - 1 do
        let v = ew.(i) in
        let lo = pe.(v) in
        let vend = lo + nv.(v) and eend = lo + len.(v) in
        let k = ref lo and h = ref p in
        for q = lo to vend - 1 do
          let u = iw.(q) in
          if mark.(u) <> s && size.(u) > 0 then begin
            iw.(!k) <- u;
            h := !h + u;
            incr k
          end
        done;
        let ve = !k in
        for q = vend to eend - 1 do
          let e = iw.(q) in
          if not absorbed.(e) then begin
            iw.(!k) <- e;
            h := !h + e;
            incr k
          end
        done;
        let ke = !k in
        assert (ke < eend);
        iw.(ke) <- p;
        nv.(v) <- ve - lo;
        len.(v) <- ke + 1 - lo;
        let slot = !h mod n in
        hash.(v) <- slot;
        bnext.(v) <- bhead.(slot);
        bhead.(slot) <- v
      done;
      (* merge twins: the same variables and elements, hence the same
         closed neighborhood; the smaller principal keeps the block *)
      for i = b0 to b1 - 1 do
        let slot = hash.(ew.(i)) in
        let a = ref bhead.(slot) in
        bhead.(slot) <- -1;
        while !a >= 0 do
          if size.(!a) > 0 then begin
            let cur = ref !a and t = fresh () in
            let lo = pe.(!cur) in
            for q = lo to lo + len.(!cur) - 1 do
              mark.(iw.(q)) <- t
            done;
            let c = ref bnext.(!a) in
            while !c >= 0 do
              let j = !c in
              if size.(j) > 0 && twin !cur j t then cur := merge !cur j;
              c := bnext.(j)
            done
          end;
          a := bnext.(!a)
        done
      done;
      (* Degrees: a member of [v]'s block reaches the other [ext - 1]
         variables of the new boundary, its twins among them, and what
         [v]'s own variables and other elements reach outside it. *)
      for i = b0 to b1 - 1 do
        let v = ew.(i) in
        if size.(v) > 0 then begin
          let t = fresh () in
          let lo = pe.(v) in
          let ve = lo + nv.(v) and ke = lo + len.(v) - 1 in
          let d = ref (ext - 1) in
          for q = lo to ve - 1 do
            let u = iw.(q) in
            mark.(u) <- t;
            d := !d + size.(u)
          done;
          for q = ve to ke - 1 do
            let e = iw.(q) in
            for r = es.(e) to es.(e) + el.(e) - 1 do
              let u = ew.(r) in
              let m = mark.(u) in
              if m <> s && m <> t && size.(u) > 0 then begin
                mark.(u) <- t;
                d := !d + size.(u)
              end
            done
          done;
          Tt_util.Int_heap.update heap v !d
        end
      done
    end
  done;
  if !run < n then close_run ();
  perm

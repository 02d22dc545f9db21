(* Differential tests for the hot-path optimizations: the indexed MinIO
   candidate set and MinIO's in-core shortcut, the array-backed segment
   calculus, the postorder child-sort reuse, the Explore cut
   compaction, the exact-size tree
   encoder and the symbolic pipeline's front end (minimum degree, nested
   dissection's subgraphs, the CSR pattern builders) must be
   {e behaviour-identical} to the straightforward
   implementations they replaced — same traversals, same tau vectors,
   same I/O volumes, same floats, same bytes — since the benchmark
   digests in BENCH_CORE.json and the job ids are compared
   across PRs. Each reference below is a verbatim transcription of the
   pre-optimization code. *)

module T = Tt_core.Tree
module Traversal = Tt_core.Traversal
module Io_schedule = Tt_core.Io_schedule
module Minio = Tt_core.Minio
module H = Helpers

(* the pre-optimization bottom-up order: polymorphic sort by decreasing
   depth (unstable within a level, unlike the counting sort that replaced
   it — the references prove the results do not depend on that order) *)
let seed_bottom_up t =
  let d = H.depth_of_children (H.children_of_parents t.T.parent) t.T.root in
  let order = Array.init (T.size t) (fun i -> i) in
  Array.sort (fun a b -> compare d.(b) d.(a)) order;
  order

(* --- reference MinIO: O(p) rescan + sort per deficit event -------------- *)

let ref_select policy s deficit =
  let total = Array.fold_left (fun acc (_, f) -> acc + f) 0 s in
  if total < deficit then None
  else begin
    let chosen = ref [] in
    let remaining = ref deficit in
    let available = Array.map (fun x -> (true, x)) s in
    let take i =
      let _, (_, f) = available.(i) in
      available.(i) <- (false, snd available.(i));
      chosen := i :: !chosen;
      remaining := !remaining - f
    in
    let lsnf_rest () =
      Array.iteri
        (fun i (free, (_, f)) -> if free && !remaining > 0 && f > 0 then take i)
        available
    in
    (match policy with
    | Minio.Lsnf -> lsnf_rest ()
    | Minio.First_fit -> begin
        let found = ref false in
        Array.iteri
          (fun i (free, (_, f)) ->
            if free && (not !found) && f >= !remaining then begin
              found := true;
              take i
            end)
          available;
        if not !found then lsnf_rest ()
      end
    | Minio.Best_fit ->
        let progress = ref true in
        while !remaining > 0 && !progress do
          let best = ref (-1) in
          let best_d = ref max_int in
          Array.iteri
            (fun i (free, (_, f)) ->
              if free && f > 0 then begin
                let d = abs (!remaining - f) in
                if d < !best_d then begin
                  best_d := d;
                  best := i
                end
              end)
            available;
          if !best < 0 then progress := false else take !best
        done;
        if !remaining > 0 then lsnf_rest ()
    | Minio.First_fill ->
        let progress = ref true in
        while !remaining > 0 && !progress do
          let found = ref (-1) in
          Array.iteri
            (fun i (free, (_, f)) ->
              if free && !found < 0 && f > 0 && f < !remaining then found := i)
            available;
          if !found < 0 then progress := false else take !found
        done;
        if !remaining > 0 then lsnf_rest ()
    | Minio.Best_fill ->
        let progress = ref true in
        while !remaining > 0 && !progress do
          let best = ref (-1) in
          let best_f = ref (-1) in
          Array.iteri
            (fun i (free, (_, f)) ->
              if free && f > 0 && f < !remaining && f > !best_f then begin
                best_f := f;
                best := i
              end)
            available;
          if !best < 0 then progress := false else take !best
        done;
        if !remaining > 0 then lsnf_rest ()
    | Minio.Best_k k ->
        let progress = ref true in
        while !remaining > 0 && !progress do
          let front = ref [] in
          Array.iteri
            (fun i (free, (_, f)) ->
              if free && f > 0 && List.length !front < k then front := (i, f) :: !front)
            available;
          let front = Array.of_list (List.rev !front) in
          let m = Array.length front in
          if m = 0 then progress := false
          else begin
            let best_mask = ref 0 and best_d = ref max_int and best_sum = ref 0 in
            for mask = 1 to (1 lsl m) - 1 do
              let sum = ref 0 in
              for b = 0 to m - 1 do
                if mask land (1 lsl b) <> 0 then sum := !sum + snd front.(b)
              done;
              let d = abs (!remaining - !sum) in
              if d < !best_d || (d = !best_d && !sum > !best_sum) then begin
                best_d := d;
                best_sum := !sum;
                best_mask := mask
              end
            done;
            if !best_sum = 0 then progress := false
            else
              for b = 0 to m - 1 do
                if !best_mask land (1 lsl b) <> 0 then take (fst front.(b))
              done
          end
        done;
        if !remaining > 0 then lsnf_rest ());
    Some !chosen
  end

let ref_minio_run tree ~memory ~order policy =
  let p = T.size tree in
  let children = H.children_of_parents tree.T.parent in
  let pos = Array.make p 0 in
  Array.iteri (fun step i -> pos.(i) <- step) order;
  let tau = Array.make p Io_schedule.never in
  let resident = Array.make p false in
  let evicted = Array.make p false in
  resident.(tree.T.root) <- true;
  let mavail = ref (memory - tree.T.f.(tree.T.root)) in
  let feasible = ref true in
  let step = ref 0 in
  while !feasible && !step < p do
    let k = !step in
    let j = order.(k) in
    let need =
      tree.T.f.(j) + tree.T.n.(j) + H.sum_f tree children.(j)
      - if evicted.(j) then 0 else tree.T.f.(j)
    in
    if need > !mavail then begin
      let deficit = need - !mavail in
      let cand = ref [] in
      for i = 0 to p - 1 do
        if resident.(i) && i <> j && tree.T.f.(i) > 0 then
          cand := (i, tree.T.f.(i)) :: !cand
      done;
      let s =
        Array.of_list (List.sort (fun (a, _) (b, _) -> compare pos.(b) pos.(a)) !cand)
      in
      match ref_select policy s deficit with
      | None -> feasible := false
      | Some indices ->
          List.iter
            (fun idx ->
              let i, fi = s.(idx) in
              resident.(i) <- false;
              evicted.(i) <- true;
              tau.(i) <- k;
              mavail := !mavail + fi)
            indices
    end;
    if !feasible then begin
      if evicted.(j) then begin
        evicted.(j) <- false;
        resident.(j) <- false;
        mavail := !mavail - tree.T.f.(j)
      end
      else resident.(j) <- false;
      mavail := !mavail + tree.T.f.(j) - H.sum_f tree children.(j);
      Array.iter (fun c -> resident.(c) <- true) children.(j);
      incr step
    end
  done;
  if !feasible then Some { Io_schedule.order; tau } else None

let ref_divisible_lower_bound tree ~memory ~order =
  let p = T.size tree in
  let children = H.children_of_parents tree.T.parent in
  let pos = Array.make p 0 in
  Array.iteri (fun step i -> pos.(i) <- step) order;
  let resident = Array.make p 0.0 in
  resident.(tree.T.root) <- float_of_int tree.T.f.(tree.T.root);
  let resident_total = ref resident.(tree.T.root) in
  let io = ref 0.0 in
  let feasible = ref true in
  let step = ref 0 in
  while !feasible && !step < p do
    let j = order.(!step) in
    let fj = float_of_int tree.T.f.(j) in
    let bring = fj -. resident.(j) in
    resident.(j) <- fj;
    resident_total := !resident_total +. bring;
    let working = float_of_int (tree.T.n.(j) + H.sum_f tree children.(j)) +. fj in
    let excess = !resident_total -. fj +. working -. float_of_int memory in
    if excess > 1e-9 then begin
      let cand = ref [] in
      for i = 0 to p - 1 do
        if i <> j && resident.(i) > 0.0 then cand := i :: !cand
      done;
      let cand = List.sort (fun a b -> compare pos.(b) pos.(a)) !cand in
      let remaining = ref excess in
      List.iter
        (fun i ->
          if !remaining > 1e-9 then begin
            let take = min resident.(i) !remaining in
            resident.(i) <- resident.(i) -. take;
            resident_total := !resident_total -. take;
            io := !io +. take;
            remaining := !remaining -. take
          end)
        cand;
      if !remaining > 1e-9 then feasible := false
    end;
    if !feasible then begin
      resident_total := !resident_total -. resident.(j);
      resident.(j) <- 0.0;
      Array.iter
        (fun c ->
          resident.(c) <- float_of_int tree.T.f.(c);
          resident_total := !resident_total +. resident.(c))
        children.(j);
      incr step
    end
  done;
  if !feasible then Some !io else None

(* --- reference MinIO: the parent's indexed simulation -------------------
   A verbatim copy of [Minio.run] before the in-core shortcut: a validity
   pre-pass, then the candidate index built and maintained on every
   call, fitting traversal or not. It runs on verbatim copies of the
   [Ordered_set] and [Min_tree] of that time (the functions MinIO
   calls), whose [add]/[remove] walked the levels through a closure
   that raised to stop, and whose [set] climbed to the root on every
   update. *)

module Parent_minio = struct
  module Ordered_set = struct
    (* A set of integers over a fixed universe [0, n), stored as a tower of
       bitset levels: level 0 holds one bit per element and each level above
       holds one summary bit per word below. All navigation operations touch
       one word per level, so they cost O(log n) with a base of
       [Sys.int_size] — three levels cover every tree this repo handles. *)

    let bits_per_word = Sys.int_size

    type t = {
      levels : int array array; (* levels.(0) = element bits, then summaries *)
      n : int;
      mutable card : int;
    }

    let words_for n = ((n + bits_per_word) - 1) / bits_per_word

    let create n =
      if n < 0 then invalid_arg "Ordered_set.create";
      let rec build acc len =
        let words = max 1 (words_for len) in
        let acc = Array.make words 0 :: acc in
        if words = 1 then List.rev acc else build acc words
      in
      { levels = Array.of_list (build [] n); n; card = 0 }

    let is_empty t = t.card = 0

    let check t i name =
      if i < 0 || i >= t.n then invalid_arg ("Ordered_set." ^ name ^ ": out of range")

    let mem t i =
      i >= 0 && i < t.n
      && t.levels.(0).(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

    let add t i =
      check t i "add";
      if not (mem t i) then begin
        t.card <- t.card + 1;
        let idx = ref i in
        (try
           Array.iter
             (fun words ->
               let w = !idx / bits_per_word and b = !idx mod bits_per_word in
               let before = words.(w) in
               words.(w) <- before lor (1 lsl b);
               (* a word that was already non-empty is already summarized *)
               if before <> 0 then raise Exit;
               idx := w)
             t.levels
         with Exit -> ())
      end

    let remove t i =
      if mem t i then begin
        t.card <- t.card - 1;
        let idx = ref i in
        (try
           Array.iter
             (fun words ->
               let w = !idx / bits_per_word and b = !idx mod bits_per_word in
               words.(w) <- words.(w) land lnot (1 lsl b);
               (* summaries above stay valid while the word is non-empty *)
               if words.(w) <> 0 then raise Exit;
               idx := w)
             t.levels
         with Exit -> ())
      end

    (* index of the highest set bit; [x] must be non-zero *)
    let top_bit x =
      let r = ref 0 and x = ref x in
      if !x lsr 32 <> 0 then begin r := !r + 32; x := !x lsr 32 end;
      if !x lsr 16 <> 0 then begin r := !r + 16; x := !x lsr 16 end;
      if !x lsr 8 <> 0 then begin r := !r + 8; x := !x lsr 8 end;
      if !x lsr 4 <> 0 then begin r := !r + 4; x := !x lsr 4 end;
      if !x lsr 2 <> 0 then begin r := !r + 2; x := !x lsr 2 end;
      if !x lsr 1 <> 0 then r := !r + 1;
      !r

    (* index of the lowest set bit; [x] must be non-zero *)
    let bottom_bit x = top_bit (x land -x)

    (* largest element of level [l] whose word-path runs through word [w];
       every level at or below [l] is guaranteed non-empty under [w] *)
    let rec descend t l w =
      let b = top_bit t.levels.(l).(w) in
      let pos = (w * bits_per_word) + b in
      if l = 0 then pos else descend t (l - 1) pos

    (* smallest element, same shape *)
    let rec descend_min t l w =
      let b = bottom_bit t.levels.(l).(w) in
      let pos = (w * bits_per_word) + b in
      if l = 0 then pos else descend_min t (l - 1) pos

    let max_elt t =
      if t.card = 0 then None
      else begin
        let top = Array.length t.levels - 1 in
        Some (descend t top 0)
      end

    let min_elt t =
      if t.card = 0 then None
      else begin
        let top = Array.length t.levels - 1 in
        Some (descend_min t top 0)
      end

    let pred t i =
      if t.card = 0 then None
      else if i >= t.n then max_elt t (* every member is strictly below [n] *)
      else begin
        if i <= 0 then None
        else begin
          (* climb until a level has a set bit strictly below the path, then
             descend taking the highest bit at each level *)
          let rec climb l idx =
            if l >= Array.length t.levels then None
            else begin
              let w = idx / bits_per_word and b = idx mod bits_per_word in
              let mask = t.levels.(l).(w) land ((1 lsl b) - 1) in
              if mask <> 0 then begin
                let pos = (w * bits_per_word) + top_bit mask in
                Some (if l = 0 then pos else descend t (l - 1) pos)
              end
              else climb (l + 1) w
            end
          in
          climb 0 i
        end
      end

    let succ t i =
      if t.card = 0 || i >= t.n - 1 then None
      else begin
        let i = max i (-1) in
        (* mirror of [pred]: mask the bits strictly above the path, else climb *)
        let rec climb l idx =
          if l >= Array.length t.levels then None
          else begin
            let w = idx / bits_per_word and b = idx mod bits_per_word in
            (* [b] can be the top bit of the word: shifting by b+1 would be
               out of range, but the mask is then simply empty *)
            let mask =
              if b = bits_per_word - 1 then 0
              else t.levels.(l).(w) land lnot ((1 lsl (b + 1)) - 1)
            in
            if mask <> 0 then begin
              let pos = (w * bits_per_word) + bottom_bit mask in
              Some (if l = 0 then pos else descend_min t (l - 1) pos)
            end
            else climb (l + 1) w
          end
        in
        if i < 0 then min_elt t else climb 0 i
      end
  end

  module Min_tree = struct
    (* A perfect binary tree over positions [0, m), [m] the next power of
       two at or above the capacity, stored in one array: node [i] has
       children [2i] and [2i+1], the leaves sit at [m + q]. Each node holds
       the minimum of its leaves; an absent position holds [max_int], so no
       query ever matches it. *)

    type t = { a : int array; m : int }

    let create n =
      if n < 0 then invalid_arg "Min_tree.create";
      let m = ref 1 in
      while !m < n do
        m := !m * 2
      done;
      { a = Array.make (2 * !m) max_int; m = !m }

    let set t q v =
      if q < 0 || q >= t.m then invalid_arg "Min_tree.set: out of range";
      let i = ref (t.m + q) in
      t.a.(!i) <- v;
      i := !i lsr 1;
      while !i >= 1 do
        let l = t.a.(2 * !i) and r = t.a.((2 * !i) + 1) in
        t.a.(!i) <- (if l <= r then l else r);
        i := !i lsr 1
      done

    let remove t q = set t q max_int

    let rightmost_lt t thr =
      if t.a.(1) >= thr then None
      else begin
        let i = ref 1 in
        while !i < t.m do
          i := if t.a.((2 * !i) + 1) < thr then (2 * !i) + 1 else 2 * !i
        done;
        Some (!i - t.m)
      end
  end

  module Tree = Tt_core.Tree
  module Traversal = Tt_core.Traversal
  module Io_schedule = Tt_core.Io_schedule

  type policy = Minio.policy =
    | Lsnf
    | First_fit
    | Best_fit
    | First_fill
    | Best_fill
    | Best_k of int

  module Os = Ordered_set

  (* --- indexed candidate set ----------------------------------------------
     The eviction candidates at step [k] are the resident produced files
     other than the executing node's input, ordered latest next use first —
     descending traversal position. Rebuilding and re-sorting that list at
     every deficit event costs O(p log p) per event and makes a traversal
     quadratic, so the set is maintained incrementally instead, keyed by
     position (candidates always sit strictly after the current step, so no
     query needs a range restriction):

     - [os]: the positions themselves, an {!Tt_util.Ordered_set} with
       O(log p) navigation — enough for LSNF walks and Best-K fronts;
     - [maxf] / [minf]: {!Tt_util.Min_tree}s over positions answering
       "rightmost position with f >= d" (First Fit, keyed by [-f]: the
       rightmost [-f < 1 - d]) and "... with f < d" (First Fill) in
       O(log p);
     - [byf]: the positions ranked by (file size, position) and one
       ordered set over the ranks of the present candidates. A size class
       is a run of consecutive ranks and its latest-used file the largest
       present rank of the run, so Best Fit's closest-size and Best
       Fill's largest-below-deficit searches are a binary search over the
       ranks plus one floor/ceiling lookup. This takes O(p) words, however
       large or varied the sizes are.

     Only the parts the active policy needs are allocated. Every query
     returns the same file the previous linear scans chose, tie-breaks
     included: those scans ran over descending positions, so "first hit"
     always meant "largest position". *)


  type byf = {
    f : int array;
    order : int array;
    rank_pos : int array; (* rank -> position, sizes non-decreasing *)
    pos_rank : int array; (* position -> rank *)
    ranks : Os.t; (* ranks of the present candidates *)
  }

  let make_byf tree order =
    let p = Array.length order in
    let f = tree.Tree.f in
    let rank_pos = Tt_util.Int_sort.order_by p (fun q -> f.(order.(q))) in
    let pos_rank = Array.make p 0 in
    Array.iteri (fun r q -> pos_rank.(q) <- r) rank_pos;
    { f; order; rank_pos; pos_rank; ranks = Os.create p }

  let size b r = b.f.(b.order.(b.rank_pos.(r)))

  (* The first rank at or after [from] whose size is above [v] — or at
     least [v] when not [incl]: the end of the ranks with size at most
     (below) [v]. A galloping search, O(log d) for a distance [d] from
     [from], so stepping over one size class is nearly free. *)
  let rank_bound b ~from ~incl v =
    let n = Array.length b.rank_pos in
    let past r =
      let s = size b r in
      s > v || ((not incl) && s = v)
    in
    if from >= n || past from then from
    else begin
      (* [lo] is not past; [hi] is past, or [n] *)
      let lo = ref from and step = ref 1 in
      while !lo + !step < n && not (past (!lo + !step)) do
        lo := !lo + !step;
        step := 2 * !step
      done;
      let hi = ref (if !lo + !step < n then !lo + !step else n) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) lsr 1 in
        if past mid then hi := mid else lo := mid
      done;
      !hi
    end

  type cands = {
    order : int array; (* position -> node *)
    pos : int array; (* node -> position *)
    f : int array;
    os : Os.t;
    mutable total : int;
    maxf : Min_tree.t option; (* keyed by -f *)
    minf : Min_tree.t option;
    byf : byf option;
  }

  let make_cands tree ~order ~pos policy =
    let p = Array.length order in
    let maxf = match policy with First_fit -> Some (Min_tree.create p) | _ -> None in
    let minf = match policy with First_fill -> Some (Min_tree.create p) | _ -> None in
    let byf =
      match policy with Best_fit | Best_fill -> Some (make_byf tree order) | _ -> None
    in
    { order; pos; f = tree.Tree.f; os = Os.create p; total = 0; maxf; minf; byf }

  (* register node [i]'s file when it becomes resident (no-op if empty) *)
  let cand_add c i =
    let fv = c.f.(i) in
    if fv > 0 then begin
      let q = c.pos.(i) in
      Os.add c.os q;
      c.total <- c.total + fv;
      (match c.maxf with Some t -> Min_tree.set t q (-fv) | None -> ());
      (match c.minf with Some t -> Min_tree.set t q fv | None -> ());
      match c.byf with Some b -> Os.add b.ranks b.pos_rank.(q) | None -> ()
    end

  (* retire the candidate at position [q]; it must be a member *)
  let cand_remove_pos c q =
    let fv = c.f.(c.order.(q)) in
    Os.remove c.os q;
    c.total <- c.total - fv;
    (match c.maxf with Some t -> Min_tree.remove t q | None -> ());
    (match c.minf with Some t -> Min_tree.remove t q | None -> ());
    match c.byf with Some b -> Os.remove b.ranks b.pos_rank.(q) | None -> ()

  let cand_drop c i =
    let q = c.pos.(i) in
    if Os.mem c.os q then cand_remove_pos c q

  (* --- policy selection ---------------------------------------------------
     [evict c policy deficit apply] frees at least [deficit] — the caller
     has already checked [c.total >= deficit] — calling [apply node size]
     for each evicted file. *)

  let evict c policy deficit apply =
    let rem = ref deficit in
    let take q =
      let i = c.order.(q) in
      let fv = c.f.(i) in
      cand_remove_pos c q;
      rem := !rem - fv;
      apply i fv
    in
    let take_max () =
      match Os.max_elt c.os with Some q -> take q | None -> assert false
    in
    let lsnf_rest () =
      while !rem > 0 && not (Os.is_empty c.os) do
        take_max ()
      done
    in
    match policy with
    | Lsnf -> lsnf_rest ()
    | First_fit -> (
        (* first file at least as large as the deficit; LSNF otherwise *)
        let maxf = match c.maxf with Some t -> t | None -> assert false in
        match Min_tree.rightmost_lt maxf (1 - !rem) with
        | Some q -> take q
        | None -> lsnf_rest ())
    | First_fill ->
        (* repeatedly the first file strictly smaller than the deficit *)
        let minf = match c.minf with Some t -> t | None -> assert false in
        let progress = ref true in
        while !rem > 0 && !progress do
          match Min_tree.rightmost_lt minf !rem with
          | Some q -> take q
          | None -> progress := false
        done;
        if !rem > 0 then lsnf_rest ()
    | Best_fit ->
        (* repeatedly the file with size closest to the remaining deficit;
           ties broken towards the latest use — the floor and ceiling size
           classes cover the two possible distances, and within (and
           between) classes the largest position wins *)
        let b = match c.byf with Some b -> b | None -> assert false in
        while !rem > 0 && not (Os.is_empty c.os) do
          let ge = rank_bound b ~from:0 ~incl:false !rem in
          (* the latest-used file of the largest size at most [rem] *)
          let floor = Os.pred b.ranks (rank_bound b ~from:ge ~incl:true !rem) in
          (* the latest-used file of the smallest size at least [rem] *)
          let ceil =
            match Os.succ b.ranks (ge - 1) with
            | None -> None
            | Some r -> Os.pred b.ranks (rank_bound b ~from:r ~incl:true (size b r))
          in
          let r =
            match (floor, ceil) with
            | Some lo, None -> lo
            | None, Some hi -> hi
            | Some lo, Some hi ->
                let dl = !rem - size b lo and dh = size b hi - !rem in
                if dl < dh then lo
                else if dh < dl then hi
                else if b.rank_pos.(lo) > b.rank_pos.(hi) then lo
                else hi
            | None, None -> assert false
          in
          take b.rank_pos.(r)
        done
        (* candidates exhausted with a residual deficit leave nothing for
           the LSNF fallback to do *)
    | Best_fill ->
        (* repeatedly the largest file strictly smaller than the deficit,
           the latest-used one among equals *)
        let b = match c.byf with Some b -> b | None -> assert false in
        let progress = ref true in
        while !rem > 0 && !progress do
          match Os.pred b.ranks (rank_bound b ~from:0 ~incl:false !rem) with
          | None -> progress := false
          | Some r -> take b.rank_pos.(r)
        done;
        if !rem > 0 then lsnf_rest ()
    | Best_k k ->
        (* repeatedly the subset of the k latest-used files whose total is
           closest to the deficit; ties prefer the larger total so the
           loop always progresses *)
        let progress = ref true in
        while !rem > 0 && !progress do
          let rec collect q acc cnt =
            if cnt = k then List.rev acc
            else
              match q with
              | None -> List.rev acc
              | Some q ->
                  collect (Os.pred c.os q) ((q, c.f.(c.order.(q))) :: acc) (cnt + 1)
          in
          let front = Array.of_list (collect (Os.max_elt c.os) [] 0) in
          let m = Array.length front in
          if m = 0 then progress := false
          else begin
            let best_mask = ref 0 and best_d = ref max_int and best_sum = ref 0 in
            for mask = 1 to (1 lsl m) - 1 do
              let sum = ref 0 in
              for b = 0 to m - 1 do
                if mask land (1 lsl b) <> 0 then sum := !sum + snd front.(b)
              done;
              let d = abs (!rem - !sum) in
              if d < !best_d || (d = !best_d && !sum > !best_sum) then begin
                best_d := d;
                best_sum := !sum;
                best_mask := mask
              end
            done;
            if !best_sum = 0 then progress := false
            else
              for b = 0 to m - 1 do
                if !best_mask land (1 lsl b) <> 0 then take (fst front.(b))
              done
          end
        done;
        if !rem > 0 then lsnf_rest ()

  (* --- simulation --------------------------------------------------------- *)

  let run tree ~memory ~order policy =
    let p = Tree.size tree in
    if not (Traversal.is_valid_order tree order) then
      invalid_arg "Minio.run: invalid traversal";
    let pos = Array.make p 0 in
    Array.iteri (fun step i -> pos.(i) <- step) order;
    let tau = Array.make p Io_schedule.never in
    (* resident ready files; evicted.(i) set when the file is out *)
    let resident = Array.make p false in
    let evicted = Array.make p false in
    let c = make_cands tree ~order ~pos policy in
    resident.(tree.Tree.root) <- true;
    cand_add c tree.Tree.root;
    let mavail = ref (memory - tree.Tree.f.(tree.Tree.root)) in
    let feasible = ref true in
    let step = ref 0 in
    while !feasible && !step < p do
      let k = !step in
      let j = order.(k) in
      (* j's own input is never an eviction candidate, and the execution
         below consumes it: retire it from the candidate set up front *)
      cand_drop c j;
      (* total free memory that executing j requires: its working set minus
         its input file if the latter is already resident *)
      let need = Tree.mem_req tree j - if evicted.(j) then 0 else tree.Tree.f.(j) in
      if need > !mavail then begin
        let deficit = need - !mavail in
        if c.total < deficit then feasible := false
        else
          evict c policy deficit (fun i fi ->
              resident.(i) <- false;
              evicted.(i) <- true;
              tau.(i) <- k;
              mavail := !mavail + fi)
      end;
      if !feasible then begin
        (* read j's input back if needed, execute, produce children files *)
        if evicted.(j) then begin
          evicted.(j) <- false;
          resident.(j) <- false;
          mavail := !mavail - tree.Tree.f.(j)
        end
        else resident.(j) <- false;
        mavail := !mavail + tree.Tree.f.(j) - Tree.sum_children_f tree j;
        for k = tree.Tree.child_off.(j) to tree.Tree.child_off.(j + 1) - 1 do
          let ch = tree.Tree.child.(k) in
          resident.(ch) <- true;
          cand_add c ch
        done;
        incr step
      end
    done;
    if !feasible then Some { Io_schedule.order; tau } else None
end

(* --- reference segment calculus: the list-backed implementation --------- *)

module Ref_seg = struct
  type seg = { hill : int; valley : int; nodes : int list }

  let cost s = s.hill - s.valley

  let fuse a b =
    { hill = max a.hill b.hill; valley = b.valley; nodes = a.nodes @ b.nodes }

  let canonicalize segments =
    let push stack s =
      let rec go stack s =
        match stack with
        | top :: rest when cost s >= cost top || top.valley >= s.valley ->
            go rest (fuse top s)
        | _ -> s :: stack
      in
      go stack s
    in
    List.rev (List.fold_left push [] segments)

  let merge profiles =
    match profiles with
    | [] -> []
    | [ p ] -> p
    | _ ->
        let arr = Array.of_list (List.map Array.of_list profiles) in
        let k = Array.length arr in
        let idx = Array.make k 0 in
        let contrib = Array.make k 0 in
        let total = ref 0 in
        let heap = Tt_util.Int_heap.create k in
        for c = 0 to k - 1 do
          if Array.length arr.(c) > 0 then
            Tt_util.Int_heap.insert heap c (-cost arr.(c).(0))
        done;
        let out = ref [] in
        while not (Tt_util.Int_heap.is_empty heap) do
          let c, _ = Tt_util.Int_heap.pop_min heap in
          let s = arr.(c).(idx.(c)) in
          let base = !total - contrib.(c) in
          out :=
            { hill = s.hill + base; valley = s.valley + base; nodes = s.nodes }
            :: !out;
          total := base + s.valley;
          contrib.(c) <- s.valley;
          idx.(c) <- idx.(c) + 1;
          if idx.(c) < Array.length arr.(c) then
            Tt_util.Int_heap.insert heap c (-cost arr.(c).(idx.(c)))
        done;
        canonicalize (List.rev !out)

  let append_parent prof ~hill ~valley ~node =
    canonicalize (prof @ [ { hill; valley; nodes = [ node ] } ])

  let peak prof = List.fold_left (fun acc s -> max acc s.hill) 0 prof
  let nodes prof = List.concat_map (fun s -> s.nodes) prof

  (* the list-backed Liu, using the reference calculus end to end *)
  let liu_run t =
    let p = T.size t in
    let children = H.children_of_parents t.T.parent in
    let prof = Array.make p [] in
    Array.iter
      (fun i ->
        let merged =
          merge (Array.to_list (Array.map (fun c -> prof.(c)) children.(i)))
        in
        prof.(i) <-
          append_parent merged
            ~hill:(t.T.f.(i) + t.T.n.(i) + H.sum_f t children.(i))
            ~valley:t.T.f.(i) ~node:i)
      (seed_bottom_up t);
    let root_profile = prof.(t.T.root) in
    (peak root_profile, Array.of_list (List.rev (nodes root_profile)))
end

(* convert an optimized profile into the reference shape for comparison *)
let seg_shape prof =
  List.map
    (fun (s : Tt_core.Segments.segment) ->
      { Ref_seg.hill = s.hill;
        valley = s.valley;
        nodes = Tt_core.Segments.seq_to_list s.seq
      })
    (Tt_core.Segments.to_list prof)

(* --- reference postorder: child lists re-sorted at every use ------------ *)

let ref_postorder_run t =
  let p = T.size t in
  let children = H.children_of_parents t.T.parent in
  let bottom_up = seed_bottom_up t in
  let sorted_children peaks i =
    let cs = Array.copy children.(i) in
    Array.sort
      (fun a b -> compare (peaks.(a) - t.T.f.(a)) (peaks.(b) - t.T.f.(b)))
      cs;
    cs
  in
  let peaks = Array.make p 0 in
  Array.iter
    (fun i ->
      let cs = sorted_children peaks i in
      let best = ref (t.T.f.(i) + t.T.n.(i) + H.sum_f t children.(i)) in
      let pending = ref (Array.fold_left (fun acc c -> acc + t.T.f.(c)) 0 cs) in
      Array.iter
        (fun c ->
          pending := !pending - t.T.f.(c);
          let v = peaks.(c) + !pending in
          if v > !best then best := v)
        cs;
      peaks.(i) <- !best)
    bottom_up;
  let order = Array.make p (-1) in
  let k = ref 0 in
  let stack = ref [ t.T.root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        order.(!k) <- i;
        incr k;
        let cs = sorted_children peaks i in
        for j = Array.length cs - 1 downto 0 do
          stack := cs.(j) :: !stack
        done
  done;
  (peaks.(t.T.root), order)

(* --- instances and memory levels ---------------------------------------- *)

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

(* memory levels from below the feasibility floor up to the peak *)
let memory_levels tree order =
  let floor = T.max_mem_req tree in
  let peak = Traversal.peak tree order in
  List.sort_uniq compare
    [ floor - 1; floor; floor + ((peak - floor + 3) / 4); (floor + peak) / 2; peak ]

let same_schedule (a : Io_schedule.t option) (b : Io_schedule.t option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> a.Io_schedule.order = b.Io_schedule.order && a.tau = b.tau
  | _ -> false

let orders_for tree =
  [ Traversal.top_down_order tree;
    Traversal.random_order ~rng:(Tt_util.Rng.create 13) tree
  ]

let test_minio_families () =
  List.iter
    (fun (name, tree) ->
      List.iter
        (fun order ->
          List.iter
            (fun memory ->
              List.iter
                (fun (pname, policy) ->
                  let expect = ref_minio_run tree ~memory ~order policy in
                  let got = Minio.run tree ~memory ~order policy in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%s mem=%d" name pname memory)
                    true
                    (same_schedule expect got))
                Minio.all_policies;
              let lb_ref = ref_divisible_lower_bound tree ~memory ~order in
              let lb = Minio.divisible_lower_bound tree ~memory ~order in
              Alcotest.(check bool)
                (Printf.sprintf "%s/divisible-lb mem=%d" name memory)
                true
                (lb_ref = lb))
            (memory_levels tree order))
        (orders_for tree))
    family_instances

let prop_minio_random =
  H.qcheck ~count:150 "minio policies match the rescan reference"
    (H.arb_tree_with_order ~size_max:40 ())
    (fun (tree, order) ->
      List.for_all
        (fun memory ->
          List.for_all
            (fun (_, policy) ->
              same_schedule
                (ref_minio_run tree ~memory ~order policy)
                (Minio.run tree ~memory ~order policy))
            Minio.all_policies
          && ref_divisible_lower_bound tree ~memory ~order
             = Minio.divisible_lower_bound tree ~memory ~order)
        (memory_levels tree order))

(* every eviction the heuristics make must still be a valid schedule *)
let prop_minio_schedules_valid =
  H.qcheck ~count:100 "optimized schedules stay valid"
    (H.arb_tree_with_order ~size_max:25 ())
    (fun (tree, order) ->
      List.for_all
        (fun memory ->
          List.for_all
            (fun (_, policy) ->
              match Minio.run tree ~memory ~order policy with
              | None -> false
              | Some s -> (
                  match Io_schedule.check tree ~memory s with
                  | Io_schedule.Feasible _ -> true
                  | _ -> false))
            Minio.all_policies)
        (List.filter (fun m -> m >= T.max_mem_req tree) (memory_levels tree order)))

let prop_segments_merge_reference =
  H.qcheck ~count:200 "array merge matches the list-backed reference"
    (QCheck.pair QCheck.(int_bound 1_000_000) QCheck.(1 -- 5))
    (fun (seed, k) ->
      let rng = Tt_util.Rng.create seed in
      let raw () =
        let len = Tt_util.Rng.int_incl rng 0 8 in
        let v = ref 0 in
        List.init len (fun i ->
            let hill = !v + Tt_util.Rng.int_incl rng 0 10 in
            let valley = Tt_util.Rng.int_incl rng 0 hill in
            v := valley;
            { Ref_seg.hill; valley; nodes = [ (i * 10) + Tt_util.Rng.int_incl rng 0 9 ] })
      in
      let raws = List.init k (fun _ -> raw ()) in
      let to_opt raw =
        Tt_core.Segments.canonicalize
          (List.map
             (fun (s : Ref_seg.seg) ->
               { Tt_core.Segments.hill = s.hill;
                 valley = s.valley;
                 seq =
                   List.fold_left
                     (fun acc x -> Tt_core.Segments.seq_cat acc (Tt_core.Segments.seq_single x))
                     Tt_core.Segments.seq_empty s.nodes
               })
             raw)
      in
      let expect = Ref_seg.merge (List.map Ref_seg.canonicalize raws) in
      let got = Tt_core.Segments.merge (List.map to_opt raws) in
      seg_shape got = expect)

let test_liu_families () =
  List.iter
    (fun (name, tree) ->
      let em, eo = Ref_seg.liu_run tree in
      let gm, go = Tt_core.Liu_exact.run tree in
      Alcotest.(check int) (name ^ " mem") em gm;
      Alcotest.(check (array int)) (name ^ " order") eo go)
    family_instances

let prop_liu_random =
  H.qcheck ~count:150 "liu matches the list-backed reference"
    (H.arb_tree ~size_max:40 ())
    (fun tree -> Ref_seg.liu_run tree = Tt_core.Liu_exact.run tree)

let test_postorder_families () =
  List.iter
    (fun (name, tree) ->
      let em, eo = ref_postorder_run tree in
      let gm, go = Tt_core.Postorder_opt.run tree in
      Alcotest.(check int) (name ^ " mem") em gm;
      Alcotest.(check (array int)) (name ^ " order") eo go)
    family_instances

let prop_postorder_random =
  H.qcheck ~count:200 "postorder matches the re-sorting reference"
    (H.arb_tree ~size_max:40 ())
    (fun tree -> ref_postorder_run tree = Tt_core.Postorder_opt.run tree)

(* Explore's cut compaction fires on wide nodes (star: every leaf explored
   in the first pass leaves only tombstones). The optimum and traversal
   validity pin its behaviour. *)
let test_minmem_wide () =
  List.iter
    (fun (name, tree) ->
      let mem, order = Tt_core.Minmem.run tree in
      H.check_valid_traversal tree order;
      Alcotest.(check int) (name ^ " peak") mem (Traversal.peak tree order);
      Alcotest.(check int) (name ^ " optimal") (Tt_core.Liu_exact.min_memory tree) mem)
    family_instances

(* --- the supporting structures: Ordered_set and Dynarray compaction ----- *)

(* model-based test against a plain sorted list; capacities around
   multiples of the 63-bit word size exercise the tower boundaries, and
   queries beyond the universe exercise the clamping of [pred] *)
let prop_ordered_set_model =
  H.qcheck ~count:300 "Ordered_set matches a sorted-list model"
    QCheck.(pair (int_bound 1_000_000) (1 -- 160))
    (fun (seed, n) ->
      let module Os = Tt_util.Ordered_set in
      let rng = Tt_util.Rng.create seed in
      (* bias towards the word-size boundaries *)
      let n = match n mod 5 with 0 -> 63 | 1 -> 126 | _ -> n in
      let os = Os.create n in
      let model = ref [] in
      let ok = ref true in
      let check b = if not b then ok := false in
      for _ = 1 to 200 do
        let x = Tt_util.Rng.int_incl rng 0 (n - 1) in
        (match Tt_util.Rng.int_incl rng 0 2 with
        | 0 ->
            Os.add os x;
            if not (List.mem x !model) then
              model := List.sort compare (x :: !model)
        | 1 ->
            Os.remove os x;
            model := List.filter (fun y -> y <> x) !model
        | _ -> ());
        let q = Tt_util.Rng.int_incl rng (-1) (n + 2) in
        let largest_below i =
          List.fold_left (fun acc y -> if y < i then Some y else acc) None !model
        in
        let smallest_above i =
          List.fold_left
            (fun acc y -> match acc with Some _ -> acc | None -> if y > i then Some y else None)
            None !model
        in
        check (Os.cardinal os = List.length !model);
        check (Os.is_empty os = (!model = []));
        check (Os.mem os x = List.mem x !model);
        check (Os.max_elt os = largest_below n);
        check (Os.min_elt os = smallest_above (-1));
        check (Os.pred os q = largest_below (min q n));
        check (Os.succ os q = smallest_above q);
        check (Os.to_desc_list os = List.rev !model)
      done;
      !ok)

(* the regression that motivated the clamp fix: [pred] at or above the
   universe bound when the bound is an exact multiple of the word size *)
let test_ordered_set_pred_clamp () =
  let module Os = Tt_util.Ordered_set in
  List.iter
    (fun n ->
      let os = Os.create n in
      Alcotest.(check (option int)) "pred empty" None (Os.pred os n);
      Os.add os (n - 1);
      Os.add os 0;
      Alcotest.(check (option int)) "pred at bound" (Some (n - 1)) (Os.pred os n);
      Alcotest.(check (option int)) "pred above bound" (Some (n - 1)) (Os.pred os (n + 5));
      Alcotest.(check (option int)) "succ at top" None (Os.succ os (n - 1));
      Alcotest.(check (option int)) "succ clamps negative" (Some 0) (Os.succ os (-7)))
    [ 1; 62; 63; 64; 126; 189; 200 ]

(* The model test above stays within two bitset levels (n <= 160). On
   universes of three and four levels, [Ordered_set] answers every query
   as the parent's copy does after the same updates. Values fall in
   eight narrow bands, so whole summary words fill and empty out and
   [add] and [remove] climb to the top level. *)
let prop_ordered_set_deep =
  H.qcheck ~count:30 "Ordered_set = the parent's copy on 3- and 4-level universes"
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, four) ->
      let module Os = Tt_util.Ordered_set in
      let module Ref = Parent_minio.Ordered_set in
      let rng = Tt_util.Rng.create seed in
      let w = Sys.int_size in
      let n =
        if four then (w * w * w) + 1 + Tt_util.Rng.int rng 50_000
        else (w * w) + 1 + Tt_util.Rng.int rng 100_000
      in
      let a = Os.create n and b = Ref.create n in
      let ok = ref true in
      for _ = 1 to 3_000 do
        let x = min (n - 1) ((Tt_util.Rng.int rng 8 * (n / 8)) + Tt_util.Rng.int rng 100) in
        if Tt_util.Rng.int rng 2 = 0 then begin
          Os.add a x;
          Ref.add b x
        end
        else begin
          Os.remove a x;
          Ref.remove b x
        end;
        let q = Tt_util.Rng.int_incl rng (-1) (n + 1) in
        if
          Os.mem a x <> Ref.mem b x
          || Os.is_empty a <> Ref.is_empty b
          || Os.max_elt a <> Ref.max_elt b
          || Os.min_elt a <> Ref.min_elt b
          || Os.pred a q <> Ref.pred b q
          || Os.succ a q <> Ref.succ b q
          || Os.pred a (x + 1) <> Ref.pred b (x + 1)
          || Os.succ a (x - 1) <> Ref.succ b (x - 1)
        then ok := false
      done;
      !ok)

(* Min_tree against a plain array model: random sets and removals, then
   both threshold searches from random cursors *)
let prop_min_tree_model =
  H.qcheck ~count:300 "Min_tree matches an array model"
    QCheck.(pair (int_bound 1_000_000) (1 -- 70))
    (fun (seed, n) ->
      let module M = Tt_util.Min_tree in
      let rng = Tt_util.Rng.create seed in
      let mt = M.create n in
      let model = Array.make n None in
      let ok = ref true in
      for _ = 1 to 150 do
        let q = Tt_util.Rng.int rng n in
        (if Tt_util.Rng.int rng 3 = 0 then begin
           M.remove mt q;
           model.(q) <- None
         end
         else begin
           let v = Tt_util.Rng.int_incl rng (-20) 20 in
           M.set mt q v;
           model.(q) <- Some v
         end);
        let thr = Tt_util.Rng.int_incl rng (-25) 25 in
        let from = Tt_util.Rng.int_incl rng (-2) (n + 1) in
        let rightmost = ref None and leftmost = ref None in
        Array.iteri
          (fun i v ->
            match v with
            | Some v ->
                if v < thr then rightmost := Some i;
                if i >= from && v <= thr && !leftmost = None then leftmost := Some i
            | None -> ())
          model;
        if M.rightmost_lt mt thr <> !rightmost then ok := false;
        if M.leftmost_le mt ~from thr <> !leftmost then ok := false
      done;
      !ok)

(* Int_sort.order_by against a stable sort of the indices, on keys with
   many ties, wide keys and keys spanning all of int *)
let prop_int_sort_order_by =
  H.qcheck ~count:300 "Int_sort.order_by = stable sort of the indices by key"
    QCheck.(triple (int_bound 1_000_000) (0 -- 300) (int_bound 2))
    (fun (seed, n, width) ->
      let rng = Tt_util.Rng.create seed in
      let keys =
        Array.init n (fun _ ->
            match width with
            | 0 -> Tt_util.Rng.int_incl rng (-50) 50
            | 1 -> Tt_util.Rng.int_incl rng (-1_000_000_000) 1_000_000_000
            | _ -> Int64.to_int (Tt_util.Rng.int64 rng))
      in
      let expect = Array.init n Fun.id in
      Array.stable_sort (fun a b -> compare keys.(a) keys.(b)) expect;
      Tt_util.Int_sort.order_by n (fun i -> keys.(i)) = expect)

let prop_filter_in_place_stable =
  H.qcheck ~count:300 "Dynarray filter_in_place = List.filter"
    (H.arb_int_list ~len:60 ~max_v:20 ())
    (fun l ->
      let module D = Tt_util.Dynarray_compat in
      let d = D.create () in
      List.iter (fun x -> D.add_last d x) l;
      D.filter_in_place (fun x -> x mod 3 <> 0) d;
      let got = ref [] in
      D.iter (fun x -> got := x :: !got) d;
      List.rev !got = List.filter (fun x -> x mod 3 <> 0) l)

(* --- the canonical tree encoding: exact-size writer vs Printf ----------- *)

(* the pre-optimization [Tree.to_string], verbatim but for the module
   qualifiers: one Printf per node into a growing Buffer *)
let ref_tree_to_string (t : T.t) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int (T.size t));
  for i = 0 to T.size t - 1 do
    Buffer.add_string buf (Printf.sprintf " %d:%d:%d" t.T.parent.(i) t.T.f.(i) t.T.n.(i))
  done;
  Buffer.contents buf

(* Weights at the edges of the decimal writer: 0, the extremes of int,
   powers of ten and their neighbours, and full-range values shifted to
   every digit count, of both signs. *)
let extreme_int rng =
  let pow10 = int_of_float (10. ** float_of_int (Tt_util.Rng.int_incl rng 0 18)) in
  match Tt_util.Rng.int rng 8 with
  | 0 -> min_int
  | 1 -> max_int
  | 2 -> 0
  | 3 -> pow10
  | 4 -> pow10 - 1
  | 5 -> -pow10
  | _ -> Int64.to_int (Tt_util.Rng.int64 rng) asr Tt_util.Rng.int rng 63

let prop_tree_encoding_reference =
  H.qcheck ~count:500 "to_string matches the Printf reference on extreme weights"
    (H.arb_tree ~size_max:30 ())
    (fun shape ->
      let rng = Tt_util.Rng.create (T.size shape) in
      let f = Array.init (T.size shape) (fun _ -> extreme_int rng land max_int) in
      let n = Array.init (T.size shape) (fun _ -> extreme_int rng) in
      let tree = T.make ~parent:shape.T.parent ~f ~n in
      T.to_string tree = ref_tree_to_string tree
      && T.to_string shape = ref_tree_to_string shape
      && T.equal (T.of_string (T.to_string tree)) tree)

let test_tree_encoding_edges () =
  List.iter
    (fun (f, n) ->
      let tree = T.make ~parent:[| -1; 0 |] ~f:[| f; 1 |] ~n:[| n; -1 |] in
      Alcotest.(check string) (Printf.sprintf "f=%d n=%d" f n)
        (ref_tree_to_string tree) (T.to_string tree))
    [ (0, 0); (max_int, min_int); (max_int, max_int); (9, -9); (10, -10);
      (99, -99); (100, -100); (max_int - 1, min_int + 1) ]

(* --- reference schedulers and validator ------------------------------------
   Verbatim copies of the list schedulers, the splitting scheduler and the
   validator before they were made O(p log p): a ready list re-sorted with
   polymorphic [compare] at every completion event, per-call [List.init
   procs] processor lists, a [Hashtbl] per split subtree, and a validator
   that groups processors in a [Hashtbl] and sorts 2p delta tuples. *)

module P = Tt_core.Parallel
module V = Tt_sched.Validate

module Ref_parallel = struct
  let levels t ~work =
    (* bottom level: work i + max over children levels *)
    let p = T.size t in
    let lvl = Array.make p 0 in
    Array.iter
      (fun i ->
        let below = Array.fold_left (fun acc c -> max acc lvl.(c)) 0 (T.children t i) in
        lvl.(i) <- work i + below)
      (T.bottom_up_order t);
    lvl

  let booking_schedule ?order t ~procs ~memory ~work =
    if procs < 1 then invalid_arg "Parallel.booking_schedule: procs < 1";
    let p = T.size t in
    for i = 0 to p - 1 do
      if work i < 1 then invalid_arg "Parallel.booking_schedule: work < 1"
    done;
    let order =
      match order with
      | None -> snd (Tt_core.Minmem.run t)
      | Some o ->
          if not (Traversal.is_valid_order t o) then
            invalid_arg "Parallel.booking_schedule: order is not a traversal";
          o
    in
    let extra i = t.T.n.(i) + T.sum_children_f t i in
    (* state: tasks start strictly in [order]; [next] is the first unstarted
       position. Booking = the whole working set [extra i] is charged at
       start, so a started task can always finish. *)
    let next = ref 0 in
    let finished = Array.make p false in
    let usage = ref t.T.f.(t.T.root) in
    let peak = ref !usage in
    let free_procs = ref (List.init procs (fun k -> k)) in
    let heap = Tt_util.Int_heap.create p in
    let proc_of = Array.make p (-1) in
    let start_of = Array.make p 0 in
    let events = Tt_util.Dynarray_compat.create () in
    let time = ref 0 in
    let done_count = ref 0 in
    let deadlock = ref false in
    let try_start () =
      let blocked = ref false in
      while (not !blocked) && !next < p do
        let i = order.(!next) in
        let par = t.T.parent.(i) in
        match !free_procs with
        | pr :: rest
          when (par < 0 || finished.(par)) && !usage + extra i <= memory ->
            free_procs := rest;
            usage := !usage + extra i;
            if !usage > !peak then peak := !usage;
            proc_of.(i) <- pr;
            start_of.(i) <- !time;
            Tt_util.Int_heap.insert heap i (!time + work i);
            incr next
        | _ -> blocked := true
      done
    in
    try_start ();
    while (not !deadlock) && !done_count < p do
      if Tt_util.Int_heap.is_empty heap then deadlock := true
      else begin
        let i, finish = Tt_util.Int_heap.pop_min heap in
        time := finish;
        (* complete every task finishing at this instant *)
        let completed = ref [ i ] in
        let continue_ = ref true in
        while !continue_ do
          match Tt_util.Int_heap.min_elt heap with
          | j, fj when fj = finish ->
              ignore (Tt_util.Int_heap.pop_min heap);
              completed := j :: !completed
          | _ -> continue_ := false
          | exception Not_found -> continue_ := false
        done;
        List.iter
          (fun j ->
            incr done_count;
            finished.(j) <- true;
            Tt_util.Dynarray_compat.add_last events
              { P.node = j; proc = proc_of.(j); start = start_of.(j); finish };
            free_procs := proc_of.(j) :: !free_procs;
            usage := !usage - extra j - t.T.f.(j) + T.sum_children_f t j)
          !completed;
        try_start ()
      end
    done;
    if !deadlock then None
    else begin
      let evs = Tt_util.Dynarray_compat.to_array events in
      Array.sort (fun (a : P.event) b -> compare (a.start, a.node) (b.start, b.node)) evs;
      let makespan = Array.fold_left (fun acc (e : P.event) -> max acc e.finish) 0 evs in
      Some { P.events = evs; makespan; peak_memory = !peak }
    end

  let list_schedule ?priority t ~procs ~memory ~work =
    if procs < 1 then invalid_arg "Parallel.list_schedule: procs < 1";
    let p = T.size t in
    for i = 0 to p - 1 do
      if work i < 1 then invalid_arg "Parallel.list_schedule: work < 1"
    done;
    let prio =
      match priority with Some f -> Array.init p f | None -> levels t ~work
    in
    let extra i = t.T.n.(i) + T.sum_children_f t i in
    (* state *)
    let ready = ref [ t.T.root ] in
    let usage = ref t.T.f.(t.T.root) in
    let peak = ref !usage in
    let free_procs = ref (List.init procs (fun k -> k)) in
    (* running tasks as a finish-time min-heap over task ids *)
    let heap = Tt_util.Int_heap.create p in
    let proc_of = Array.make p (-1) in
    let start_of = Array.make p 0 in
    let events = Tt_util.Dynarray_compat.create () in
    let time = ref 0 in
    let done_count = ref 0 in
    let deadlock = ref false in
    let try_start () =
      (* start ready tasks in priority order while a processor and the
         memory allow; tasks that do not fit are skipped (greedy holes) *)
      let sorted = List.sort (fun a b -> compare (prio.(b), a) (prio.(a), b)) !ready in
      let remaining = ref [] in
      List.iter
        (fun i ->
          match !free_procs with
          | pr :: rest when !usage + extra i <= memory ->
              free_procs := rest;
              usage := !usage + extra i;
              if !usage > !peak then peak := !usage;
              proc_of.(i) <- pr;
              start_of.(i) <- !time;
              Tt_util.Int_heap.insert heap i (!time + work i)
          | _ -> remaining := i :: !remaining)
        sorted;
      ready := !remaining
    in
    try_start ();
    while (not !deadlock) && !done_count < p do
      if Tt_util.Int_heap.is_empty heap then deadlock := true
      else begin
        let i, finish = Tt_util.Int_heap.pop_min heap in
        time := finish;
        (* complete every task finishing at this instant *)
        let completed = ref [ i ] in
        let continue_ = ref true in
        while !continue_ do
          match Tt_util.Int_heap.min_elt heap with
          | j, fj when fj = finish ->
              ignore (Tt_util.Int_heap.pop_min heap);
              completed := j :: !completed
          | _ -> continue_ := false
          | exception Not_found -> continue_ := false
        done;
        List.iter
          (fun j ->
            incr done_count;
            Tt_util.Dynarray_compat.add_last events
              { P.node = j; proc = proc_of.(j); start = start_of.(j); finish };
            free_procs := proc_of.(j) :: !free_procs;
            (* extras and the consumed input die; children files are born *)
            usage := !usage - extra j - t.T.f.(j) + T.sum_children_f t j;
            ready := Array.to_list (T.children t j) @ !ready)
          !completed;
        try_start ()
      end
    done;
    if !deadlock then
      (* A greedy prefix stranded too many open files — the parallel
         MinMemory phenomenon. Replay with the booking discipline along a
         memory-optimal activation order: succeeds for every budget at
         least the sequential optimum. *)
      booking_schedule t ~procs ~memory ~work
    else begin
      let evs = Tt_util.Dynarray_compat.to_array events in
      Array.sort (fun (a : P.event) b -> compare (a.start, a.node) (b.start, b.node)) evs;
      let makespan = Array.fold_left (fun acc (e : P.event) -> max acc e.finish) 0 evs in
      Some { P.events = evs; makespan; peak_memory = !peak }
    end
end

module Ref_validate = struct
  exception Bad of V.violation

  (* Replay the schedule as a sequence of usage deltas grouped by instant:
     the root's input file is alive from time 0, a start books the whole
     extra working set [n i + sum_children_f i], a finish releases the
     extras and the consumed input and leaves the children files alive (net
     delta [-n i - f i]). Returns [(makespan, peak)] where [peak] is the
     maximum usage over every instant at which at least one task runs —
     the honest "memory bound at every instant" measure, independent of
     any scheduler's own accounting. *)
  let replay t (s : P.schedule) =
    let q = Array.length s.events in
    let deltas = Array.make (2 * q) (0, 0, 0) in
    Array.iteri
      (fun k (e : P.event) ->
        let extra = t.T.n.(e.node) + T.sum_children_f t e.node in
        deltas.(2 * k) <- (e.start, 1, extra);
        deltas.(2 * k + 1) <- (e.finish, -1, -t.T.n.(e.node) - t.T.f.(e.node)))
      s.events;
    Array.sort compare deltas;
    let usage = ref t.T.f.(t.T.root) in
    let running = ref 0 in
    let peak = ref 0 in
    let peak_time = ref 0 in
    let makespan = ref 0 in
    let k = ref 0 in
    while !k < 2 * q do
      let time, _, _ = deltas.(!k) in
      (* apply every delta at this instant, then observe *)
      while
        !k < 2 * q
        && (let ti, _, _ = deltas.(!k) in ti = time)
      do
        let _, dr, du = deltas.(!k) in
        running := !running + dr;
        usage := !usage + du;
        incr k
      done;
      if !running > 0 && !usage > !peak then begin
        peak := !usage;
        peak_time := time
      end;
      if time > !makespan then makespan := time
    done;
    (!makespan, !peak, !peak_time)

  let peak_usage t s =
    let _, peak, _ = replay t s in
    peak

  let check ?activation t ~memory ~work (s : P.schedule) =
    let p = T.size t in
    try
      if Array.length s.events <> p then
        raise (Bad (V.Malformed "event count differs from tree size"));
      let start_of = Array.make p (-1) in
      let finish_of = Array.make p (-1) in
      Array.iter
        (fun (e : P.event) ->
          if e.node < 0 || e.node >= p then
            raise (Bad (V.Malformed "node out of range"));
          if start_of.(e.node) >= 0 then raise (Bad (V.Malformed "duplicate node"));
          if e.start < 0 then raise (Bad (V.Malformed "negative start time"));
          if e.proc < 0 then raise (Bad (V.Malformed "negative processor"));
          if e.finish - e.start <> work e.node then
            raise (Bad (V.Malformed "duration differs from work"));
          start_of.(e.node) <- e.start;
          finish_of.(e.node) <- e.finish)
        s.events;
      (* precedence: out-tree, so a node may start only after its parent *)
      for i = 0 to p - 1 do
        let par = t.T.parent.(i) in
        if par >= 0 && start_of.(i) < finish_of.(par) then
          raise (Bad (V.Precedence { node = i; parent = par }))
      done;
      (* processor exclusivity: per processor, sorted runs must not overlap *)
      let by_proc = Hashtbl.create 16 in
      Array.iter
        (fun (e : P.event) ->
          let prev = try Hashtbl.find by_proc e.proc with Not_found -> [] in
          Hashtbl.replace by_proc e.proc (e :: prev))
        s.events;
      Hashtbl.iter
        (fun proc evs ->
          let evs =
            List.sort
              (fun (a : P.event) b -> compare (a.start, a.node) (b.start, b.node))
              evs
          in
          let rec disjoint = function
            | (a : P.event) :: (b :: _ as rest) ->
                if b.start < a.finish then
                  raise (Bad (V.Overlap { proc; first = a.node; second = b.node }));
                disjoint rest
            | _ -> ()
          in
          disjoint evs)
        by_proc;
      (* booking discipline: starts are monotone along the activation order *)
      (match activation with
      | None -> ()
      | Some order ->
          if not (Tt_core.Traversal.is_valid_order t order) then
            raise (Bad (V.Malformed "activation order is not a traversal"));
          for k = 1 to p - 1 do
            if start_of.(order.(k)) < start_of.(order.(k - 1)) then
              raise (Bad (V.Booking { position = k; node = order.(k) }))
          done);
      (* memory bound at every instant while at least one task runs *)
      let observed_makespan, observed_peak, peak_time = replay t s in
      if observed_peak > memory then
        raise
          (Bad (V.Memory { time = peak_time; usage = observed_peak; budget = memory }));
      (* accounting: the carried fields must be consistent with the events *)
      if s.makespan <> observed_makespan then
        raise (Bad (V.Accounting "makespan differs from last finish time"));
      if s.peak_memory > memory then
        raise (Bad (V.Accounting "reported peak exceeds the budget"));
      if s.peak_memory < observed_peak then
        raise (Bad (V.Accounting "reported peak understates observed usage"));
      Ok ()
    with Bad v -> Error v
end

module Ref_split = struct
  let peak_usage = Ref_validate.peak_usage

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
    { draft with P.peak_memory = peak_usage t draft }
end

(* --- the scheduling tier against the references -------------------------- *)

(* A star whose even leaves carry a 10^6-word execution file: the heavy
   leaves rank first (their critical path is longest) but few of them
   fit at once, so every completion event passes over most of the ready
   list for memory. *)
let half_heavy_star leaves =
  let t = Tt_core.Instances.star ~branches:leaves ~f_root:3 ~f_leaf:7 ~n:5 in
  T.map_weights
    ~f:(fun i -> t.T.f.(i))
    ~n:(fun i -> if i > 0 && i mod 2 = 0 then 1_000_000 else t.T.n.(i))
    t

let sched_procs = [ 1; 2; 4; 7 ]

(* the sequential optimum, 1.5x, 2x, enough for any schedule, and the
   ends of the int range, where [memory - usage] would wrap *)
let sched_budgets t =
  let mm = Tt_core.Minmem.min_memory t in
  [ mm; mm * 3 / 2; 2 * mm; T.total_f t + T.max_mem_req t; min_int; max_int ]

let verdict = function
  | Ok () -> "ok"
  | Error (V.Malformed _) -> "malformed"
  | Error (V.Precedence _) -> "precedence"
  | Error (V.Overlap _) -> "overlap"
  | Error (V.Booking _) -> "booking"
  | Error (V.Memory _) -> "memory"
  | Error (V.Accounting _) -> "accounting"

let same_verdict ?activation t ~memory ~work s =
  verdict (Ref_validate.check ?activation t ~memory ~work s)
  = verdict (V.check ?activation t ~memory ~work s)

(* The validator's mutation classes from test_sched.ml, applied to a
   schedule: each returns the mutated schedule with the budget and
   activation order it is checked under. *)
let mutations t ~work ~memory ~order (s : P.schedule) =
  let q = Array.length s.P.events in
  let event_of node =
    let found = ref s.P.events.(0) in
    Array.iter (fun (e : P.event) -> if e.P.node = node then found := e) s.P.events;
    !found
  in
  let map f = { s with P.events = Array.map f s.P.events } in
  let victim = s.P.events.(q - 1).P.node in
  let parent = t.T.parent.(victim) in
  let with_parent =
    if parent < 0 then []
    else
      let ps = event_of parent and vs = event_of victim in
      [ (* a child moved onto its parent's start *)
        ( map (fun (e : P.event) ->
              if e.P.node = victim then
                { e with P.start = ps.P.start; finish = ps.P.start + work victim }
              else e),
          max_int, None );
        (* a parent/child pair of time slots swapped *)
        ( map (fun (e : P.event) ->
              if e.P.node = victim then { ps with P.node = victim }
              else if e.P.node = parent then { vs with P.node = parent }
              else e),
          max_int, None )
      ]
  in
  let swapped =
    (* the first adjacent activation pair that is not parent/child *)
    let k = ref (-1) in
    for i = Array.length order - 1 downto 1 do
      if t.T.parent.(order.(i)) <> order.(i - 1) then k := i
    done;
    if !k < 0 then []
    else begin
      let o = Array.copy order in
      o.(!k) <- order.(!k - 1);
      o.(!k - 1) <- order.(!k);
      [ (s, memory, Some o) ]
    end
  in
  [ (s, Ref_validate.peak_usage t s - 1, None);
    (map (fun (e : P.event) -> { e with P.proc = 0 }), memory, None);
    (* processor ids past the tree size, which the validator keeps in a
       table rather than an array *)
    (map (fun (e : P.event) -> { e with P.proc = e.P.proc + T.size t }), memory, None);
    (map (fun (e : P.event) -> { e with P.proc = max_int }), memory, None);
    ( map (fun (e : P.event) ->
          if e.P.node = s.P.events.(min 1 (q - 1)).P.node then
            { e with P.node = s.P.events.(0).P.node }
          else e),
      max_int, None );
    (s, memory, Some order)
  ]
  @ with_parent @ swapped

(* Every scheduler on [t] at every processor count and budget equals its
   reference, event for event; every schedule and every mutation of it
   gets the reference validator's verdict. Returns [false] if anything
   differs, after printing each difference. *)
let sched_matches ?(work_of = Tt_sched.Work.default) name t =
  let work = work_of t in
  let order = snd (Tt_core.Minmem.run t) in
  let ok = ref true in
  let expect what a b =
    if a <> b then begin
      ok := false;
      Printf.printf "%s: %s differs\n%!" name what
    end
  in
  let verdicts what ?activation ~memory s =
    if not (same_verdict ?activation t ~memory ~work s) then begin
      ok := false;
      Printf.printf "%s: %s verdict differs\n%!" name what
    end;
    List.iter
      (fun (m, memory, activation) ->
        if not (same_verdict ?activation t ~memory ~work m) then begin
          ok := false;
          Printf.printf "%s: %s mutation verdict differs\n%!" name what
        end)
      (mutations t ~work ~memory ~order s)
  in
  List.iter
    (fun procs ->
      let split = Tt_sched.Split.run t ~procs ~work in
      expect (Printf.sprintf "split procs=%d" procs) (Ref_split.run t ~procs ~work) split;
      verdicts "split" ~memory:split.P.peak_memory split;
      List.iter
        (fun memory ->
          let tag what = Printf.sprintf "%s procs=%d mem=%d" what procs memory in
          let greedy = P.list_schedule t ~procs ~memory ~work in
          expect (tag "greedy") (Ref_parallel.list_schedule t ~procs ~memory ~work) greedy;
          expect (tag "greedy ~order") greedy (P.list_schedule ~order t ~procs ~memory ~work);
          let booking = P.booking_schedule t ~procs ~memory ~work in
          expect (tag "booking")
            (Ref_parallel.booking_schedule t ~procs ~memory ~work)
            booking;
          Option.iter (verdicts (tag "greedy") ~memory) greedy;
          Option.iter (verdicts (tag "booking") ~activation:order ~memory) booking)
        (sched_budgets t))
    sched_procs;
  !ok

let test_sched_corpus () =
  List.iter
    (fun (inst : Tt_workloads.Dataset.instance) ->
      Alcotest.(check bool) inst.name true (sched_matches inst.name inst.tree))
    (Tt_workloads.Dataset.small_corpus ~seed:3)

let test_sched_stars () =
  List.iter
    (fun (name, t) -> Alcotest.(check bool) name true (sched_matches name t))
    [ ("star-200", Tt_core.Instances.star ~branches:200 ~f_root:3 ~f_leaf:7 ~n:5);
      ("half-heavy-200", half_heavy_star 200);
      ("half-heavy-7", half_heavy_star 7)
    ]

let prop_sched_random =
  H.qcheck ~count:100 "schedulers and validator match the references"
    (H.arb_tree ~size_max:40 ()) (fun t -> sched_matches "random" t)

(* Negative execution files (the model reductions produce them) make a
   start lower the memory in use, so a task passed over earlier at the
   same instant could fit again: the scan must still not return to it. *)
let prop_sched_negative_n =
  H.qcheck ~count:100 "schedulers match the references with negative execution files"
    (H.arb_tree ~size_max:40 ~max_n:12 ()) (fun t ->
      let t = T.map_weights ~f:(fun i -> t.T.f.(i)) ~n:(fun i -> t.T.n.(i) - 6) t in
      sched_matches ~work_of:(fun t i -> 1 + (abs t.T.n.(i) / 4)) "negative-n" t)

(* Weights at the bound the schedulers accept: absolute weights that sum
   to [max_int - 1], one execution file nearly as large (either sign),
   and a lone task whose working set is [max_int - 1], the largest value
   greedy's ready set can hold. Every scheduler and the validator still
   match the references at every budget, [min_int] and [max_int]
   included. One more word of weight, a working set of [max_int] or an
   execution file of [min_int], and greedy and booking both refuse the
   tree instead of wrapping. *)
let test_sched_extreme_weights () =
  let star n = T.make ~parent:[| -1; 0; 0; 0 |] ~f:[| 1; 2; 3; 4 |] ~n in
  let big = max_int - 1 - (1 + 2 + 3 + 4 + 5 + 6 + 7) in
  let work_of _ i = 1 + (i mod 3) in
  List.iter
    (fun (name, t) -> Alcotest.(check bool) name true (sched_matches ~work_of name t))
    [ ("leaf n near max_int", star [| 5; big; 6; 7 |]);
      ("leaf n near -max_int", star [| 5; -big; 6; 7 |]);
      ("root n near max_int", star [| big; 5; 6; 7 |]);
      ("lone task", T.make ~parent:[| -1 |] ~f:[| 0 |] ~n:[| max_int - 1 |])
    ];
  let refused what run =
    match run () with
    | _ -> Alcotest.failf "%s: accepted weights that reach max_int" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (name, t) ->
      let work _ = 1 in
      List.iter
        (fun memory ->
          refused (name ^ " greedy") (fun () -> P.list_schedule t ~procs:2 ~memory ~work);
          refused (name ^ " booking") (fun () ->
              P.booking_schedule ~order:(Traversal.top_down_order t) t ~procs:2 ~memory ~work))
        [ 0; max_int ])
    [ ("sum max_int", star [| 5; big + 1; 6; 7 |]);
      ("working set max_int", T.make ~parent:[| -1 |] ~f:[| 0 |] ~n:[| max_int |]);
      ("n min_int", T.make ~parent:[| -1; 0 |] ~f:[| 0; 0 |] ~n:[| 0; min_int |])
    ]

(* The parent re-sorted its whole ready list at every completion event:
   3.6-3.8 s at 8k leaves already, growing quadratically. One O(log p)
   search per start takes tens of milliseconds at 32k. *)
let test_greedy_wide_star () =
  let t = half_heavy_star 32_768 in
  let work = Tt_sched.Work.default t in
  let mm, order = Tt_core.Minmem.run t in
  List.iter
    (fun (label, memory) ->
      let t0 = Unix.gettimeofday () in
      let s = P.list_schedule ~order t ~procs:4 ~memory ~work in
      let dt = Unix.gettimeofday () -. t0 in
      (match s with
      | Some s -> Alcotest.(check bool) (label ^ " valid") true (V.check t ~memory ~work s = Ok ())
      | None -> Alcotest.fail (label ^ ": no schedule at or above the optimum"));
      if dt >= 2.0 then Alcotest.failf "greedy at %s took %.2f s (bound 2 s)" label dt)
    [ ("1.0x", mm); ("1.5x", mm * 3 / 2) ]

(* Bytes allocated by [f ()] on this domain. The minor heap is emptied
   first: a minor collection inside the call can make the counters read
   a minor heap's worth too much (0.9-1.9 MB at the default 256k words,
   seen for about 3 % of starting positions on a call allocating under
   100 KB). Started on an empty minor heap, a call that allocates less
   than the heap holds does not fill it, so it triggers no collection
   itself. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. before)

(* Scheduler memory follows the tree, not [procs]: ten million
   processors on a small tree give the [procs = p] schedule and allocate
   under 1 MB. (The parent built a ten-million-element processor list
   or load array first: 161-241 MB.) *)
let test_sched_procs_clamp () =
  let huge = 10_000_000 in
  List.iter
    (fun t ->
      let p = T.size t in
      let work = Tt_sched.Work.default t in
      let memory = 2 * Tt_core.Minmem.min_memory t in
      let order = snd (Tt_core.Minmem.run t) in
      let bounded what at_p run =
        let got, bytes = allocated (fun () -> run huge) in
        Alcotest.(check bool) (Printf.sprintf "%s p=%d: same as procs=p" what p) true (got = at_p);
        if bytes >= 1e6 then
          Alcotest.failf "%s p=%d procs=%d allocated %.0f bytes (bound 1 MB)" what p huge bytes
      in
      let greedy procs = P.list_schedule ~order t ~procs ~memory ~work in
      let booking procs = P.booking_schedule ~order t ~procs ~memory ~work in
      let split procs = Tt_sched.Split.run t ~procs ~work in
      let pareto procs = Tt_sched.Pareto.sweep ~steps:3 t ~procs ~work in
      bounded "greedy" (greedy p) greedy;
      bounded "booking" (booking p) booking;
      bounded "split" (split p) split;
      bounded "pareto" (pareto p) pareto)
    [ T.make ~parent:[| -1; 0; 0 |] ~f:[| 2; 3; 4 |] ~n:[| 1; 5; 6 |];
      T.random ~rng:(Tt_util.Rng.create 5) ~size:60 ~max_f:50 ~max_n:9
    ]

(* Random trees whose files span the extremes: empty, one word, powers of
   ten up to 10^15 and their neighbours, so size classes are sparse,
   huge and often tied. *)
let arb_extreme_tree_with_order =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Tt_util.Rng.create seed in
        let shape = H.random_tree ~rng ~size_max:30 ~max_f:12 ~max_n:6 in
        let size () =
          let pow10 = int_of_float (10. ** float_of_int (Tt_util.Rng.int_incl rng 0 15)) in
          match Tt_util.Rng.int rng 6 with
          | 0 -> 0
          | 1 -> 1
          | 2 -> pow10
          | 3 -> pow10 + 1
          | 4 -> max 0 (pow10 - 1)
          | _ -> Tt_util.Rng.int_incl rng 1 1000
        in
        let tree = T.map_weights ~f:(fun _ -> size ()) ~n:(fun _ -> size ()) shape in
        (tree, Traversal.random_order ~rng tree))
      (QCheck.Gen.int_bound 1_000_000)
  in
  QCheck.make ~print:(fun (t, _) -> T.to_string t) gen

let prop_minio_extreme_sizes =
  H.qcheck ~count:150 "minio policies match the rescan reference on extreme sizes"
    arb_extreme_tree_with_order (fun (tree, order) ->
      List.for_all
        (fun memory ->
          List.for_all
            (fun (_, policy) ->
              same_schedule
                (ref_minio_run tree ~memory ~order policy)
                (Minio.run tree ~memory ~order policy))
            Minio.all_policies)
        (memory_levels tree order))

(* Best Fit and Best Fill index their candidates in O(p) words, however
   large or varied the file sizes. The parent kept an ordered set over
   [0, max f] and one p-capacity set per distinct size: 129 MB for one
   call on a 3-node tree with a 10^9-word file, 135 MB on a 30k-leaf
   star of distinct sizes. *)
let test_minio_alloc_bound () =
  let bytes tree ~memory ~order policy =
    snd (allocated (fun () -> Minio.run tree ~memory ~order policy))
  in
  (* one huge file: the whole call stays under 1 MB *)
  let small = T.make ~parent:[| -1; 0; 0 |] ~f:[| 1; 1_000_000_000; 5 |] ~n:[| 0; 0; 0 |] in
  let order = [| 0; 2; 1 |] in
  let memory = T.max_mem_req small in
  List.iter
    (fun policy ->
      let b = bytes small ~memory ~order policy in
      if b >= 1e6 then
        Alcotest.failf "%s on a 10^9-word file allocated %.0f bytes (bound 1 MB)"
          (Minio.policy_name policy) b)
    [ Minio.Best_fit; Minio.Best_fill ];
  (* 30k distinct sizes, all resident once the root has run, then a
     deficit at the first leaf. The call's own O(p) arrays (positions,
     tau, residency) are common to all policies, and every eviction
     query leaves a short-lived option behind, so the bound is on what
     the policy adds to the major heap over LSNF: the index itself. *)
  let leaves = 30_000 in
  let star =
    T.make
      ~parent:(Array.init (leaves + 1) (fun i -> if i = 0 then -1 else 0))
      ~f:(Array.init (leaves + 1) (fun i -> if i = 0 then 1 else i))
      ~n:(Array.init (leaves + 1) (fun i -> if i = 0 then 0 else 1_000_000))
  in
  let order = Traversal.top_down_order star in
  let memory = T.max_mem_req star in
  let major policy =
    (* drained before and after: objects a minor collection promotes
       during the call would otherwise count as the call's allocation *)
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.major_words in
    let s = Minio.run star ~memory ~order policy in
    Gc.minor ();
    (s, ((Gc.quick_stat ()).Gc.major_words -. before) *. float_of_int (Sys.word_size / 8))
  in
  let base = snd (major Minio.Lsnf) in
  List.iter
    (fun policy ->
      let s, b = major policy in
      Alcotest.(check bool) "evicts" true (Io_schedule.io_volume star (Option.get s) > 0);
      let extra = b -. base in
      if extra >= 1e6 then
        Alcotest.failf "%s on %d distinct sizes put %.0f bytes more than LSNF on the major heap (bound 1 MB)"
          (Minio.policy_name policy) leaves extra)
    [ Minio.Best_fit; Minio.Best_fill ]

(* --- the in-core shortcut ------------------------------------------------
   [Minio.run] returns the in-core schedule at once when the traversal
   fits, and builds its candidate index only for one that overflows.
   Both paths must give exactly the parent's answer: the same [None], or
   the same order and the same tau, element by element. *)

let fig7_fractions = [ 0.0; 0.25; 0.5; 0.75 ]

(* the engine's [budget=P%]: a position in the gap between the
   working-set floor and the in-core optimum *)
let fig7_budget tree ~in_core frac =
  let floor = T.max_mem_req tree in
  floor + int_of_float (frac *. float_of_int (in_core - floor))

let test_minio_shortcut_corpus () =
  List.iter
    (fun seed ->
      let fits = ref 0 and overflows = ref 0 in
      List.iter
        (fun (inst : Tt_workloads.Dataset.instance) ->
          let tree = inst.tree in
          let in_core, order = Tt_core.Minmem.run tree in
          List.iter
            (fun frac ->
              let memory = fig7_budget tree ~in_core frac in
              if memory >= in_core then incr fits else incr overflows;
              List.iter
                (fun (pname, policy) ->
                  if
                    not
                      (same_schedule
                         (Parent_minio.run tree ~memory ~order policy)
                         (Minio.run tree ~memory ~order policy))
                  then
                    Alcotest.failf "seed %d, %s, budget %g%%, %s: differs from the parent" seed
                      inst.name (100. *. frac) pname)
                Minio.all_policies)
            fig7_fractions)
        (Tt_workloads.Dataset.corpus ~scale:1 ~seed ());
      (* both paths are exercised on every corpus *)
      Alcotest.(check bool) (Printf.sprintf "seed %d: some traversals fit" seed) true (!fits > 0);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: some traversals overflow" seed)
        true (!overflows > 0))
    [ 1; 2; 3 ]

(* Below the floor, at it, around the traversal's own peak (the shortcut
   switches between [peak - 1] and [peak]) and at [max_int]. *)
let shortcut_memories tree order =
  let floor = T.max_mem_req tree and peak = Traversal.peak tree order in
  [ floor - 1; floor; peak - 1; peak; peak + 1; max_int ]

let prop_minio_shortcut_random =
  H.qcheck ~count:300 "minio = the parent's indexed run around the in-core peak"
    (H.arb_tree_with_order ~size_max:40 ())
    (fun (tree, order) ->
      List.for_all
        (fun memory ->
          List.for_all
            (fun (_, policy) ->
              same_schedule
                (Parent_minio.run tree ~memory ~order policy)
                (Minio.run tree ~memory ~order policy))
            Minio.all_policies)
        (shortcut_memories tree order))

(* Orders that break validity at the start, in the middle or only at the
   last step, so an overflow earlier in the order does not hide them. *)
let invalid_orders order =
  let p = Array.length order in
  let with_last v =
    let o = Array.copy order in
    o.(p - 1) <- v;
    o
  in
  let root_child_first () =
    let o = Array.copy order in
    o.(0) <- order.(1);
    o.(1) <- order.(0);
    o
  in
  [ Array.sub order 0 (p - 1); Array.append order [| order.(0) |]; with_last p; with_last (-1) ]
  @ if p >= 2 then [ with_last order.(0); root_child_first () ] else []

let prop_minio_invalid_orders =
  H.qcheck ~count:200 "minio raises Invalid_argument on an invalid order at every memory"
    (H.arb_tree_with_order ~size_max:40 ())
    (fun (tree, order) ->
      List.for_all
        (fun bad ->
          List.for_all
            (fun memory ->
              List.for_all
                (fun (_, policy) ->
                  match Minio.run tree ~memory ~order:bad policy with
                  | _ -> false
                  | exception Invalid_argument _ -> true)
                Minio.all_policies)
            (shortcut_memories tree order))
        (invalid_orders order))

(* The corpus and QCheck trees keep the candidate sets within two bitset
   levels (fewer than 63^2 positions). A 20k-node random tree along a
   random order has deficits throughout, and its index runs on three. *)
let test_minio_deep_index () =
  let tree = T.random ~rng:(Tt_util.Rng.create 31) ~size:20_000 ~max_f:1000 ~max_n:50 in
  let order = Traversal.random_order ~rng:(Tt_util.Rng.create 37) tree in
  let floor = T.max_mem_req tree and peak = Traversal.peak tree order in
  List.iter
    (fun memory ->
      List.iter
        (fun (pname, policy) ->
          let expect = Parent_minio.run tree ~memory ~order policy in
          if not (same_schedule expect (Minio.run tree ~memory ~order policy)) then
            Alcotest.failf "%s at memory %d: differs from the parent" pname memory;
          if memory < peak then
            Alcotest.(check bool)
              (Printf.sprintf "%s at memory %d evicts" pname memory)
              true
              (Io_schedule.io_volume tree (Option.get expect) > 0))
        Minio.all_policies)
    [ floor; floor + ((peak - floor) / 4); peak - 1 ]

(* A traversal that fits costs one Algorithm 1 pass and the tau array,
   whatever the policy: under 2 words per node on a 100k-node random
   tree along its best postorder at its own peak. The parent built the
   policy's candidate index first. *)
let test_minio_fits_alloc_bound () =
  let p = 100_000 in
  let tree = T.random ~rng:(Tt_util.Rng.create 3) ~size:p ~max_f:1000 ~max_n:50 in
  let memory, order = Tt_core.Postorder_opt.run tree in
  List.iter
    (fun (name, policy) ->
      let s, bytes = allocated (fun () -> Minio.run tree ~memory ~order policy) in
      Alcotest.(check bool) (name ^ ": in core") true (s = Some (Io_schedule.in_core order));
      let words = bytes /. float_of_int (Sys.word_size / 8) /. float_of_int p in
      if words >= 2. then
        Alcotest.failf "%s on a fitting traversal allocated %.2f words per node (bound 2)" name
          words)
    Minio.all_policies

(* --- reference symbolic pipeline: Dynarray lists, Triplet builders ------- *)

module Csr = Tt_sparse.Csr
module Graph_adj = Tt_ordering.Graph_adj

let ref_min_degree (g : Graph_adj.t) =
  let module D = Tt_util.Dynarray_compat in
  let n = g.Graph_adj.n in
  let avars = Array.map (fun a -> D.of_array a) g.Graph_adj.adj in
  let aelts : int D.t array = Array.init n (fun _ -> D.create ()) in
  let boundary : int array array = Array.make n [||] in
  let eliminated = Array.make n false in
  let mark = Array.make n 0 in
  let stamp = ref 0 in
  let next_stamp () =
    incr stamp;
    !stamp
  in
  (* exact external degree of v *)
  let compute_degree v =
    let s = next_stamp () in
    mark.(v) <- s;
    let count = ref 0 in
    let visit u =
      if (not eliminated.(u)) && mark.(u) <> s then begin
        mark.(u) <- s;
        incr count
      end
    in
    D.iter (fun u -> if not eliminated.(u) then visit u) avars.(v);
    D.iter (fun e -> Array.iter visit boundary.(e)) aelts.(v);
    !count
  in
  let heap = Tt_util.Int_heap.create n in
  for v = 0 to n - 1 do
    Tt_util.Int_heap.insert heap v (compute_degree v)
  done;
  let perm = Array.make n (-1) in
  for step = 0 to n - 1 do
    let p, _deg = Tt_util.Int_heap.pop_min heap in
    perm.(step) <- p;
    eliminated.(p) <- true;
    (* boundary of the new element: live variable neighbors plus the
       boundaries of adjacent (now absorbed) elements *)
    let s = next_stamp () in
    mark.(p) <- s;
    let bnd = D.create () in
    let visit u =
      if (not eliminated.(u)) && mark.(u) <> s then begin
        mark.(u) <- s;
        D.add_last bnd u
      end
    in
    D.iter (fun u -> if not eliminated.(u) then visit u) avars.(p);
    let absorbed = D.to_array aelts.(p) in
    Array.iter (fun e -> Array.iter visit boundary.(e)) absorbed;
    let bnd = D.to_array bnd in
    boundary.(p) <- bnd;
    (* release the absorbed elements *)
    Array.iter (fun e -> boundary.(e) <- [||]) absorbed;
    avars.(p) <- D.create ();
    aelts.(p) <- D.create ();
    (* update each boundary variable: drop dead variable neighbors and
       absorbed elements, gain element p, refresh its degree *)
    let absorbed_set = next_stamp () in
    Array.iter (fun e -> mark.(e) <- absorbed_set) absorbed;
    Array.iter
      (fun v ->
        (* avars v: keep live neighbors outside the new clique; members of
           the clique are reachable through element p *)
        let s2 = next_stamp () in
        Array.iter (fun u -> mark.(u) <- s2) bnd;
        let keep = D.create () in
        D.iter
          (fun u -> if (not eliminated.(u)) && mark.(u) <> s2 then D.add_last keep u)
          avars.(v);
        avars.(v) <- keep;
        let kept_elts = D.create () in
        D.iter
          (fun e -> if mark.(e) <> absorbed_set && e <> p then D.add_last kept_elts e)
          aelts.(v);
        D.add_last kept_elts p;
        aelts.(v) <- kept_elts;
        Tt_util.Int_heap.update heap v (compute_degree v))
      bnd
  done;
  perm

(* [Csr.t] is private, so the reference returns the pattern's arrays *)
let ref_symmetrize_pattern (a : Csr.t) =
  let open Tt_sparse in
  if a.Csr.nrows <> a.Csr.ncols then invalid_arg "Csr.symmetrize_pattern: not square";
  let n = a.Csr.nrows in
  let t = Triplet.create ~nrows:n ~ncols:n in
  for i = 0 to n - 1 do
    Triplet.add t i i 1.;
    for k = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
      let j = a.Csr.col_idx.(k) in
      Triplet.add t i j 1.;
      Triplet.add t j i 1.
    done
  done;
  let b = Csr.of_triplet t in
  (* collapse summed duplicates back to pattern value 1 *)
  (b.Csr.row_ptr, b.Csr.col_idx, Array.map (fun _ -> 1.) b.Csr.values)

let ref_permute_sym (a : Csr.t) perm =
  let open Tt_sparse in
  if a.Csr.nrows <> a.Csr.ncols then invalid_arg "Csr.permute_sym: not square";
  let n = a.Csr.nrows in
  if Array.length perm <> n then invalid_arg "Csr.permute_sym: wrong length";
  let inv = Array.make n (-1) in
  Array.iteri
    (fun newi oldi ->
      if oldi < 0 || oldi >= n || inv.(oldi) <> -1 then
        invalid_arg "Csr.permute_sym: not a permutation";
      inv.(oldi) <- newi)
    perm;
  let t = Triplet.create ~nrows:n ~ncols:n in
  for i = 0 to n - 1 do
    for k = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
      Triplet.add t inv.(i) inv.(a.Csr.col_idx.(k)) a.Csr.values.(k)
    done
  done;
  Csr.of_triplet t

(* [Graph_adj.t] is private too: the reference cleans the lists and the
   reference dissection wraps them with [of_adjacency], which is the
   identity on clean symmetric lists (checked against this reference
   below) *)
let ref_of_adjacency adj =
  let n = Array.length adj in
  Array.mapi
    (fun i neighbors ->
      Array.iter
        (fun v ->
          if v < 0 || v >= n then invalid_arg "Graph_adj.of_adjacency: out of range")
        neighbors;
      let l = List.filter (fun v -> v <> i) (Array.to_list neighbors) in
      let l = List.sort_uniq compare l in
      Array.of_list l)
    adj

let ref_induced (g : Graph_adj.t) vertices =
  let module D = Tt_util.Dynarray_compat in
  let map_back = Array.of_list vertices in
  let n' = Array.length map_back in
  let local = Hashtbl.create (2 * n') in
  Array.iteri (fun li v -> Hashtbl.replace local v li) map_back;
  let parent = g.Graph_adj.adj in
  let adj =
    Array.map
      (fun v ->
        let ns = D.create () in
        Array.iter
          (fun u ->
            match Hashtbl.find_opt local u with
            | Some lu -> D.add_last ns lu
            | None -> ())
          parent.(v);
        D.to_array ns)
      map_back
  in
  (Graph_adj.of_adjacency (ref_of_adjacency adj), map_back)

let ref_nested_dissection ?(small = 24) (g : Graph_adj.t) =
  let module D = Tt_util.Dynarray_compat in
  let out = D.create () in
  let rec dissect (sub : Graph_adj.t) (map_back : int array) =
    let n = sub.Graph_adj.n in
    if n = 0 then ()
    else if n <= small then
      Array.iter (fun li -> D.add_last out map_back.(li)) (ref_min_degree sub)
    else begin
      let comp, count = Graph_adj.components sub in
      if count > 1 then begin
        for c = 0 to count - 1 do
          let part = ref [] in
          for v = n - 1 downto 0 do
            if comp.(v) = c then part := v :: !part
          done;
          let subsub, mb = ref_induced sub !part in
          let mb = Array.map (fun v -> map_back.(v)) mb in
          dissect subsub mb
        done
      end
      else begin
        let start = Graph_adj.pseudo_peripheral sub 0 in
        let level = Graph_adj.bfs_levels sub start in
        let max_level = Array.fold_left max 0 level in
        if max_level < 2 then
          Array.iter (fun li -> D.add_last out map_back.(li)) (ref_min_degree sub)
        else begin
          let mid = max_level / 2 in
          let below = ref [] and above = ref [] and sep = ref [] in
          for v = n - 1 downto 0 do
            if level.(v) < mid then below := v :: !below
            else if level.(v) > mid then above := v :: !above
            else sep := v :: !sep
          done;
          let sub_b, mb_b = ref_induced sub !below in
          let sub_a, mb_a = ref_induced sub !above in
          dissect sub_b (Array.map (fun v -> map_back.(v)) mb_b);
          dissect sub_a (Array.map (fun v -> map_back.(v)) mb_a);
          List.iter (fun v -> D.add_last out map_back.(v)) !sep
        end
      end
    end
  in
  dissect g (Array.init g.Graph_adj.n (fun i -> i));
  D.to_array out

(* values compared by their bits: no summation may change a float *)
let same_csr (a : Csr.t) (b : Csr.t) =
  a.Csr.nrows = b.Csr.nrows && a.Csr.ncols = b.Csr.ncols
  && a.Csr.row_ptr = b.Csr.row_ptr && a.Csr.col_idx = b.Csr.col_idx
  && Array.length a.Csr.values = Array.length b.Csr.values
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Csr.values b.Csr.values

(* the whole front end on one matrix: pattern, both permutations and
   the permuted patterns *)
let check_front_end name (m : Csr.t) =
  let pattern = Csr.symmetrize_pattern m in
  let rp, rc, rv = ref_symmetrize_pattern m in
  if not (pattern.Csr.row_ptr = rp && pattern.Csr.col_idx = rc && pattern.Csr.values = rv)
  then Alcotest.failf "%s: symmetrize_pattern differs" name;
  let g = Graph_adj.of_pattern pattern in
  List.iter
    (fun (what, perm, ref_perm) ->
      if perm <> ref_perm then Alcotest.failf "%s: %s permutation differs" name what;
      if not (same_csr (Csr.permute_sym pattern perm) (ref_permute_sym pattern perm)) then
        Alcotest.failf "%s: permute_sym by %s differs" name what)
    [ ("mindeg", Tt_ordering.Min_degree.order g, ref_min_degree g);
      ("nd", Tt_ordering.Nested_dissection.order g, ref_nested_dissection g)
    ]

let test_pipeline_corpus () =
  List.iter
    (fun seed ->
      List.iter
        (fun (name, m) -> check_front_end (Printf.sprintf "seed %d %s" seed name) m)
        (Tt_workloads.Dataset.matrices ~seed ()))
    [ 1; 2; 3; 7 ]

let test_pipeline_spgen () =
  let module G = Tt_sparse.Spgen in
  let rng seed = Tt_util.Rng.create seed in
  List.iter
    (fun (name, m) -> check_front_end name m)
    [ ("grid2d-0", G.grid2d 0);
      ("grid2d-1", G.grid2d 1);
      ("grid2d-19", G.grid2d 19);
      ("rect-5x40", G.grid2d_rect 5 40);
      ("grid9-17", G.grid2d_9pt 17);
      ("grid3d-8", G.grid3d 8);
      ("banded-500", G.banded ~rng:(rng 3) ~n:500 ~bandwidth:10 ~fill:0.4);
      ("random-700", G.random_sym ~rng:(rng 4) ~n:700 ~nnz_per_row:3.0);
      ("random-1", G.random_sym ~rng:(rng 5) ~n:1 ~nnz_per_row:3.0);
      ("arrow-3", G.block_arrow ~n:3 ~blocks:8 ~border:2);
      ("arrow-600", G.block_arrow ~n:600 ~blocks:8 ~border:15);
      ("powerlaw-600", G.power_law ~rng:(rng 6) ~n:600 ~edges_per_node:2);
      ("tridiagonal-300", G.tridiagonal 300)
    ]

(* symmetric graphs of the shapes that stress the tail shortcut, the
   in-place lists and the supervariables: complete graphs, stars,
   disjoint cliques, paths, n = 0 and n = 1, seeded random graphs, and
   blow-ups of random graphs, where each vertex becomes a clique or an
   independent set of copies with its neighbors (twins from the
   start) *)
(* a seeded permutation of [0, n) *)
let shuffled rng n =
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Tt_util.Rng.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  perm

let arb_sym_graph =
  let open QCheck.Gen in
  let edges n pairs =
    let adj = Array.make n [] in
    List.iter
      (fun (u, v) ->
        if u <> v then begin
          adj.(u) <- v :: adj.(u);
          adj.(v) <- u :: adj.(v)
        end)
      pairs;
    Array.map Array.of_list adj
  in
  let pairs_within n keep =
    List.filter keep (List.concat (List.init n (fun u -> List.init n (fun v -> (u, v)))))
  in
  let random_pairs n m = list_size (return m) (pair (int_bound (n - 1)) (int_bound (n - 1))) in
  (* base vertex [v] becomes [copies.(v)] vertices, adjacent to every
     copy of its base neighbors and, for cliques, to each other *)
  let blow_up k base copies clique =
    let off = Array.make (k + 1) 0 in
    Array.iteri (fun v c -> off.(v + 1) <- off.(v) + c) copies;
    let members v = List.init copies.(v) (fun i -> off.(v) + i) in
    let cross (a, b) =
      List.concat_map (fun x -> List.map (fun y -> (x, y)) (members b)) (members a)
    in
    let inside = if clique then List.concat (List.init k (fun v -> cross (v, v))) else [] in
    ( (if clique then "blow-up cliques" else "blow-up sets"),
      edges off.(k) (inside @ List.concat_map cross base) )
  in
  let shape =
    oneof
      [ map (fun n -> ("complete", edges n (pairs_within n (fun _ -> true)))) (int_range 0 30);
        map (fun n -> ("star", edges n (List.init n (fun v -> (0, v))))) (int_range 1 60);
        map2
          (fun k c ->
            ("cliques", edges (k * c) (pairs_within (k * c) (fun (u, v) -> u / c = v / c))))
          (int_range 1 5) (int_range 1 8);
        map
          (fun n -> ("path", edges n (List.init (max 0 (n - 1)) (fun v -> (v, v + 1)))))
          (int_range 0 80);
        map (fun n -> ("tiny", edges n [])) (int_range 0 1);
        ( int_range 2 120 >>= fun n ->
          int_range 0 (4 * n) >>= fun m ->
          map (fun pairs -> ("random", edges n pairs)) (random_pairs n m) );
        ( int_range 2 30 >>= fun k ->
          int_range 0 (3 * k) >>= fun m ->
          random_pairs k m >>= fun base ->
          array_size (return k) (int_range 1 4) >>= fun copies ->
          map (blow_up k base copies) bool )
      ]
  in
  QCheck.make
    ~print:(fun (kind, adj) -> Printf.sprintf "%s n=%d" kind (Array.length adj))
    (* relabel so the tie rule meets every shape in every position *)
    ( pair shape (int_bound 1_000_000) >|= fun ((kind, adj), seed) ->
      let n = Array.length adj in
      let relabel = shuffled (Tt_util.Rng.create seed) n in
      let out = Array.make n [||] in
      Array.iteri (fun v a -> out.(relabel.(v)) <- Array.map (fun u -> relabel.(u)) a) adj;
      (kind, out) )

let prop_pipeline_graphs =
  H.qcheck ~count:400 "min degree, nd and of_adjacency equal the reference" arb_sym_graph
    (fun (_, adj) ->
      let g = Graph_adj.of_adjacency adj in
      g.Graph_adj.adj = ref_of_adjacency adj
      && Tt_ordering.Min_degree.order g = ref_min_degree g
      && Tt_ordering.Nested_dissection.order ~small:6 g = ref_nested_dissection ~small:6 g)

(* raw lists: duplicates, self-loops and one-sided edges *)
let arb_raw_lists =
  QCheck.make
    ~print:(fun adj -> Printf.sprintf "n=%d" (Array.length adj))
    QCheck.Gen.(
      int_range 1 30 >>= fun n ->
      array_size (return n) (array_size (int_bound 12) (int_bound (n - 1))))

(* each list joined with the vertices whose lists name it *)
let closure adj =
  let both = Array.map Array.to_list adj in
  Array.iteri (fun v a -> Array.iter (fun u -> both.(u) <- v :: both.(u)) a) adj;
  Array.map Array.of_list both

let prop_of_adjacency_raw =
  H.qcheck ~count:300 "of_adjacency cleans raw lists into their symmetric closure" arb_raw_lists
    (fun adj -> (Graph_adj.of_adjacency adj).Graph_adj.adj = ref_of_adjacency (closure adj))

(* a one-sided edge counts both ways: min degree orders a graph as its
   symmetric closure *)
let prop_min_degree_closure =
  H.qcheck ~count:300 "min degree reads one-sided lists as their symmetric closure"
    arb_raw_lists (fun adj ->
      let sym = Graph_adj.of_adjacency (closure adj) in
      Tt_ordering.Min_degree.order (Graph_adj.of_adjacency adj) = ref_min_degree sym)

(* seeded non-symmetric matrices with repeated coordinates, so the rows
   hold summed values, and a seeded permutation *)
let arb_csr_perm =
  QCheck.make
    ~print:(fun (a, _) -> Printf.sprintf "n=%d nnz=%d" a.Csr.nrows (Csr.nnz a))
    QCheck.Gen.(
      pair (int_range 0 40) (int_bound 1_000_000) >|= fun (n, seed) ->
      let rng = Tt_util.Rng.create seed in
      let t = Tt_sparse.Triplet.create ~nrows:n ~ncols:n in
      if n > 0 then
        for _ = 1 to Tt_util.Rng.int rng (4 * n + 1) do
          Tt_sparse.Triplet.add t (Tt_util.Rng.int rng n) (Tt_util.Rng.int rng n)
            (Tt_util.Rng.float rng 2.0 -. 1.0)
        done;
      (Csr.of_triplet t, shuffled rng n))

let ref_transpose (a : Csr.t) =
  let t = Tt_sparse.Triplet.create ~nrows:a.Csr.ncols ~ncols:a.Csr.nrows in
  for i = 0 to a.Csr.nrows - 1 do
    for k = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
      Tt_sparse.Triplet.add t a.Csr.col_idx.(k) i a.Csr.values.(k)
    done
  done;
  Csr.of_triplet t

let ref_symmetrize_values (a : Csr.t) =
  let open Tt_sparse in
  if a.Csr.nrows <> a.Csr.ncols then invalid_arg "Csr.symmetrize_values: not square";
  let n = a.Csr.nrows in
  let t = Triplet.create ~nrows:n ~ncols:n in
  for i = 0 to n - 1 do
    for k = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
      let j = a.Csr.col_idx.(k) in
      if i <> j then begin
        Triplet.add t i j (0.5 *. a.Csr.values.(k));
        Triplet.add t j i (0.5 *. a.Csr.values.(k))
      end
    done
  done;
  let sym = Csr.of_triplet t in
  (* diagonal shift: 1 + sum of absolute off-diagonal values per row *)
  let t2 = Triplet.create ~nrows:n ~ncols:n in
  for i = 0 to n - 1 do
    let s = ref 1. in
    for k = sym.Csr.row_ptr.(i) to sym.Csr.row_ptr.(i + 1) - 1 do
      if sym.Csr.col_idx.(k) <> i then begin
        s := !s +. Float.abs sym.Csr.values.(k);
        Triplet.add t2 i sym.Csr.col_idx.(k) sym.Csr.values.(k)
      end
    done;
    Triplet.add t2 i i !s
  done;
  Csr.of_triplet t2

(* [of_pattern] reads a non-symmetric pattern as its symmetric closure *)
let prop_csr_builders =
  H.qcheck ~count:300
    "transpose, permute_sym, symmetrize_pattern and of_pattern equal the reference, values bit for bit"
    arb_csr_perm (fun (a, perm) ->
      let rp, rc, rv = ref_symmetrize_pattern a in
      let p = Csr.symmetrize_pattern a in
      same_csr (Csr.transpose a) (ref_transpose a)
      && same_csr (Csr.permute_sym a perm) (ref_permute_sym a perm)
      && p.Csr.row_ptr = rp && p.Csr.col_idx = rc && p.Csr.values = rv
      && (Graph_adj.of_pattern a).Graph_adj.adj = (Graph_adj.of_pattern p).Graph_adj.adj)

(* every Spgen matrix is [symmetrize_values] of its raw stencil, so the
   Spgen digests hold when these do; the raw matrices here carry
   diagonals, summed duplicates and one-sided entries *)
let prop_symmetrize_values =
  H.qcheck ~count:300 "symmetrize_values equals the triplet reference, values bit for bit"
    arb_csr_perm (fun (a, _) -> same_csr (Csr.symmetrize_values a) (ref_symmetrize_values a))

(* the pattern behind a manifest's [gen random size=3000]: the Dynarray
   lists allocated 243 MB on it *)
let test_min_degree_alloc_bound () =
  let m = Tt_sparse.Spgen.random_sym ~rng:(Tt_util.Rng.create 42) ~n:3000 ~nnz_per_row:3.0 in
  let g = Graph_adj.of_pattern (Csr.symmetrize_pattern m) in
  let perm, bytes = allocated (fun () -> Tt_ordering.Min_degree.order g) in
  Alcotest.(check int) "a permutation" 3000 (Array.length perm);
  if bytes >= 16e6 then
    Alcotest.failf "Min_degree.order allocated %.1f MB (bound 16 MB)" (bytes /. 1e6)
(* --- Spgen stencils: the Triplet builders the sorted rows replaced ----- *)

(* Verbatim copies of [Spgen]'s duplicate-free stencils as they were when
   every generated matrix went through a growing [Triplet], a copy,
   [compress] and [symmetrize_values]. *)
module Ref_spgen = struct
  open Tt_sparse

  let finalize t =
    let a = Csr.of_triplet t in
    Csr.symmetrize_values a

  let grid_stencil ~k ~offsets =
    let n = k * k in
    let t = Triplet.create ~nrows:n ~ncols:n in
    let id x y = (x * k) + y in
    for x = 0 to k - 1 do
      for y = 0 to k - 1 do
        List.iter
          (fun (dx, dy) ->
            let x' = x + dx and y' = y + dy in
            if x' >= 0 && x' < k && y' >= 0 && y' < k then
              Triplet.add t (id x y) (id x' y') (-1.))
          offsets
      done
    done;
    finalize t

  let grid2d k = grid_stencil ~k ~offsets:[ (1, 0); (-1, 0); (0, 1); (0, -1) ]

  let grid2d_rect kx ky =
    let n = kx * ky in
    let t = Triplet.create ~nrows:n ~ncols:n in
    let id x y = (x * ky) + y in
    for x = 0 to kx - 1 do
      for y = 0 to ky - 1 do
        List.iter
          (fun (dx, dy) ->
            let x' = x + dx and y' = y + dy in
            if x' >= 0 && x' < kx && y' >= 0 && y' < ky then
              Triplet.add t (id x y) (id x' y') (-1.))
          [ (1, 0); (-1, 0); (0, 1); (0, -1) ]
      done
    done;
    finalize t

  let grid2d_9pt k =
    grid_stencil ~k
      ~offsets:
        [ (1, 0); (-1, 0); (0, 1); (0, -1); (1, 1); (1, -1); (-1, 1); (-1, -1) ]

  let grid3d k =
    let n = k * k * k in
    let t = Triplet.create ~nrows:n ~ncols:n in
    let id x y z = (((x * k) + y) * k) + z in
    let offsets = [ (1, 0, 0); (-1, 0, 0); (0, 1, 0); (0, -1, 0); (0, 0, 1); (0, 0, -1) ] in
    for x = 0 to k - 1 do
      for y = 0 to k - 1 do
        for z = 0 to k - 1 do
          List.iter
            (fun (dx, dy, dz) ->
              let x' = x + dx and y' = y + dy and z' = z + dz in
              if x' >= 0 && x' < k && y' >= 0 && y' < k && z' >= 0 && z' < k then
                Triplet.add t (id x y z) (id x' y' z') (-1.))
            offsets
        done
      done
    done;
    finalize t

  let tridiagonal n =
    let t = Triplet.create ~nrows:n ~ncols:n in
    for i = 1 to n - 1 do
      Triplet.add t i (i - 1) (-1.)
    done;
    finalize t
end

let spgen_mismatch name a b =
  if not (same_csr a b) then Alcotest.failf "%s: not the Triplet build, bit for bit" name

(* every side the manifest accepts up to 30 (3D: 12), the negative
   square sides that give a diagonal matrix, and long thin grids *)
let test_spgen_stencils () =
  let module G = Tt_sparse.Spgen in
  for k = -3 to 30 do
    spgen_mismatch (Printf.sprintf "grid2d %d" k) (G.grid2d k) (Ref_spgen.grid2d k);
    spgen_mismatch (Printf.sprintf "grid9 %d" k) (G.grid2d_9pt k) (Ref_spgen.grid2d_9pt k)
  done;
  for k = 0 to 12 do
    spgen_mismatch (Printf.sprintf "grid3d %d" k) (G.grid3d k) (Ref_spgen.grid3d k)
  done;
  for n = 0 to 300 do
    spgen_mismatch (Printf.sprintf "tridiagonal %d" n) (G.tridiagonal n) (Ref_spgen.tridiagonal n)
  done;
  List.iter
    (fun (kx, ky) ->
      spgen_mismatch (Printf.sprintf "rect %dx%d" kx ky) (G.grid2d_rect kx ky)
        (Ref_spgen.grid2d_rect kx ky))
    [ (0, 0); (0, 7); (7, 0); (1, 1); (1, 40); (40, 1); (2, 3); (5, 40); (40, 5); (-2, -3) ]

let prop_spgen_rect =
  H.qcheck ~count:200 "grid2d_rect equals the Triplet build, bit for bit"
    QCheck.(pair (int_bound 40) (int_bound 40))
    (fun (kx, ky) -> same_csr (Tt_sparse.Spgen.grid2d_rect kx ky) (Ref_spgen.grid2d_rect kx ky))

(* --- huge tier: the per-node-array code the flat arrays replaced -------- *)

(* Verbatim copies of [Rng], [Postorder_opt.run], [Minmem_approx] and
   [Flat_tree]'s chunked digest as they were before their state moved
   into flat, reused arrays: boxed SplitMix state, one sorted child
   array per node and a list stack, per-node profile arrays and
   [Segments] ropes, and two fresh strings per digested slice. *)

module Ref_rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = { state = mix (Int64.of_int seed) }

  let int64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix t.state

  let split t = { state = int64 t }

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
    (* 62 uniform nonnegative bits ([Int64.to_int] keeps the low 63 bits,
       masking with [max_int] clears the sign), then a rejection loop to
       remove the modulo bias exactly. *)
    let rec draw () =
      let r = Int64.to_int (int64 t) land max_int in
      let v = r mod bound in
      if r - v > max_int - bound + 1 then draw () else v
    in
    draw ()

  let int_incl t lo hi =
    if hi < lo then invalid_arg "Rng.int_incl: empty range";
    lo + int t (hi - lo + 1)

  let float t bound =
    let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
    bound *. (r /. 9007199254740992.0 (* 2^53 *))

  let bool t = Int64.logand (int64 t) 1L = 1L

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done

  let pick t a =
    if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
    a.(int t (Array.length a))
end

module Ref_postorder = struct
  module Tree = T

  (* Children of [i] sorted by increasing P(c) - f(c): the child processed
     first suffers the largest pending-sibling sum, so it must be the one
     whose peak exceeds its own file the least. (This is the reversal of
     Liu's decreasing rule for bottom-up in-trees.) *)
  let sorted_children t peaks i =
    let cs = Tree.children t i in
    Array.sort
      (fun a b -> Int.compare (peaks.(a) - t.Tree.f.(a)) (peaks.(b) - t.Tree.f.(b)))
      cs;
    cs

  (* Bottom-up computation of the optimal subtree peaks: the children must
     be sorted with the peaks computed so far, so the array is filled in
     place (children strictly before parents). The sorted children arrays
     are kept so that traversal emission reuses them instead of sorting
     every child list a second time. *)
  let subtree_peaks_sorted t =
    let p = Tree.size t in
    let peaks = Array.make p 0 in
    let sorted = Array.make p [||] in
    Array.iter
      (fun i ->
        let cs = sorted_children t peaks i in
        sorted.(i) <- cs;
        let pending = ref (Array.fold_left (fun acc c -> acc + t.Tree.f.(c)) 0 cs) in
        let best = ref (t.Tree.f.(i) + t.Tree.n.(i) + !pending) in
        Array.iter
          (fun c ->
            pending := !pending - t.Tree.f.(c);
            let v = peaks.(c) + !pending in
            if v > !best then best := v)
          cs;
        peaks.(i) <- !best)
      (Tree.bottom_up_order t);
    (peaks, sorted)


  let run t =
    let p = Tree.size t in
    let peaks, sorted = subtree_peaks_sorted t in
    (* emit the traversal: explicit stack to survive deep chains *)
    let order = Array.make p (-1) in
    let k = ref 0 in
    let stack = ref [ t.Tree.root ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | i :: rest ->
          stack := rest;
          order.(!k) <- i;
          incr k;
          let cs = sorted.(i) in
          (* children must be popped in sorted order: push in reverse *)
          for j = Array.length cs - 1 downto 0 do
            stack := cs.(j) :: !stack
          done
    done;
    (peaks.(t.Tree.root), order)
end

module Ref_approx = struct
  module Tree = T
  module Segments = Tt_core.Segments
  module Liu_exact = Tt_core.Liu_exact
  module Traversal = Tt_core.Traversal
  module Postorder_opt = Ref_postorder

  type bounds = Tt_core.Minmem_approx.bounds = {
    lower : int;
    upper : int;
    order : int array;
    seg_cap : int;
    rounds : int;
    exact : bool;
  }

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
end

module Ref_flat = struct
  module Tree = T

  let chunk_bytes = 65536

  let digest_chunked feed =
    let buf = Buffer.create chunk_bytes in
    let acc = ref (Digest.string "tt-flat/1") in
    let flush () =
      if Buffer.length buf > 0 then begin
        acc := Digest.string (!acc ^ Buffer.contents buf);
        Buffer.clear buf
      end
    in
    let add x =
      Buffer.add_int64_le buf (Int64.of_int x);
      if Buffer.length buf >= chunk_bytes then flush ()
    in
    feed add;
    flush ();
    Digest.to_hex !acc

  let digest_ints a =
    digest_chunked (fun add ->
        add (Array.length a);
        Array.iter add a)

  let digest t =
    digest_chunked (fun add ->
        add (Tree.size t);
        add t.Tree.root;
        Array.iter add t.Tree.parent;
        Array.iter add t.Tree.f;
        Array.iter add t.Tree.n)
end

module Ma = Tt_core.Minmem_approx
module Huge = Tt_workloads.Huge

let huge_families =
  [ ("caterpillar", Huge.caterpillar); ("binary", Huge.binary); ("random", Huge.random_attach) ]

let same_bounds label (e : Ma.bounds) (g : Ma.bounds) =
  Alcotest.(check int) (label ^ " lower") e.Ma.lower g.Ma.lower;
  Alcotest.(check int) (label ^ " upper") e.Ma.upper g.Ma.upper;
  Alcotest.(check int) (label ^ " rounds") e.Ma.rounds g.Ma.rounds;
  Alcotest.(check int) (label ^ " seg_cap") e.Ma.seg_cap g.Ma.seg_cap;
  Alcotest.(check bool) (label ^ " exact") e.Ma.exact g.Ma.exact;
  Alcotest.(check bool) (label ^ " order") true (e.Ma.order = g.Ma.order)

(* The three [Huge] families over several sizes and seeds: the bounds
   and the full orders at the default tolerance, and with [tol = 0] so
   that refinement rounds run; the best postorder; the input digest. *)
let test_huge_families () =
  List.iter
    (fun (name, build) ->
      List.iter
        (fun (p, seed) ->
          let t = build ?domains:None ~p ~seed () in
          let label = Printf.sprintf "%s p=%d seed=%d" name p seed in
          same_bounds label (Ref_approx.run t) (Ma.run t);
          same_bounds (label ^ " tol=0") (Ref_approx.run ~tol:0. t) (Ma.run ~tol:0. t);
          let em, eo = Ref_postorder.run t and gm, go = Tt_core.Postorder_opt.run t in
          Alcotest.(check int) (label ^ " postorder mem") em gm;
          Alcotest.(check bool) (label ^ " postorder order") true (eo = go);
          Alcotest.(check string) (label ^ " digest") (Ref_flat.digest t) (Tt_core.Flat_tree.digest t);
          Alcotest.(check string) (label ^ " order digest") (Ref_flat.digest_ints eo)
            (Tt_core.Flat_tree.digest_ints go))
        [ (50_000, 1); (50_000, 2); (100_000, 3); (200_000, 4) ])
    huge_families

(* Shapes the families miss: stars (one merge over every leaf), deep
   chains with a leaf hanging off every few links (long stacks of live
   profiles) and random shapes, on the approximate path at caps 2-6
   with [tol = 0], so every round and truncation runs. *)
let arb_approx_case =
  let gen =
    QCheck.Gen.map3
      (fun seed shape cap ->
        let rng = Tt_util.Rng.create seed in
        let size = Tt_util.Rng.int_incl rng 1 80 in
        let parent =
          Array.init size (fun i ->
              if i = 0 then -1
              else
                match shape with
                | 0 -> 0
                | 1 -> if i mod 4 = 3 then i - 1 - Tt_util.Rng.int rng 2 else i - 1
                | _ -> Tt_util.Rng.int rng i)
        in
        let f = Array.init size (fun _ -> Tt_util.Rng.int_incl rng 1 30) in
        let n = Array.init size (fun _ -> Tt_util.Rng.int_incl rng 0 9) in
        (T.make ~parent ~f ~n, cap))
      (QCheck.Gen.int_bound 1_000_000) (QCheck.Gen.int_bound 2) (QCheck.Gen.int_range 2 6)
  in
  QCheck.make ~print:(fun (t, cap) -> Printf.sprintf "cap %d: %s" cap (T.to_string t)) gen

let prop_approx_shapes =
  H.qcheck ~count:400 "Minmem_approx equals the per-node-array reference"
    arb_approx_case (fun (t, cap) ->
      Ref_approx.run ~exact_threshold:0 ~tol:0. ~seg_cap:cap t
      = Ma.run ~exact_threshold:0 ~tol:0. ~seg_cap:cap t
      && Ref_postorder.run t = Tt_core.Postorder_opt.run t)

(* Every draw of the unboxed generator equals the boxed one's, bound
   after bound; bounds just above [max_int / 2] reject about half of
   the raw words, so the rejection loop runs. *)
let test_rng_streams () =
  let module R = Tt_util.Rng in
  let bounds = [ 1; 2; 3; 7; 1000; (1 lsl 40) + 3; (max_int / 2) + 2; max_int - 1; max_int ] in
  List.iter
    (fun seed ->
      let e = Ref_rng.create seed and g = R.create seed in
      let label what = Printf.sprintf "seed %d %s" seed what in
      for _ = 1 to 200 do
        Alcotest.(check int64) (label "int64") (Ref_rng.int64 e) (R.int64 g)
      done;
      List.iter
        (fun b ->
          for _ = 1 to 200 do
            Alcotest.(check int) (label (Printf.sprintf "int %d" b)) (Ref_rng.int e b) (R.int g b)
          done)
        bounds;
      List.iter
        (fun (lo, hi) ->
          for _ = 1 to 100 do
            Alcotest.(check int) (label "int_incl") (Ref_rng.int_incl e lo hi) (R.int_incl g lo hi)
          done)
        [ (0, 0); (-5, 5); (1, 64); (0, max_int - 1); (min_int / 4, max_int / 4) ];
      List.iter
        (fun b ->
          for _ = 1 to 100 do
            Alcotest.(check (float 0.)) (label "float") (Ref_rng.float e b) (R.float g b)
          done)
        [ 1.; 1e9; 0.5 ];
      for _ = 1 to 100 do
        Alcotest.(check bool) (label "bool") (Ref_rng.bool e) (R.bool g)
      done;
      let es = Ref_rng.split e and gs = R.split g in
      for _ = 1 to 50 do
        Alcotest.(check int64) (label "split child") (Ref_rng.int64 es) (R.int64 gs);
        Alcotest.(check int64) (label "split parent") (Ref_rng.int64 e) (R.int64 g)
      done;
      List.iter
        (fun len ->
          let a = Array.init len Fun.id and b = Array.init len Fun.id in
          Ref_rng.shuffle e a;
          R.shuffle g b;
          Alcotest.(check (array int)) (label (Printf.sprintf "shuffle %d" len)) a b;
          if len > 0 then Alcotest.(check int) (label "pick") (Ref_rng.pick e a) (R.pick g b))
        [ 0; 1; 2; 50; 1000 ])
    [ 0; 1; 42; -7; max_int; min_int ];
  (* the rejection loop really ran: 1000 draws at a bound just above
     max_int / 2 used more than 1000 raw words *)
  let e = Ref_rng.create 5 and raw = Ref_rng.create 5 in
  for _ = 1 to 1000 do
    ignore (Ref_rng.int e ((max_int / 2) + 2))
  done;
  let words = ref 0 in
  while raw.Ref_rng.state <> e.Ref_rng.state do
    ignore (Ref_rng.int64 raw);
    incr words
  done;
  Alcotest.(check bool) (Printf.sprintf "%d raw words for 1000 draws" !words) true (!words > 1000)

(* Words allocated per node, minor and major heaps together. *)
let words_per_node p f =
  let r, bytes = allocated f in
  (r, bytes /. float_of_int (Sys.word_size / 8) /. float_of_int p)

(* The solve allocates its order, the best postorder's three arrays, the
   [next] links and a spare order once, and profiles on a stack that
   only grows: about 6.1 words per node (the per-node arrays and ropes
   took 114.7 on a 100k-node binary tree). At p = 200k, a minor heap's
   worth of miscount (256k words) stays under the bound's margin. *)
let test_approx_alloc_bound () =
  List.iter
    (fun (name, build) ->
      let p = 200_000 in
      let t = build ?domains:None ~p ~seed:7 () in
      let b, w = words_per_node p (fun () -> Ma.run ~tol:0. t) in
      Alcotest.(check bool) (name ^ " refined") true (b.Ma.rounds > 0);
      if w >= 8. then Alcotest.failf "%s: Minmem_approx.run allocated %.1f words per node (bound 8)" name w)
    [ ("binary", Huge.binary); ("random", Huge.random_attach) ]

(* The generator writes the tree's arrays and draws without allocating:
   6.13 words per node (boxed draws and a closure per draw took 28.1 on
   the caterpillar). *)
let test_generate_alloc_bound () =
  List.iter
    (fun (name, build) ->
      let p = 200_000 in
      let _, w = words_per_node p (fun () -> build ?domains:None ~p ~seed:3 ()) in
      if w >= 8. then Alcotest.failf "%s: Huge generation allocated %.1f words per node (bound 8)" name w)
    huge_families

(* The digest hashes each slice out of one reused buffer: 67 KB on a
   1M-node tree (two fresh 64 KB strings per slice took 48 MB). *)
let test_digest_alloc_bound () =
  let t = Huge.binary ~p:1_000_000 ~seed:1 () in
  let d, bytes = allocated (fun () -> Tt_core.Flat_tree.digest t) in
  Alcotest.(check string) "same digest" (Ref_flat.digest t) d;
  if bytes >= 1e6 then Alcotest.failf "Flat_tree.digest allocated %.0f bytes (bound 1 MB)" bytes

let () =
  H.run "perf_parity"
    [ ( "minio",
        [ H.case "family instances x policies x memory" test_minio_families;
          prop_minio_random;
          prop_minio_schedules_valid;
          prop_minio_extreme_sizes;
          H.case "Best Fit/Fill allocation is O(p)" test_minio_alloc_bound;
          H.case "corpus seeds 1/2/3 x Fig. 7 budgets = the parent's run"
            test_minio_shortcut_corpus;
          prop_minio_shortcut_random;
          prop_minio_invalid_orders;
          H.case "a 20k-node overflowing run on a three-level index" test_minio_deep_index;
          H.case "a fitting 100k-node traversal under 2 words per node"
            test_minio_fits_alloc_bound
        ] );
      ("segments", [ prop_segments_merge_reference ]);
      ( "liu",
        [ H.case "family instances" test_liu_families; prop_liu_random ] );
      ( "postorder",
        [ H.case "family instances" test_postorder_families; prop_postorder_random ] );
      ("minmem", [ H.case "wide cuts" test_minmem_wide ]);
      ( "sched",
        [ H.case "corpus trees x procs x budgets" test_sched_corpus;
          H.case "plain and half-heavy stars" test_sched_stars;
          prop_sched_random;
          prop_sched_negative_n;
          H.case "weights at the int bound" test_sched_extreme_weights;
          H.case "greedy on a 32k-leaf half-heavy star under 2 s" test_greedy_wide_star;
          H.case "procs = 10^7 allocates under 1 MB" test_sched_procs_clamp
        ] );
      ( "encoding",
        [ H.case "edge weights" test_tree_encoding_edges; prop_tree_encoding_reference ] );
      ( "pipeline",
        [ H.case "corpus matrices, seeds 1/2/3/7" test_pipeline_corpus;
          H.case "every Spgen family" test_pipeline_spgen;
          prop_pipeline_graphs;
          prop_of_adjacency_raw;
          prop_min_degree_closure;
          prop_csr_builders;
          prop_symmetrize_values;
          H.case "gen random size=3000 allocates under 16 MB" test_min_degree_alloc_bound
        ] );
      ( "spgen",
        [ H.case "stencils equal the Triplet builds, bit for bit" test_spgen_stencils;
          prop_spgen_rect
        ] );
      ( "huge",
        [ H.case "Huge families, p = 50k-200k" test_huge_families;
          prop_approx_shapes;
          H.case "Rng streams" test_rng_streams;
          H.case "Minmem_approx.run under 8 words per node" test_approx_alloc_bound;
          H.case "Huge generation under 8 words per node" test_generate_alloc_bound;
          H.case "Flat_tree.digest of 1M nodes under 1 MB" test_digest_alloc_bound
        ] );
      ( "structures",
        [ prop_ordered_set_model;
          H.case "pred clamp at word-size bounds" test_ordered_set_pred_clamp;
          prop_ordered_set_deep;
          prop_filter_in_place_stable;
          prop_min_tree_model;
          prop_int_sort_order_by
        ] )
    ]

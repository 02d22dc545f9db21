type policy = Lsnf | First_fit | Best_fit | First_fill | Best_fill | Best_k of int

let policy_name = function
  | Lsnf -> "LSNF"
  | First_fit -> "First Fit"
  | Best_fit -> "Best Fit"
  | First_fill -> "First Fill"
  | Best_fill -> "Best Fill"
  | Best_k k -> Printf.sprintf "Best %d Comb." k

let all_policies =
  List.map
    (fun p -> (policy_name p, p))
    [ Lsnf; First_fit; Best_fit; First_fill; Best_fill; Best_k 5 ]

module Os = Tt_util.Ordered_set

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

module Min_tree = Tt_util.Min_tree

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

(* --- simulation ---------------------------------------------------------
   Without evictions, step [k] has a deficit exactly when Algorithm 1's
   usage at [k] exceeds [memory], so a deficit-free run is an in-core
   one. [run] therefore makes one Algorithm 1 pass first: a traversal
   that fits needs no candidate index and evicts nothing. Only one that
   overflows is simulated, from the start, with the index. *)

let simulate tree ~memory ~order policy =
  let p = Tree.size tree in
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

let run tree ~memory ~order policy =
  let invalid () = invalid_arg "Minio.run: invalid traversal" in
  match Traversal.check tree ~memory order with
  | Traversal.Feasible _ -> Some (Io_schedule.in_core order)
  | Traversal.Invalid_order _ -> invalid ()
  | Traversal.Infeasible_at _ ->
      (* the check stopped at the first overflow: the rest of the order
         is still unchecked *)
      if not (Traversal.is_valid_order tree order) then invalid ();
      simulate tree ~memory ~order policy

let io_volume tree ~memory ~order policy =
  Option.map (Io_schedule.io_volume tree) (run tree ~memory ~order policy)

let divisible_lower_bound tree ~memory ~order =
  let p = Tree.size tree in
  if not (Traversal.is_valid_order tree order) then
    invalid_arg "Minio.divisible_lower_bound: invalid traversal";
  let pos = Array.make p 0 in
  Array.iteri (fun step i -> pos.(i) <- step) order;
  (* resident fraction (in size units) of each produced, unconsumed file;
     [os] tracks the positions with a positive fraction so each eviction
     event walks only the files it touches instead of re-sorting them all *)
  let resident = Array.make p 0.0 in
  resident.(tree.Tree.root) <- float_of_int tree.Tree.f.(tree.Tree.root);
  let resident_total = ref resident.(tree.Tree.root) in
  let os = Os.create p in
  if resident.(tree.Tree.root) > 0.0 then Os.add os pos.(tree.Tree.root);
  let io = ref 0.0 in
  let feasible = ref true in
  let step = ref 0 in
  while !feasible && !step < p do
    let k = !step in
    let j = order.(k) in
    (* j's own input is consumed below, never a candidate *)
    Os.remove os k;
    let fj = float_of_int tree.Tree.f.(j) in
    (* bring j's input fully back, then make room for the working set *)
    let bring = fj -. resident.(j) in
    resident.(j) <- fj;
    resident_total := !resident_total +. bring;
    let working =
      float_of_int (tree.Tree.n.(j) + Tree.sum_children_f tree j) +. fj
    in
    let excess = !resident_total -. fj +. working -. float_of_int memory in
    if excess > 1e-9 then begin
      (* evict [excess] units from the files used latest *)
      let remaining = ref excess in
      let exhausted = ref false in
      while !remaining > 1e-9 && not !exhausted do
        match Os.max_elt os with
        | None -> exhausted := true
        | Some q ->
            let i = order.(q) in
            let take = min resident.(i) !remaining in
            resident.(i) <- resident.(i) -. take;
            resident_total := !resident_total -. take;
            io := !io +. take;
            remaining := !remaining -. take;
            if resident.(i) <= 0.0 then Os.remove os q
      done;
      if !remaining > 1e-9 then feasible := false
    end;
    if !feasible then begin
      (* consume j's input, produce the children files *)
      resident_total := !resident_total -. resident.(j);
      resident.(j) <- 0.0;
      for k = tree.Tree.child_off.(j) to tree.Tree.child_off.(j + 1) - 1 do
        let ch = tree.Tree.child.(k) in
        resident.(ch) <- float_of_int tree.Tree.f.(ch);
        resident_total := !resident_total +. resident.(ch);
        if resident.(ch) > 0.0 then Os.add os pos.(ch)
      done;
      incr step
    end
  done;
  if !feasible then Some !io else None

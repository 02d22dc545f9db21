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
   - [maxf] / [minf]: segment trees over positions answering "rightmost
     position with f >= d" (First Fit) and "... with f < d" (First Fill)
     in O(log p);
   - [byf]: the positions partitioned by file size — an ordered set of
     present sizes plus one position set per size — turning Best Fit's
     closest-size and Best Fill's largest-below-deficit searches into
     floor/ceiling lookups.

   Only the parts the active policy needs are allocated. Every query
   returns the same file the previous linear scans chose, tie-breaks
   included: those scans ran over descending positions, so "first hit"
   always meant "largest position". *)

module Max_tree = struct
  (* max of f over positions; absent = 0 *)
  type t = { a : int array; m : int }

  let create p =
    let m = ref 1 in
    while !m < p do m := !m * 2 done;
    { a = Array.make (2 * !m) 0; m = !m }

  let set t q v =
    let i = ref (t.m + q) in
    t.a.(!i) <- v;
    i := !i lsr 1;
    while !i >= 1 do
      t.a.(!i) <- max t.a.(2 * !i) t.a.((2 * !i) + 1);
      i := !i lsr 1
    done

  (* rightmost position whose file is at least [thr] *)
  let rightmost_ge t thr =
    if t.a.(1) < thr then None
    else begin
      let i = ref 1 in
      while !i < t.m do
        i := if t.a.((2 * !i) + 1) >= thr then (2 * !i) + 1 else 2 * !i
      done;
      Some (!i - t.m)
    end
end

module Min_tree = struct
  (* min of f over positions; absent = max_int *)
  type t = { a : int array; m : int }

  let create p =
    let m = ref 1 in
    while !m < p do m := !m * 2 done;
    { a = Array.make (2 * !m) max_int; m = !m }

  let set t q v =
    let i = ref (t.m + q) in
    t.a.(!i) <- v;
    i := !i lsr 1;
    while !i >= 1 do
      t.a.(!i) <- min t.a.(2 * !i) t.a.((2 * !i) + 1);
      i := !i lsr 1
    done

  (* rightmost position whose file is strictly below [thr] *)
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

type byf = { fvals : Os.t; classes : (int, Os.t) Hashtbl.t }

type cands = {
  order : int array; (* position -> node *)
  pos : int array; (* node -> position *)
  f : int array;
  os : Os.t;
  mutable total : int;
  maxf : Max_tree.t option;
  minf : Min_tree.t option;
  byf : byf option;
}

let make_cands tree ~order ~pos policy =
  let p = Array.length order in
  let maxf = match policy with First_fit -> Some (Max_tree.create p) | _ -> None in
  let minf = match policy with First_fill -> Some (Min_tree.create p) | _ -> None in
  let byf =
    match policy with
    | Best_fit | Best_fill ->
        let fmax = Array.fold_left max 0 tree.Tree.f in
        Some { fvals = Os.create (fmax + 1); classes = Hashtbl.create 64 }
    | _ -> None
  in
  { order; pos; f = tree.Tree.f; os = Os.create p; total = 0; maxf; minf; byf }

let class_of c byf fv =
  match Hashtbl.find_opt byf.classes fv with
  | Some s -> s
  | None ->
      let s = Os.create (Os.capacity c.os) in
      Hashtbl.add byf.classes fv s;
      s

(* register node [i]'s file when it becomes resident (no-op if empty) *)
let cand_add c i =
  let fv = c.f.(i) in
  if fv > 0 then begin
    let q = c.pos.(i) in
    Os.add c.os q;
    c.total <- c.total + fv;
    (match c.maxf with Some t -> Max_tree.set t q fv | None -> ());
    (match c.minf with Some t -> Min_tree.set t q fv | None -> ());
    match c.byf with
    | Some b ->
        let s = class_of c b fv in
        if Os.is_empty s then Os.add b.fvals fv;
        Os.add s q
    | None -> ()
  end

(* retire the candidate at position [q]; it must be a member *)
let cand_remove_pos c q =
  let fv = c.f.(c.order.(q)) in
  Os.remove c.os q;
  c.total <- c.total - fv;
  (match c.maxf with Some t -> Max_tree.set t q 0 | None -> ());
  (match c.minf with Some t -> Min_tree.set t q max_int | None -> ());
  match c.byf with
  | Some b ->
      let s = class_of c b fv in
      Os.remove s q;
      if Os.is_empty s then Os.remove b.fvals fv
  | None -> ()

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
      match Max_tree.rightmost_ge maxf !rem with
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
        let fv =
          match (Os.pred b.fvals (!rem + 1), Os.succ b.fvals (!rem - 1)) with
          | Some lo, None -> lo
          | None, Some hi -> hi
          | Some lo, Some hi ->
              let dl = !rem - lo and dh = hi - !rem in
              if dl < dh then lo
              else if dh < dl then hi
              else begin
                match (Os.max_elt (class_of c b lo), Os.max_elt (class_of c b hi)) with
                | Some ql, Some qh -> if ql > qh then lo else hi
                | _ -> assert false
              end
          | None, None -> assert false
        in
        match Os.max_elt (class_of c b fv) with
        | Some q -> take q
        | None -> assert false
      done
      (* candidates exhausted with a residual deficit leave nothing for
         the LSNF fallback to do *)
  | Best_fill ->
      (* repeatedly the largest file strictly smaller than the deficit *)
      let b = match c.byf with Some b -> b | None -> assert false in
      let progress = ref true in
      while !rem > 0 && !progress do
        match Os.pred b.fvals !rem with
        | None -> progress := false
        | Some fv -> (
            match Os.max_elt (class_of c b fv) with
            | Some q -> take q
            | None -> assert false)
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

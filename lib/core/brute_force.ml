(* States of the search are bitmasks of executed nodes; the ready set and
   its total file size are recomputed per state (p is tiny). *)

let ready_info t mask =
  let p = Tree.size t in
  let ready = ref [] in
  let sum = ref 0 in
  for i = 0 to p - 1 do
    let executed = mask land (1 lsl i) <> 0 in
    let produced =
      if i = t.Tree.root then true else mask land (1 lsl t.Tree.parent.(i)) <> 0
    in
    if produced && not executed then begin
      ready := i :: !ready;
      sum := !sum + t.Tree.f.(i)
    end
  done;
  (!ready, !sum)

let min_memory ?(cancel = Tt_util.Cancel.never) t =
  let p = Tree.size t in
  if p > 22 then invalid_arg "Brute_force.min_memory: tree too large";
  let full = (1 lsl p) - 1 in
  let best = Hashtbl.create 1024 in
  let module Pq = Set.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let queue = ref (Pq.singleton (0, 0)) in
  Hashtbl.replace best 0 0;
  let answer = ref max_int in
  while !answer = max_int && not (Pq.is_empty !queue) do
    Tt_util.Cancel.check cancel;
    let ((cost, mask) as elt) = Pq.min_elt !queue in
    queue := Pq.remove elt !queue;
    if cost <= Hashtbl.find best mask then
      if mask = full then answer := cost
      else begin
        let ready, sum = ready_info t mask in
        List.iter
          (fun i ->
            let usage = sum + t.Tree.n.(i) + Tree.sum_children_f t i in
            let cost' = max cost usage in
            let mask' = mask lor (1 lsl i) in
            let known = try Hashtbl.find best mask' with Not_found -> max_int in
            if cost' < known then begin
              Hashtbl.replace best mask' cost';
              queue := Pq.add (cost', mask') !queue
            end)
          ready
      end
  done;
  !answer

let min_memory_postorder t =
  Postorder_opt.all_postorders t
  |> List.map (Traversal.peak t)
  |> List.fold_left min max_int

let feasible_with_evictions t ~memory order ~evicted =
  let p = Tree.size t in
  let is_evicted i = i <> t.Tree.root && evicted.(i) in
  (* resident = total size of in-memory ready files *)
  let resident = ref (t.Tree.f.(t.Tree.root)) in
  let ok = ref true in
  (match Traversal.is_valid_order t order with
  | false -> ok := false
  | true ->
      for k = 0 to p - 1 do
        if !ok then begin
          let i = order.(k) in
          let out = Tree.sum_children_f t i in
          let extra_in = if is_evicted i then t.Tree.f.(i) else 0 in
          let usage = !resident + extra_in + t.Tree.n.(i) + out in
          if usage > memory then ok := false
          else begin
            if not (is_evicted i) then resident := !resident - t.Tree.f.(i);
            let kept =
              Array.fold_left
                (fun acc c -> if is_evicted c then acc else acc + t.Tree.f.(c))
                0 (Tree.children t i)
            in
            resident := !resident + kept
          end
        end
      done);
  !ok

let min_io_given_order ?(cancel = Tt_util.Cancel.never) t ~memory order =
  let p = Tree.size t in
  if p > 20 then invalid_arg "Brute_force.min_io_given_order: tree too large";
  if not (Traversal.is_valid_order t order) then
    invalid_arg "Brute_force.min_io_given_order: invalid order";
  (* enumerate eviction sets over non-root nodes *)
  let others = List.filter (fun i -> i <> t.Tree.root) (List.init p (fun i -> i)) in
  let others = Array.of_list others in
  let m = Array.length others in
  let best = ref None in
  let evicted = Array.make p false in
  for mask = 0 to (1 lsl m) - 1 do
    Tt_util.Cancel.check cancel;
    let io = ref 0 in
    for b = 0 to m - 1 do
      let on = mask land (1 lsl b) <> 0 in
      evicted.(others.(b)) <- on;
      if on then io := !io + t.Tree.f.(others.(b))
    done;
    let promising = match !best with None -> true | Some b -> !io < b in
    if promising && feasible_with_evictions t ~memory order ~evicted then
      best := Some !io
  done;
  !best

let min_io ?cancel t ~memory =
  let p = Tree.size t in
  if p > 9 then invalid_arg "Brute_force.min_io: tree too large";
  List.fold_left
    (fun acc order ->
      match (acc, min_io_given_order ?cancel t ~memory order) with
      | None, r | r, None -> r
      | Some a, Some b -> Some (min a b))
    None (Traversal.all_orders t)

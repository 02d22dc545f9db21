type check_result =
  | Feasible of int
  | Infeasible_at of { step : int; needed : int; available : int }
  | Invalid_order of { step : int; node : int; reason : string }

(* Algorithm 1 over the CSR arrays, the one simulator behind [check],
   [peak] and [profile]. Each node has one state byte: 0 = not yet
   produced, 1 = ready (its input file is live), 2 = executed. Stops at
   the first step that is invalid or needs more than [memory]; when
   [record] is given, the usage of every step is written into it. *)
let simulate t ~memory ~record order =
  let p = Tree.size t in
  if Array.length order <> p then
    Invalid_order { step = -1; node = -1; reason = "wrong length" }
  else begin
    let { Tree.child_off; child; f; n; root; _ } = t in
    let state = Bytes.make p '\000' in
    Bytes.set state root '\001';
    (* ready_f = sum of f over ready nodes *)
    let rec go k ready_f peak =
      if k = p then Feasible peak
      else begin
        let i = order.(k) in
        if i < 0 || i >= p then
          Invalid_order { step = k; node = i; reason = "node out of range" }
        else if Bytes.get state i = '\002' then
          Invalid_order { step = k; node = i; reason = "duplicate node" }
        else if Bytes.get state i = '\000' then
          Invalid_order { step = k; node = i; reason = "parent not yet executed" }
        else begin
          let lo = child_off.(i) and hi = child_off.(i + 1) - 1 in
          let out = ref 0 in
          for c = lo to hi do
            out := !out + f.(child.(c))
          done;
          let usage = ready_f + n.(i) + !out in
          if usage > memory then
            Infeasible_at { step = k; needed = usage; available = memory }
          else begin
            (match record with Some prof -> prof.(k) <- usage | None -> ());
            Bytes.set state i '\002';
            for c = lo to hi do
              Bytes.set state child.(c) '\001'
            done;
            go (k + 1) (ready_f - f.(i) + !out) (if usage > peak then usage else peak)
          end
        end
      end
    in
    go 0 f.(root) min_int
  end

let check t ~memory order = simulate t ~memory ~record:None order

let is_valid_order t order =
  match simulate t ~memory:max_int ~record:None order with
  | Feasible _ -> true
  | _ -> false

let peak t order =
  match simulate t ~memory:max_int ~record:None order with
  | Feasible pk -> pk
  | Infeasible_at _ -> assert false
  | Invalid_order { reason; _ } -> invalid_arg ("Traversal.peak: " ^ reason)

let profile t order =
  let prof = Array.make (Tree.size t) 0 in
  match simulate t ~memory:max_int ~record:(Some prof) order with
  | Feasible _ -> prof
  | Infeasible_at _ -> assert false
  | Invalid_order { reason; _ } -> invalid_arg ("Traversal.profile: " ^ reason)

let top_down_order t =
  let p = Tree.size t in
  let order = Array.make p (-1) in
  let queue = Queue.create () in
  Queue.add t.Tree.root queue;
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order.(!k) <- i;
    incr k;
    Tree.iter_children t i (fun j -> Queue.add j queue)
  done;
  order

let all_orders t =
  let p = Tree.size t in
  if p > 10 then invalid_arg "Traversal.all_orders: tree too large";
  let acc = ref [] in
  let order = Array.make p (-1) in
  let rec go step ready =
    if step = p then acc := Array.copy order :: !acc
    else
      List.iter
        (fun i ->
          order.(step) <- i;
          let ready' =
            List.filter (fun j -> j <> i) ready
            @ Array.to_list (Tree.children t i)
          in
          go (step + 1) ready')
        ready
  in
  go 0 [ t.Tree.root ];
  !acc

let random_order ~rng t =
  let p = Tree.size t in
  let order = Array.make p (-1) in
  let ready = Tt_util.Dynarray_compat.create () in
  Tt_util.Dynarray_compat.add_last ready t.Tree.root;
  for step = 0 to p - 1 do
    let pos = Tt_util.Rng.int rng (Tt_util.Dynarray_compat.length ready) in
    let i = Tt_util.Dynarray_compat.get ready pos in
    (* swap-remove *)
    Tt_util.Dynarray_compat.set ready pos (Tt_util.Dynarray_compat.last ready);
    ignore (Tt_util.Dynarray_compat.pop_last ready);
    order.(step) <- i;
    Tree.iter_children t i (Tt_util.Dynarray_compat.add_last ready)
  done;
  order

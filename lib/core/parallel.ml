type event = { node : int; proc : int; start : int; finish : int }
type schedule = { events : event array; makespan : int; peak_memory : int }

let levels t ~work =
  (* bottom level: work i + max over children levels *)
  let p = Tree.size t in
  let lvl = Array.make p 0 in
  Array.iter
    (fun i ->
      let below = Array.fold_left (fun acc c -> max acc lvl.(c)) 0 (Tree.children t i) in
      lvl.(i) <- work i + below)
    (Tree.bottom_up_order t);
  lvl

let critical_path t ~work = (levels t ~work).(t.Tree.root)

let sequential_makespan t ~work =
  let acc = ref 0 in
  for i = 0 to Tree.size t - 1 do
    acc := !acc + work i
  done;
  !acc

let booking_schedule ?order t ~procs ~memory ~work =
  if procs < 1 then invalid_arg "Parallel.booking_schedule: procs < 1";
  let p = Tree.size t in
  for i = 0 to p - 1 do
    if work i < 1 then invalid_arg "Parallel.booking_schedule: work < 1"
  done;
  let order =
    match order with
    | None -> snd (Minmem.run t)
    | Some o ->
        if not (Traversal.is_valid_order t o) then
          invalid_arg "Parallel.booking_schedule: order is not a traversal";
        o
  in
  let extra i = t.Tree.n.(i) + Tree.sum_children_f t i in
  (* state: tasks start strictly in [order]; [next] is the first unstarted
     position. Booking = the whole working set [extra i] is charged at
     start, so a started task can always finish. *)
  let next = ref 0 in
  let finished = Array.make p false in
  let usage = ref t.Tree.f.(t.Tree.root) in
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
      let par = t.Tree.parent.(i) in
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
            { node = j; proc = proc_of.(j); start = start_of.(j); finish };
          free_procs := proc_of.(j) :: !free_procs;
          usage := !usage - extra j - t.Tree.f.(j) + Tree.sum_children_f t j)
        !completed;
      try_start ()
    end
  done;
  if !deadlock then None
  else begin
    let evs = Tt_util.Dynarray_compat.to_array events in
    Array.sort (fun a b -> compare (a.start, a.node) (b.start, b.node)) evs;
    let makespan = Array.fold_left (fun acc e -> max acc e.finish) 0 evs in
    Some { events = evs; makespan; peak_memory = !peak }
  end

let list_schedule ?priority t ~procs ~memory ~work =
  if procs < 1 then invalid_arg "Parallel.list_schedule: procs < 1";
  let p = Tree.size t in
  for i = 0 to p - 1 do
    if work i < 1 then invalid_arg "Parallel.list_schedule: work < 1"
  done;
  let prio =
    match priority with Some f -> Array.init p f | None -> levels t ~work
  in
  let extra i = t.Tree.n.(i) + Tree.sum_children_f t i in
  (* state *)
  let ready = ref [ t.Tree.root ] in
  let usage = ref t.Tree.f.(t.Tree.root) in
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
            { node = j; proc = proc_of.(j); start = start_of.(j); finish };
          free_procs := proc_of.(j) :: !free_procs;
          (* extras and the consumed input die; children files are born *)
          usage := !usage - extra j - t.Tree.f.(j) + Tree.sum_children_f t j;
          ready := Array.to_list (Tree.children t j) @ !ready)
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
    Array.sort (fun a b -> compare (a.start, a.node) (b.start, b.node)) evs;
    let makespan = Array.fold_left (fun acc e -> max acc e.finish) 0 evs in
    Some { events = evs; makespan; peak_memory = !peak }
  end

type event = { node : int; proc : int; start : int; finish : int }
type schedule = { events : event array; makespan : int; peak_memory : int }

let levels t ~work =
  (* bottom level: work i + max over children levels *)
  let p = Tree.size t in
  let lvl = Array.make p 0 in
  Array.iter
    (fun i ->
      let below = ref 0 in
      for k = t.Tree.child_off.(i) to t.Tree.child_off.(i + 1) - 1 do
        let l = lvl.(t.Tree.child.(k)) in
        if l > !below then below := l
      done;
      lvl.(i) <- work i + !below)
    (Tree.bottom_up_order t);
  lvl

let critical_path t ~work = (levels t ~work).(t.Tree.root)

let sequential_makespan t ~work =
  let acc = ref 0 in
  for i = 0 to Tree.size t - 1 do
    acc := !acc + work i
  done;
  !acc

(* The argument checks both schedulers share. Every memory figure they
   reach, a usage or a usage plus the working set of a task about to
   start, is a sum of distinct [f] and [n] weights. Keeping the total of
   their absolute values below [max_int] makes all of that arithmetic
   exact: no budget test can wrap, and no working set reaches [max_int],
   which greedy's ready set reads as "absent". *)
let check_args name t ~procs ~work =
  if procs < 1 then invalid_arg (name ^ ": procs < 1");
  let p = Tree.size t in
  for i = 0 to p - 1 do
    if work i < 1 then invalid_arg (name ^ ": work < 1")
  done;
  let total = ref 0 in
  let add w =
    (* [abs min_int] is negative *)
    let a = abs w in
    if a < 0 || a > max_int - 1 - !total then
      invalid_arg (name ^ ": weights sum to max_int or more")
    else total := !total + a
  in
  for i = 0 to p - 1 do
    add t.Tree.f.(i);
    add t.Tree.n.(i)
  done

(* What a running task holds on top of the alive files: its execution
   file and its children's output files, booked at start. *)
let working_sets t =
  Array.init (Tree.size t) (fun i -> t.Tree.n.(i) + Tree.sum_children_f t i)

(* Free processors as a stack, [0] on top. Both schedulers pop the top
   at a start and push a finished task's processor, so a processor is
   first handed out only when every lower-numbered one is busy; at most
   [p] tasks run at once, so [min procs p] slots give the schedules of
   [procs] slots. *)
type proc_stack = { stack : int array; mutable free : int }

let proc_stack ~procs p =
  let width = min procs p in
  { stack = Array.init width (fun k -> width - 1 - k); free = width }

let take_proc ps =
  ps.free <- ps.free - 1;
  ps.stack.(ps.free)

let release_proc ps pr =
  ps.stack.(ps.free) <- pr;
  ps.free <- ps.free + 1

(* [memory - usage], the largest working set that still fits, saturated
   where the difference leaves the int range: the budget is any int
   (and [usage] can be negative, since execution files can be), so the
   plain difference could wrap and admit a task the budget refuses.
   Both schedulers test a start with it. *)
let room ~memory usage =
  if usage < 0 && memory > max_int + usage then max_int
  else if usage > 0 && memory < min_int + usage then min_int
  else memory - usage

(* Pop every running task that finishes at the earliest finish time.
   Returns that time and the tasks, the first popped last. *)
let pop_completions heap =
  let i, finish = Tt_util.Int_heap.pop_min heap in
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
  (finish, !completed)

let of_runs ~proc ~start ~finish ~peak_memory =
  let events =
    Array.map
      (fun i -> { node = i; proc = proc.(i); start = start.(i); finish = finish.(i) })
      (Tt_util.Int_sort.order_by (Array.length start) (fun i -> start.(i)))
  in
  let makespan = Array.fold_left (fun acc f -> if f > acc then f else acc) 0 finish in
  { events; makespan; peak_memory }

let booking_schedule ?order t ~procs ~memory ~work =
  check_args "Parallel.booking_schedule" t ~procs ~work;
  let p = Tree.size t in
  let order =
    match order with
    | None -> snd (Minmem.run t)
    | Some o ->
        if not (Traversal.is_valid_order t o) then
          invalid_arg "Parallel.booking_schedule: order is not a traversal";
        o
  in
  let ws = working_sets t in
  (* state: tasks start strictly in [order]; [next] is the first unstarted
     position. Booking = the whole working set [ws i] is charged at
     start, so a started task can always finish. *)
  let next = ref 0 in
  let finished = Array.make p false in
  let usage = ref t.Tree.f.(t.Tree.root) in
  let peak = ref !usage in
  let ps = proc_stack ~procs p in
  let heap = Tt_util.Int_heap.create p in
  let proc_of = Array.make p (-1) in
  let start_of = Array.make p 0 in
  let finish_of = Array.make p 0 in
  let count = ref 0 in
  let time = ref 0 in
  let deadlock = ref false in
  let try_start () =
    let blocked = ref false in
    while (not !blocked) && !next < p do
      let i = order.(!next) in
      let par = t.Tree.parent.(i) in
      if ps.free > 0 && (par < 0 || finished.(par)) && ws.(i) <= room ~memory !usage
      then begin
        usage := !usage + ws.(i);
        if !usage > !peak then peak := !usage;
        proc_of.(i) <- take_proc ps;
        start_of.(i) <- !time;
        Tt_util.Int_heap.insert heap i (!time + work i);
        incr next
      end
      else blocked := true
    done
  in
  try_start ();
  while (not !deadlock) && !count < p do
    if Tt_util.Int_heap.is_empty heap then deadlock := true
    else begin
      let finish, completed = pop_completions heap in
      time := finish;
      List.iter
        (fun j ->
          finished.(j) <- true;
          finish_of.(j) <- finish;
          incr count;
          release_proc ps proc_of.(j);
          (* the execution file and the consumed input die; the
             children's files, booked at start, stay alive *)
          usage := !usage - t.Tree.n.(j) - t.Tree.f.(j))
        completed;
      try_start ()
    end
  done;
  if !deadlock then None
  else Some (of_runs ~proc:proc_of ~start:start_of ~finish:finish_of ~peak_memory:!peak)

let list_schedule ?priority ?order t ~procs ~memory ~work =
  check_args "Parallel.list_schedule" t ~procs ~work;
  let p = Tree.size t in
  let prio =
    match priority with Some f -> Array.init p f | None -> levels t ~work
  in
  (* the start order, ranked once: priority descending ([lnot] reverses
     the order of ints without overflow), then id ascending *)
  let by_rank = Tt_util.Int_sort.order_by p (fun i -> lnot prio.(i)) in
  let rank = Array.make p 0 in
  Array.iteri (fun r i -> rank.(i) <- r) by_rank;
  let ws = working_sets t in
  (* the ready tasks, indexed by rank and keyed by working set *)
  let ready = Tt_util.Min_tree.create p in
  let root = t.Tree.root in
  Tt_util.Min_tree.set ready rank.(root) ws.(root);
  let usage = ref t.Tree.f.(root) in
  let peak = ref !usage in
  let ps = proc_stack ~procs p in
  (* running tasks as a finish-time min-heap over task ids *)
  let heap = Tt_util.Int_heap.create p in
  let proc_of = Array.make p (-1) in
  let start_of = Array.make p 0 in
  let finish_of = Array.make p 0 in
  let count = ref 0 in
  let time = ref 0 in
  let deadlock = ref false in
  let try_start () =
    (* start ready tasks in rank order while a processor and the memory
       allow. A task that does not fit is skipped (a greedy hole) and
       the scan never comes back to it at this instant: the next start
       is the first ready task after the last one started whose working
       set fits the memory left. *)
    let from = ref 0 in
    while ps.free > 0 && !from < p do
      match Tt_util.Min_tree.leftmost_le ready ~from:!from (room ~memory !usage) with
      | None -> from := p
      | Some r ->
          let i = by_rank.(r) in
          Tt_util.Min_tree.remove ready r;
          usage := !usage + ws.(i);
          if !usage > !peak then peak := !usage;
          proc_of.(i) <- take_proc ps;
          start_of.(i) <- !time;
          Tt_util.Int_heap.insert heap i (!time + work i);
          from := r + 1
    done
  in
  try_start ();
  while (not !deadlock) && !count < p do
    if Tt_util.Int_heap.is_empty heap then deadlock := true
    else begin
      let finish, completed = pop_completions heap in
      time := finish;
      List.iter
        (fun j ->
          finish_of.(j) <- finish;
          incr count;
          release_proc ps proc_of.(j);
          (* the execution file and the consumed input die; the
             children's files are born and the children become ready *)
          usage := !usage - t.Tree.n.(j) - t.Tree.f.(j);
          for k = t.Tree.child_off.(j) to t.Tree.child_off.(j + 1) - 1 do
            let c = t.Tree.child.(k) in
            Tt_util.Min_tree.set ready rank.(c) ws.(c)
          done)
        completed;
      try_start ()
    end
  done;
  if !deadlock then
    (* A greedy prefix stranded too many open files — the parallel
       MinMemory phenomenon. Replay with the booking discipline along a
       memory-optimal activation order: succeeds for every budget at
       least the sequential optimum. *)
    booking_schedule ?order t ~procs ~memory ~work
  else Some (of_runs ~proc:proc_of ~start:start_of ~finish:finish_of ~peak_memory:!peak)

module T = Tt_core.Tree
module P = Tt_core.Parallel

type violation =
  | Malformed of string
  | Precedence of { node : int; parent : int }
  | Overlap of { proc : int; first : int; second : int }
  | Booking of { position : int; node : int }
  | Memory of { time : int; usage : int; budget : int }
  | Accounting of string

let violation_to_string = function
  | Malformed msg -> Printf.sprintf "malformed schedule: %s" msg
  | Precedence { node; parent } ->
      Printf.sprintf "precedence: node %d starts before parent %d finishes" node
        parent
  | Overlap { proc; first; second } ->
      Printf.sprintf "overlap: nodes %d and %d overlap on processor %d" first
        second proc
  | Booking { position; node } ->
      Printf.sprintf
        "booking: node %d (activation position %d) starts before its \
         predecessor"
        node position
  | Memory { time; usage; budget } ->
      Printf.sprintf "memory: %d words in use at time %d, budget %d" usage time
        budget
  | Accounting msg -> Printf.sprintf "accounting: %s" msg

exception Bad of violation

(* Replay the schedule as usage deltas grouped by instant, merging the
   items (events or nodes) in start order, [starts], with the same items
   in finish order: the root's input file is alive from time 0, a start
   books the whole extra working set [n i + sum_children_f i], a finish
   releases the extras and the consumed input and leaves the children
   files alive (net delta [-n i - f i]). Every delta of an instant is
   applied before the instant is observed. Returns
   [(makespan, peak, peak_time)] where [peak] is the maximum usage over
   every instant at which at least one task runs — the honest "memory
   bound at every instant" measure, independent of any scheduler's own
   accounting — and [peak_time] the first instant that reaches it. *)
let replay t ~node_of ~start ~finish ~starts =
  let q = Array.length start in
  let finishes = Tt_util.Int_sort.order_by q (fun k -> finish.(k)) in
  let usage = ref t.T.f.(t.T.root) in
  let running = ref 0 in
  let peak = ref 0 in
  let peak_time = ref 0 in
  let makespan = ref 0 in
  let a = ref 0 and b = ref 0 in
  while !a < q || !b < q do
    let time =
      if !b >= q then start.(starts.(!a))
      else if !a >= q then finish.(finishes.(!b))
      else
        let ts = start.(starts.(!a)) and tf = finish.(finishes.(!b)) in
        if ts <= tf then ts else tf
    in
    while !a < q && start.(starts.(!a)) = time do
      let i = node_of starts.(!a) in
      incr running;
      usage := !usage + t.T.n.(i) + T.sum_children_f t i;
      incr a
    done;
    while !b < q && finish.(finishes.(!b)) = time do
      let i = node_of finishes.(!b) in
      decr running;
      usage := !usage - t.T.n.(i) - t.T.f.(i);
      incr b
    done;
    if !running > 0 && !usage > !peak then begin
      peak := !usage;
      peak_time := time
    end;
    if time > !makespan then makespan := time
  done;
  (!makespan, !peak, !peak_time)

let peak_usage t (s : P.schedule) =
  let evs = s.events in
  let start = Array.map (fun (e : P.event) -> e.start) evs in
  let _, peak, _ =
    replay t
      ~node_of:(fun k -> evs.(k).node)
      ~start
      ~finish:(Array.map (fun (e : P.event) -> e.finish) evs)
      ~starts:(Tt_util.Int_sort.order_by (Array.length evs) (fun k -> start.(k)))
  in
  peak

let check ?activation t ~memory ~work (s : P.schedule) =
  let p = T.size t in
  try
    if Array.length s.events <> p then
      raise (Bad (Malformed "event count differs from tree size"));
    let start_of = Array.make p (-1) in
    let finish_of = Array.make p (-1) in
    let proc_of = Array.make p (-1) in
    Array.iter
      (fun (e : P.event) ->
        if e.node < 0 || e.node >= p then
          raise (Bad (Malformed "node out of range"));
        if start_of.(e.node) >= 0 then raise (Bad (Malformed "duplicate node"));
        if e.start < 0 then raise (Bad (Malformed "negative start time"));
        if e.proc < 0 then raise (Bad (Malformed "negative processor"));
        if e.finish - e.start <> work e.node then
          raise (Bad (Malformed "duration differs from work"));
        start_of.(e.node) <- e.start;
        finish_of.(e.node) <- e.finish;
        proc_of.(e.node) <- e.proc)
      s.events;
    (* precedence: out-tree, so a node may start only after its parent *)
    for i = 0 to p - 1 do
      let par = t.T.parent.(i) in
      if par >= 0 && start_of.(i) < finish_of.(par) then
        raise (Bad (Precedence { node = i; parent = par }))
    done;
    (* processor exclusivity: sweep the nodes in (start, node) order,
       remembering each processor's last task; a task that starts before
       that one finishes overlaps it. The first pair found is the
       earliest. Processor ids are only known to be non-negative, so
       ids at or past [p] are remembered in a table. *)
    let starts = Tt_util.Int_sort.order_by p (fun i -> start_of.(i)) in
    let last = Array.make p (-1) in
    let last_far = Hashtbl.create 0 in
    Array.iter
      (fun i ->
        let proc = proc_of.(i) in
        let prev =
          if proc < p then last.(proc)
          else Option.value (Hashtbl.find_opt last_far proc) ~default:(-1)
        in
        if prev >= 0 && start_of.(i) < finish_of.(prev) then
          raise (Bad (Overlap { proc; first = prev; second = i }));
        if proc < p then last.(proc) <- i else Hashtbl.replace last_far proc i)
      starts;
    (* booking discipline: starts are monotone along the activation order *)
    (match activation with
    | None -> ()
    | Some order ->
        if not (Tt_core.Traversal.is_valid_order t order) then
          raise (Bad (Malformed "activation order is not a traversal"));
        for k = 1 to p - 1 do
          if start_of.(order.(k)) < start_of.(order.(k - 1)) then
            raise (Bad (Booking { position = k; node = order.(k) }))
        done);
    (* memory bound at every instant while at least one task runs *)
    let observed_makespan, observed_peak, peak_time =
      replay t ~node_of:Fun.id ~start:start_of ~finish:finish_of ~starts
    in
    if observed_peak > memory then
      raise
        (Bad (Memory { time = peak_time; usage = observed_peak; budget = memory }));
    (* accounting: the carried fields must be consistent with the events *)
    if s.makespan <> observed_makespan then
      raise (Bad (Accounting "makespan differs from last finish time"));
    if s.peak_memory > memory then
      raise (Bad (Accounting "reported peak exceeds the budget"));
    if s.peak_memory < observed_peak then
      raise (Bad (Accounting "reported peak understates observed usage"));
    Ok ()
  with Bad v -> Error v

let check_exn ?activation t ~memory ~work s =
  match check ?activation t ~memory ~work s with
  | Ok () -> ()
  | Error v -> invalid_arg ("Tt_sched.Validate: " ^ violation_to_string v)

module T = Tt_core.Tree
module P = Tt_core.Parallel

type point = { algo : string; budget : int; makespan : int; peak : int }

(* [lo] is the sequential optimum, [Minmem.min_memory t]. The grid is
   [lo + floor (span * k / (steps - 1))] for [k] in [0, steps). When its
   steps are at most one word apart it is every budget in [lo, hi];
   otherwise consecutive budgets differ, so nothing repeats. *)
let budgets_from ~lo t ~steps =
  if steps < 1 then invalid_arg "Pareto.budgets: steps < 1";
  let hi = max lo (T.total_f t) in
  let span = hi - lo in
  if span < 0 then invalid_arg "Pareto.budgets: budget range overflows";
  if steps = 1 || span = 0 then [| lo |]
  else if steps - 1 >= span then Array.init (span + 1) (fun k -> lo + k)
  else begin
    (* span * k can wrap: carry the remainder of (span mod d) * k / d
       instead, all terms below d *)
    let d = steps - 1 in
    let q = span / d and r = span mod d in
    let out = Array.make steps lo in
    let rem = ref 0 in
    for k = 1 to d do
      let carry = if !rem >= d - r then 1 else 0 in
      rem := if carry = 1 then !rem - (d - r) else !rem + r;
      out.(k) <- out.(k - 1) + q + carry
    done;
    out
  end

let budgets t ~steps = budgets_from ~lo:(Tt_core.Minmem.min_memory t) t ~steps

let fail_invalid algo v =
  invalid_arg
    (Printf.sprintf "Pareto.sweep: %s produced an invalid schedule: %s" algo
       (Validate.violation_to_string v))

let sweep ?cancel ?(steps = 8) t ~procs ~work =
  (* one MinMem run gives both the lowest budget and the activation
     order of booking and of greedy's fallback *)
  let lo, order = Tt_core.Minmem.run ?cancel t in
  let points = ref [] in
  let push p = points := p :: !points in
  Array.iter
    (fun budget ->
      (match P.list_schedule ~order t ~procs ~memory:budget ~work with
      | None -> ()
      | Some s -> (
          match Validate.check t ~memory:budget ~work s with
          | Ok () ->
              push
                { algo = "greedy"; budget; makespan = s.P.makespan;
                  peak = s.P.peak_memory }
          | Error v -> fail_invalid "greedy" v));
      match P.booking_schedule ~order t ~procs ~memory:budget ~work with
      | None -> ()
      | Some s -> (
          match Validate.check ~activation:order t ~memory:budget ~work s with
          | Ok () ->
              push
                { algo = "booking"; budget; makespan = s.P.makespan;
                  peak = s.P.peak_memory }
          | Error v -> fail_invalid "booking" v))
    (budgets_from ~lo t ~steps);
  (* splitting is budget-free: one point at its own peak *)
  let s = Split.run ?cancel t ~procs ~work in
  (match Validate.check t ~memory:s.P.peak_memory ~work s with
  | Ok () ->
      push
        { algo = "split"; budget = s.P.peak_memory; makespan = s.P.makespan;
          peak = s.P.peak_memory }
  | Error v -> fail_invalid "split" v);
  List.rev !points

let frontier points =
  let sorted =
    List.sort
      (fun a b ->
        compare (a.peak, a.makespan, a.algo, a.budget)
          (b.peak, b.makespan, b.algo, b.budget))
      points
  in
  let rec keep best acc = function
    | [] -> List.rev acc
    | p :: rest ->
        if p.makespan < best then keep p.makespan (p :: acc) rest
        else keep best acc rest
  in
  keep max_int [] sorted

let point_to_string p =
  Printf.sprintf "%s budget=%d makespan=%d peak=%d" p.algo p.budget p.makespan
    p.peak

let render points = String.concat "\n" (List.map point_to_string points)
let digest points = Digest.to_hex (Digest.string (render points))

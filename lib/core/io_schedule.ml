type t = { order : int array; tau : int array }

let never = -1

let in_core order = { order; tau = Array.make (Array.length order) never }

let io_volume tree s =
  let io = ref 0 in
  Array.iteri (fun i w -> if w <> never then io := !io + tree.Tree.f.(i)) s.tau;
  !io

type check_result =
  | Feasible of { io : int; peak : int }
  | Infeasible_at of { step : int; needed : int; available : int }
  | Invalid of { step : int; node : int; reason : string }

let check tree ~memory s =
  let p = Tree.size tree in
  if Array.length s.order <> p || Array.length s.tau <> p then
    Invalid { step = -1; node = -1; reason = "wrong length" }
  else begin
    (* writes.(step) = nodes whose file is written at that step *)
    let writes = Array.make p [] in
    let bad = ref None in
    Array.iteri
      (fun i w ->
        if w <> never then
          if w < 0 || w >= p then
            bad := Some (Invalid { step = w; node = i; reason = "tau out of range" })
          else if i = tree.Tree.root then
            bad := Some (Invalid { step = w; node = i; reason = "root file written" })
          else writes.(w) <- i :: writes.(w))
      s.tau;
    match !bad with
    | Some e -> e
    | None ->
        let ready = Array.make p false in
        let executed = Array.make p false in
        let written = Array.make p false in
        ready.(tree.Tree.root) <- true;
        let mavail = ref (memory - tree.Tree.f.(tree.Tree.root)) in
        let io = ref 0 in
        let peak = ref (memory - !mavail) in
        let result = ref None in
        let step = ref 0 in
        while !result = None && !step < p do
          let k = !step in
          (* 1. writes scheduled at this step *)
          List.iter
            (fun i ->
              if !result = None then
                if not ready.(i) then
                  result :=
                    Some
                      (Invalid
                         { step = k; node = i; reason = "write of a non-resident file" })
                else if i = s.order.(k) then
                  (* constraint (6): tau(i) < sigma(i) strictly — writing a
                     file at the very step that consumes it is forbidden *)
                  result :=
                    Some
                      (Invalid { step = k; node = i; reason = "write at the execution step" })
                else if written.(i) then
                  result := Some (Invalid { step = k; node = i; reason = "double write" })
                else begin
                  written.(i) <- true;
                  mavail := !mavail + tree.Tree.f.(i);
                  io := !io + tree.Tree.f.(i)
                end)
            writes.(k);
          (* 2. execution at this step *)
          if !result = None then begin
            let i = s.order.(k) in
            if i < 0 || i >= p then
              result := Some (Invalid { step = k; node = i; reason = "node out of range" })
            else if executed.(i) then
              result := Some (Invalid { step = k; node = i; reason = "duplicate node" })
            else if not ready.(i) then
              result :=
                Some (Invalid { step = k; node = i; reason = "parent not yet executed" })
            else begin
              (* read the input file back if it was evicted *)
              if written.(i) then begin
                written.(i) <- false;
                mavail := !mavail - tree.Tree.f.(i)
              end;
              let needed = Tree.mem_req tree i in
              if needed > !mavail + tree.Tree.f.(i) then
                result :=
                  Some
                    (Infeasible_at
                       { step = k; needed; available = !mavail + tree.Tree.f.(i) })
              else begin
                let used = memory - !mavail + tree.Tree.n.(i) + Tree.sum_children_f tree i in
                if used > !peak then peak := used;
                executed.(i) <- true;
                ready.(i) <- false;
                mavail := !mavail + tree.Tree.f.(i) - Tree.sum_children_f tree i;
                for c = tree.Tree.child_off.(i) to tree.Tree.child_off.(i + 1) - 1 do
                  ready.(tree.Tree.child.(c)) <- true
                done;
                incr step
              end
            end
          end
        done;
        (match !result with
        | Some e -> e
        | None -> Feasible { io = !io; peak = !peak })
  end

let validate_io tree ~memory s =
  match check tree ~memory s with
  | Feasible { io; _ } -> io
  | Infeasible_at { step; needed; available } ->
      invalid_arg
        (Printf.sprintf "Io_schedule.validate_io: infeasible at step %d (%d > %d)" step
           needed available)
  | Invalid { step; node; reason } ->
      invalid_arg
        (Printf.sprintf "Io_schedule.validate_io: invalid at step %d node %d: %s" step
           node reason)

(* Branch and bound over eviction schedules for a fixed traversal. See
   the interface for the search-space argument (deficit-step branching is
   complete) and the pruning scheme. *)

let given_order ?(cancel = Tt_util.Cancel.never) ?(node_budget = 2_000_000) t
    ~memory ~order =
  let p = Tree.size t in
  if not (Traversal.is_valid_order t order) then
    invalid_arg "Minio_exact.given_order: invalid order";
  let pos = Array.make p 0 in
  Array.iteri (fun step i -> pos.(i) <- step) order;
  (* incumbent: the best of the six heuristics (None -> infeasible, and
     the heuristics are complete w.r.t. feasibility because LSNF evicts
     everything evictable) *)
  let incumbent =
    List.fold_left
      (fun acc (_, pol) ->
        match (acc, Minio.io_volume t ~memory ~order pol) with
        | None, r | r, None -> r
        | Some a, Some b -> Some (min a b))
      None Minio.all_policies
  in
  match incumbent with
  | None -> None
  | Some ub ->
      let best = ref ub in
      let nodes = ref 0 in
      (* divisible lower bound for the residual instance: fractional
         eviction, furthest-use-first, starting at [step] with the given
         residence state. Only *new* eviction volume is counted. *)
      let divisible_lb step resident out mavail0 =
        let amount = Array.make p 0.0 in
        let produced i =
          i = t.Tree.root || pos.(t.Tree.parent.(i)) < step
        in
        let total = ref 0.0 in
        for i = 0 to p - 1 do
          if produced i && pos.(i) >= step && resident.(i) && not out.(i) then begin
            amount.(i) <- float_of_int t.Tree.f.(i);
            total := !total +. amount.(i)
          end
        done;
        ignore mavail0;
        let io = ref 0.0 in
        let memf = float_of_int memory in
        (try
           for k = step to p - 1 do
             let j = order.(k) in
             let fj = float_of_int t.Tree.f.(j) in
             let bring = fj -. amount.(j) in
             amount.(j) <- fj;
             total := !total +. bring;
             let working =
               float_of_int (t.Tree.n.(j) + Tree.sum_children_f t j) +. fj
             in
             let excess = !total -. fj +. working -. memf in
             if excess > 1e-9 then begin
               let cand = ref [] in
               for i = 0 to p - 1 do
                 if i <> j && amount.(i) > 0.0 then cand := i :: !cand
               done;
               let cand = List.sort (fun a b -> compare pos.(b) pos.(a)) !cand in
               let remaining = ref excess in
               List.iter
                 (fun i ->
                   if !remaining > 1e-9 then begin
                     let take = Float.min amount.(i) !remaining in
                     amount.(i) <- amount.(i) -. take;
                     total := !total -. take;
                     io := !io +. take;
                     remaining := !remaining -. take
                   end)
                 cand;
               if !remaining > 1e-9 then raise Exit
             end;
             total := !total -. amount.(j);
             amount.(j) <- 0.0;
             for k = t.Tree.child_off.(j) to t.Tree.child_off.(j + 1) - 1 do
               let c = t.Tree.child.(k) in
               amount.(c) <- float_of_int t.Tree.f.(c);
               total := !total +. amount.(c)
             done
           done;
           ()
         with Exit -> io := infinity);
        !io
      in
      (* depth-first search; [solve] owns fresh copies of the state *)
      let rec solve step resident out mavail io =
        incr nodes;
        Tt_util.Cancel.check cancel;
        if !nodes > node_budget then
          failwith "Minio_exact.given_order: node budget exhausted";
        if io < !best then begin
          let resident = Array.copy resident and out = Array.copy out in
          let mavail = ref mavail in
          let k = ref step in
          let stuck = ref false in
          while (not !stuck) && !k < p do
            let j = order.(!k) in
            let need =
              Tree.mem_req t j - if out.(j) then 0 else t.Tree.f.(j)
            in
            if need <= !mavail then begin
              if out.(j) then begin
                out.(j) <- false;
                mavail := !mavail - t.Tree.f.(j)
              end
              else resident.(j) <- false;
              mavail := !mavail + t.Tree.f.(j) - Tree.sum_children_f t j;
              for c = t.Tree.child_off.(j) to t.Tree.child_off.(j + 1) - 1 do
                resident.(t.Tree.child.(c)) <- true
              done;
              incr k
            end
            else stuck := true
          done;
          if not !stuck then begin
            if io < !best then best := io
          end
          else begin
            (* deficit at step !k: prune with the divisible bound, then
               branch over covering subsets, latest use first *)
            let lb = divisible_lb !k resident out !mavail in
            if float_of_int io +. lb < float_of_int !best -. 1e-6 then begin
              let j = order.(!k) in
              let need =
                Tree.mem_req t j - if out.(j) then 0 else t.Tree.f.(j)
              in
              let cand = ref [] in
              for i = 0 to p - 1 do
                if resident.(i) && i <> j && t.Tree.f.(i) > 0 then cand := i :: !cand
              done;
              let cand =
                Array.of_list (List.sort (fun a b -> compare pos.(b) pos.(a)) !cand)
              in
              let suffix = Array.make (Array.length cand + 1) 0 in
              for idx = Array.length cand - 1 downto 0 do
                suffix.(idx) <- suffix.(idx + 1) + t.Tree.f.(cand.(idx))
              done;
              let rec choose idx deficit io_now =
                if deficit <= 0 then solve !k resident out !mavail io_now
                else if idx >= Array.length cand then ()
                else if io_now + deficit >= !best then
                  (* even a perfect fit cannot beat the incumbent *)
                  ()
                else begin
                  (* option 1: evict cand.(idx) *)
                  let i = cand.(idx) in
                  let fi = t.Tree.f.(i) in
                  resident.(i) <- false;
                  out.(i) <- true;
                  mavail := !mavail + fi;
                  choose (idx + 1) (deficit - fi) (io_now + fi);
                  resident.(i) <- true;
                  out.(i) <- false;
                  mavail := !mavail - fi;
                  (* option 2: skip it, if the rest can still cover *)
                  if suffix.(idx + 1) >= deficit then choose (idx + 1) deficit io_now
                end
              in
              choose 0 (need - !mavail) io
            end
          end
        end
      in
      let resident = Array.make p false in
      let out = Array.make p false in
      resident.(t.Tree.root) <- true;
      solve 0 resident out (memory - t.Tree.f.(t.Tree.root)) 0;
      Some !best

let optimality_gap t ~memory ~order =
  match given_order t ~memory ~order with
  | None -> []
  | Some exact ->
      List.filter_map
        (fun (_, pol) ->
          match Minio.io_volume t ~memory ~order pol with
          | Some io -> Some (pol, io, exact)
          | None -> None)
        Minio.all_policies

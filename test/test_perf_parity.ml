(* Differential tests for the hot-path optimizations: the indexed MinIO
   candidate set, the array-backed segment calculus, the postorder
   child-sort reuse, the Explore cut compaction and the exact-size tree
   encoder must be {e behaviour-identical} to the straightforward
   implementations they replaced — same traversals, same tau vectors,
   same I/O volumes, same floats, same bytes — since the benchmark
   digests in BENCH_CORE.json and the job ids are compared
   across PRs. Each reference below is a verbatim transcription of the
   pre-optimization code. *)

module T = Tt_core.Tree
module Traversal = Tt_core.Traversal
module Io_schedule = Tt_core.Io_schedule
module Minio = Tt_core.Minio
module H = Helpers

(* the pre-optimization bottom-up order: polymorphic sort by decreasing
   depth (unstable within a level, unlike the counting sort that replaced
   it — the references prove the results do not depend on that order) *)
let seed_bottom_up t =
  let d = H.depth_of_children (H.children_of_parents t.T.parent) t.T.root in
  let order = Array.init (T.size t) (fun i -> i) in
  Array.sort (fun a b -> compare d.(b) d.(a)) order;
  order

(* --- reference MinIO: O(p) rescan + sort per deficit event -------------- *)

let ref_select policy s deficit =
  let total = Array.fold_left (fun acc (_, f) -> acc + f) 0 s in
  if total < deficit then None
  else begin
    let chosen = ref [] in
    let remaining = ref deficit in
    let available = Array.map (fun x -> (true, x)) s in
    let take i =
      let _, (_, f) = available.(i) in
      available.(i) <- (false, snd available.(i));
      chosen := i :: !chosen;
      remaining := !remaining - f
    in
    let lsnf_rest () =
      Array.iteri
        (fun i (free, (_, f)) -> if free && !remaining > 0 && f > 0 then take i)
        available
    in
    (match policy with
    | Minio.Lsnf -> lsnf_rest ()
    | Minio.First_fit -> begin
        let found = ref false in
        Array.iteri
          (fun i (free, (_, f)) ->
            if free && (not !found) && f >= !remaining then begin
              found := true;
              take i
            end)
          available;
        if not !found then lsnf_rest ()
      end
    | Minio.Best_fit ->
        let progress = ref true in
        while !remaining > 0 && !progress do
          let best = ref (-1) in
          let best_d = ref max_int in
          Array.iteri
            (fun i (free, (_, f)) ->
              if free && f > 0 then begin
                let d = abs (!remaining - f) in
                if d < !best_d then begin
                  best_d := d;
                  best := i
                end
              end)
            available;
          if !best < 0 then progress := false else take !best
        done;
        if !remaining > 0 then lsnf_rest ()
    | Minio.First_fill ->
        let progress = ref true in
        while !remaining > 0 && !progress do
          let found = ref (-1) in
          Array.iteri
            (fun i (free, (_, f)) ->
              if free && !found < 0 && f > 0 && f < !remaining then found := i)
            available;
          if !found < 0 then progress := false else take !found
        done;
        if !remaining > 0 then lsnf_rest ()
    | Minio.Best_fill ->
        let progress = ref true in
        while !remaining > 0 && !progress do
          let best = ref (-1) in
          let best_f = ref (-1) in
          Array.iteri
            (fun i (free, (_, f)) ->
              if free && f > 0 && f < !remaining && f > !best_f then begin
                best_f := f;
                best := i
              end)
            available;
          if !best < 0 then progress := false else take !best
        done;
        if !remaining > 0 then lsnf_rest ()
    | Minio.Best_k k ->
        let progress = ref true in
        while !remaining > 0 && !progress do
          let front = ref [] in
          Array.iteri
            (fun i (free, (_, f)) ->
              if free && f > 0 && List.length !front < k then front := (i, f) :: !front)
            available;
          let front = Array.of_list (List.rev !front) in
          let m = Array.length front in
          if m = 0 then progress := false
          else begin
            let best_mask = ref 0 and best_d = ref max_int and best_sum = ref 0 in
            for mask = 1 to (1 lsl m) - 1 do
              let sum = ref 0 in
              for b = 0 to m - 1 do
                if mask land (1 lsl b) <> 0 then sum := !sum + snd front.(b)
              done;
              let d = abs (!remaining - !sum) in
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
        if !remaining > 0 then lsnf_rest ());
    Some !chosen
  end

let ref_minio_run tree ~memory ~order policy =
  let p = T.size tree in
  let children = H.children_of_parents tree.T.parent in
  let pos = Array.make p 0 in
  Array.iteri (fun step i -> pos.(i) <- step) order;
  let tau = Array.make p Io_schedule.never in
  let resident = Array.make p false in
  let evicted = Array.make p false in
  resident.(tree.T.root) <- true;
  let mavail = ref (memory - tree.T.f.(tree.T.root)) in
  let feasible = ref true in
  let step = ref 0 in
  while !feasible && !step < p do
    let k = !step in
    let j = order.(k) in
    let need =
      tree.T.f.(j) + tree.T.n.(j) + H.sum_f tree children.(j)
      - if evicted.(j) then 0 else tree.T.f.(j)
    in
    if need > !mavail then begin
      let deficit = need - !mavail in
      let cand = ref [] in
      for i = 0 to p - 1 do
        if resident.(i) && i <> j && tree.T.f.(i) > 0 then
          cand := (i, tree.T.f.(i)) :: !cand
      done;
      let s =
        Array.of_list (List.sort (fun (a, _) (b, _) -> compare pos.(b) pos.(a)) !cand)
      in
      match ref_select policy s deficit with
      | None -> feasible := false
      | Some indices ->
          List.iter
            (fun idx ->
              let i, fi = s.(idx) in
              resident.(i) <- false;
              evicted.(i) <- true;
              tau.(i) <- k;
              mavail := !mavail + fi)
            indices
    end;
    if !feasible then begin
      if evicted.(j) then begin
        evicted.(j) <- false;
        resident.(j) <- false;
        mavail := !mavail - tree.T.f.(j)
      end
      else resident.(j) <- false;
      mavail := !mavail + tree.T.f.(j) - H.sum_f tree children.(j);
      Array.iter (fun c -> resident.(c) <- true) children.(j);
      incr step
    end
  done;
  if !feasible then Some { Io_schedule.order; tau } else None

let ref_divisible_lower_bound tree ~memory ~order =
  let p = T.size tree in
  let children = H.children_of_parents tree.T.parent in
  let pos = Array.make p 0 in
  Array.iteri (fun step i -> pos.(i) <- step) order;
  let resident = Array.make p 0.0 in
  resident.(tree.T.root) <- float_of_int tree.T.f.(tree.T.root);
  let resident_total = ref resident.(tree.T.root) in
  let io = ref 0.0 in
  let feasible = ref true in
  let step = ref 0 in
  while !feasible && !step < p do
    let j = order.(!step) in
    let fj = float_of_int tree.T.f.(j) in
    let bring = fj -. resident.(j) in
    resident.(j) <- fj;
    resident_total := !resident_total +. bring;
    let working = float_of_int (tree.T.n.(j) + H.sum_f tree children.(j)) +. fj in
    let excess = !resident_total -. fj +. working -. float_of_int memory in
    if excess > 1e-9 then begin
      let cand = ref [] in
      for i = 0 to p - 1 do
        if i <> j && resident.(i) > 0.0 then cand := i :: !cand
      done;
      let cand = List.sort (fun a b -> compare pos.(b) pos.(a)) !cand in
      let remaining = ref excess in
      List.iter
        (fun i ->
          if !remaining > 1e-9 then begin
            let take = min resident.(i) !remaining in
            resident.(i) <- resident.(i) -. take;
            resident_total := !resident_total -. take;
            io := !io +. take;
            remaining := !remaining -. take
          end)
        cand;
      if !remaining > 1e-9 then feasible := false
    end;
    if !feasible then begin
      resident_total := !resident_total -. resident.(j);
      resident.(j) <- 0.0;
      Array.iter
        (fun c ->
          resident.(c) <- float_of_int tree.T.f.(c);
          resident_total := !resident_total +. resident.(c))
        children.(j);
      incr step
    end
  done;
  if !feasible then Some !io else None

(* --- reference segment calculus: the list-backed implementation --------- *)

module Ref_seg = struct
  type seg = { hill : int; valley : int; nodes : int list }

  let cost s = s.hill - s.valley

  let fuse a b =
    { hill = max a.hill b.hill; valley = b.valley; nodes = a.nodes @ b.nodes }

  let canonicalize segments =
    let push stack s =
      let rec go stack s =
        match stack with
        | top :: rest when cost s >= cost top || top.valley >= s.valley ->
            go rest (fuse top s)
        | _ -> s :: stack
      in
      go stack s
    in
    List.rev (List.fold_left push [] segments)

  let merge profiles =
    match profiles with
    | [] -> []
    | [ p ] -> p
    | _ ->
        let arr = Array.of_list (List.map Array.of_list profiles) in
        let k = Array.length arr in
        let idx = Array.make k 0 in
        let contrib = Array.make k 0 in
        let total = ref 0 in
        let heap = Tt_util.Int_heap.create k in
        for c = 0 to k - 1 do
          if Array.length arr.(c) > 0 then
            Tt_util.Int_heap.insert heap c (-cost arr.(c).(0))
        done;
        let out = ref [] in
        while not (Tt_util.Int_heap.is_empty heap) do
          let c, _ = Tt_util.Int_heap.pop_min heap in
          let s = arr.(c).(idx.(c)) in
          let base = !total - contrib.(c) in
          out :=
            { hill = s.hill + base; valley = s.valley + base; nodes = s.nodes }
            :: !out;
          total := base + s.valley;
          contrib.(c) <- s.valley;
          idx.(c) <- idx.(c) + 1;
          if idx.(c) < Array.length arr.(c) then
            Tt_util.Int_heap.insert heap c (-cost arr.(c).(idx.(c)))
        done;
        canonicalize (List.rev !out)

  let append_parent prof ~hill ~valley ~node =
    canonicalize (prof @ [ { hill; valley; nodes = [ node ] } ])

  let peak prof = List.fold_left (fun acc s -> max acc s.hill) 0 prof
  let nodes prof = List.concat_map (fun s -> s.nodes) prof

  (* the list-backed Liu, using the reference calculus end to end *)
  let liu_run t =
    let p = T.size t in
    let children = H.children_of_parents t.T.parent in
    let prof = Array.make p [] in
    Array.iter
      (fun i ->
        let merged =
          merge (Array.to_list (Array.map (fun c -> prof.(c)) children.(i)))
        in
        prof.(i) <-
          append_parent merged
            ~hill:(t.T.f.(i) + t.T.n.(i) + H.sum_f t children.(i))
            ~valley:t.T.f.(i) ~node:i)
      (seed_bottom_up t);
    let root_profile = prof.(t.T.root) in
    (peak root_profile, Array.of_list (List.rev (nodes root_profile)))
end

(* convert an optimized profile into the reference shape for comparison *)
let seg_shape prof =
  List.map
    (fun (s : Tt_core.Segments.segment) ->
      { Ref_seg.hill = s.hill;
        valley = s.valley;
        nodes = Tt_core.Segments.seq_to_list s.seq
      })
    (Tt_core.Segments.to_list prof)

(* --- reference postorder: child lists re-sorted at every use ------------ *)

let ref_postorder_run t =
  let p = T.size t in
  let children = H.children_of_parents t.T.parent in
  let bottom_up = seed_bottom_up t in
  let sorted_children peaks i =
    let cs = Array.copy children.(i) in
    Array.sort
      (fun a b -> compare (peaks.(a) - t.T.f.(a)) (peaks.(b) - t.T.f.(b)))
      cs;
    cs
  in
  let peaks = Array.make p 0 in
  Array.iter
    (fun i ->
      let cs = sorted_children peaks i in
      let best = ref (t.T.f.(i) + t.T.n.(i) + H.sum_f t children.(i)) in
      let pending = ref (Array.fold_left (fun acc c -> acc + t.T.f.(c)) 0 cs) in
      Array.iter
        (fun c ->
          pending := !pending - t.T.f.(c);
          let v = peaks.(c) + !pending in
          if v > !best then best := v)
        cs;
      peaks.(i) <- !best)
    bottom_up;
  let order = Array.make p (-1) in
  let k = ref 0 in
  let stack = ref [ t.T.root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        order.(!k) <- i;
        incr k;
        let cs = sorted_children peaks i in
        for j = Array.length cs - 1 downto 0 do
          stack := cs.(j) :: !stack
        done
  done;
  (peaks.(t.T.root), order)

(* --- instances and memory levels ---------------------------------------- *)

let hash_weight i m = 1 + (i * 2654435761) land max_int mod m

let reweight ~max_f t =
  T.map_weights ~f:(fun i -> hash_weight i max_f) ~n:(fun i -> hash_weight (i + 1) 7 - 1) t

let family_instances =
  let module I = Tt_core.Instances in
  [ ("chain-stair", reweight ~max_f:401 (I.chain ~length:120 ~f:1 ~n:0));
    ("binary-rand", reweight ~max_f:401 (I.complete_binary ~levels:6 ~f:1 ~n:0));
    ("star", I.star ~branches:60 ~f_root:3 ~f_leaf:7 ~n:5);
    ("harpoon", I.harpoon_nested ~branches:2 ~levels:5 ~m:64 ~eps:3);
    ("caterpillar", reweight ~max_f:97 (I.caterpillar ~length:40 ~leaves_per_node:3 ~f:7 ~n:3));
    ("random", T.random ~rng:(Tt_util.Rng.create 97) ~size:150 ~max_f:50 ~max_n:9)
  ]

(* memory levels from below the feasibility floor up to the peak *)
let memory_levels tree order =
  let floor = T.max_mem_req tree in
  let peak = Traversal.peak tree order in
  List.sort_uniq compare
    [ floor - 1; floor; floor + ((peak - floor + 3) / 4); (floor + peak) / 2; peak ]

let same_schedule (a : Io_schedule.t option) (b : Io_schedule.t option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> a.Io_schedule.order = b.Io_schedule.order && a.tau = b.tau
  | _ -> false

let orders_for tree =
  [ Traversal.top_down_order tree;
    Traversal.random_order ~rng:(Tt_util.Rng.create 13) tree
  ]

let test_minio_families () =
  List.iter
    (fun (name, tree) ->
      List.iter
        (fun order ->
          List.iter
            (fun memory ->
              List.iter
                (fun (pname, policy) ->
                  let expect = ref_minio_run tree ~memory ~order policy in
                  let got = Minio.run tree ~memory ~order policy in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s/%s mem=%d" name pname memory)
                    true
                    (same_schedule expect got))
                Minio.all_policies;
              let lb_ref = ref_divisible_lower_bound tree ~memory ~order in
              let lb = Minio.divisible_lower_bound tree ~memory ~order in
              Alcotest.(check bool)
                (Printf.sprintf "%s/divisible-lb mem=%d" name memory)
                true
                (lb_ref = lb))
            (memory_levels tree order))
        (orders_for tree))
    family_instances

let prop_minio_random =
  H.qcheck ~count:150 "minio policies match the rescan reference"
    (H.arb_tree_with_order ~size_max:40 ())
    (fun (tree, order) ->
      List.for_all
        (fun memory ->
          List.for_all
            (fun (_, policy) ->
              same_schedule
                (ref_minio_run tree ~memory ~order policy)
                (Minio.run tree ~memory ~order policy))
            Minio.all_policies
          && ref_divisible_lower_bound tree ~memory ~order
             = Minio.divisible_lower_bound tree ~memory ~order)
        (memory_levels tree order))

(* every eviction the heuristics make must still be a valid schedule *)
let prop_minio_schedules_valid =
  H.qcheck ~count:100 "optimized schedules stay valid"
    (H.arb_tree_with_order ~size_max:25 ())
    (fun (tree, order) ->
      List.for_all
        (fun memory ->
          List.for_all
            (fun (_, policy) ->
              match Minio.run tree ~memory ~order policy with
              | None -> false
              | Some s -> (
                  match Io_schedule.check tree ~memory s with
                  | Io_schedule.Feasible _ -> true
                  | _ -> false))
            Minio.all_policies)
        (List.filter (fun m -> m >= T.max_mem_req tree) (memory_levels tree order)))

let prop_segments_merge_reference =
  H.qcheck ~count:200 "array merge matches the list-backed reference"
    (QCheck.pair QCheck.(int_bound 1_000_000) QCheck.(1 -- 5))
    (fun (seed, k) ->
      let rng = Tt_util.Rng.create seed in
      let raw () =
        let len = Tt_util.Rng.int_incl rng 0 8 in
        let v = ref 0 in
        List.init len (fun i ->
            let hill = !v + Tt_util.Rng.int_incl rng 0 10 in
            let valley = Tt_util.Rng.int_incl rng 0 hill in
            v := valley;
            { Ref_seg.hill; valley; nodes = [ (i * 10) + Tt_util.Rng.int_incl rng 0 9 ] })
      in
      let raws = List.init k (fun _ -> raw ()) in
      let to_opt raw =
        Tt_core.Segments.canonicalize
          (List.map
             (fun (s : Ref_seg.seg) ->
               { Tt_core.Segments.hill = s.hill;
                 valley = s.valley;
                 seq =
                   List.fold_left
                     (fun acc x -> Tt_core.Segments.seq_cat acc (Tt_core.Segments.seq_single x))
                     Tt_core.Segments.seq_empty s.nodes
               })
             raw)
      in
      let expect = Ref_seg.merge (List.map Ref_seg.canonicalize raws) in
      let got = Tt_core.Segments.merge (List.map to_opt raws) in
      seg_shape got = expect)

let test_liu_families () =
  List.iter
    (fun (name, tree) ->
      let em, eo = Ref_seg.liu_run tree in
      let gm, go = Tt_core.Liu_exact.run tree in
      Alcotest.(check int) (name ^ " mem") em gm;
      Alcotest.(check (array int)) (name ^ " order") eo go)
    family_instances

let prop_liu_random =
  H.qcheck ~count:150 "liu matches the list-backed reference"
    (H.arb_tree ~size_max:40 ())
    (fun tree -> Ref_seg.liu_run tree = Tt_core.Liu_exact.run tree)

let test_postorder_families () =
  List.iter
    (fun (name, tree) ->
      let em, eo = ref_postorder_run tree in
      let gm, go = Tt_core.Postorder_opt.run tree in
      Alcotest.(check int) (name ^ " mem") em gm;
      Alcotest.(check (array int)) (name ^ " order") eo go)
    family_instances

let prop_postorder_random =
  H.qcheck ~count:200 "postorder matches the re-sorting reference"
    (H.arb_tree ~size_max:40 ())
    (fun tree -> ref_postorder_run tree = Tt_core.Postorder_opt.run tree)

(* Explore's cut compaction fires on wide nodes (star: every leaf explored
   in the first pass leaves only tombstones). The optimum and traversal
   validity pin its behaviour. *)
let test_minmem_wide () =
  List.iter
    (fun (name, tree) ->
      let mem, order = Tt_core.Minmem.run tree in
      H.check_valid_traversal tree order;
      Alcotest.(check int) (name ^ " peak") mem (Traversal.peak tree order);
      Alcotest.(check int) (name ^ " optimal") (Tt_core.Liu_exact.min_memory tree) mem)
    family_instances

(* --- the supporting structures: Ordered_set and Dynarray compaction ----- *)

(* model-based test against a plain sorted list; capacities around
   multiples of the 63-bit word size exercise the tower boundaries, and
   queries beyond the universe exercise the clamping of [pred] *)
let prop_ordered_set_model =
  H.qcheck ~count:300 "Ordered_set matches a sorted-list model"
    QCheck.(pair (int_bound 1_000_000) (1 -- 160))
    (fun (seed, n) ->
      let module Os = Tt_util.Ordered_set in
      let rng = Tt_util.Rng.create seed in
      (* bias towards the word-size boundaries *)
      let n = match n mod 5 with 0 -> 63 | 1 -> 126 | _ -> n in
      let os = Os.create n in
      let model = ref [] in
      let ok = ref true in
      let check b = if not b then ok := false in
      for _ = 1 to 200 do
        let x = Tt_util.Rng.int_incl rng 0 (n - 1) in
        (match Tt_util.Rng.int_incl rng 0 2 with
        | 0 ->
            Os.add os x;
            if not (List.mem x !model) then
              model := List.sort compare (x :: !model)
        | 1 ->
            Os.remove os x;
            model := List.filter (fun y -> y <> x) !model
        | _ -> ());
        let q = Tt_util.Rng.int_incl rng (-1) (n + 2) in
        let largest_below i =
          List.fold_left (fun acc y -> if y < i then Some y else acc) None !model
        in
        let smallest_above i =
          List.fold_left
            (fun acc y -> match acc with Some _ -> acc | None -> if y > i then Some y else None)
            None !model
        in
        check (Os.cardinal os = List.length !model);
        check (Os.is_empty os = (!model = []));
        check (Os.mem os x = List.mem x !model);
        check (Os.max_elt os = largest_below n);
        check (Os.min_elt os = smallest_above (-1));
        check (Os.pred os q = largest_below (min q n));
        check (Os.succ os q = smallest_above q);
        check (Os.to_desc_list os = List.rev !model)
      done;
      !ok)

(* the regression that motivated the clamp fix: [pred] at or above the
   universe bound when the bound is an exact multiple of the word size *)
let test_ordered_set_pred_clamp () =
  let module Os = Tt_util.Ordered_set in
  List.iter
    (fun n ->
      let os = Os.create n in
      Alcotest.(check (option int)) "pred empty" None (Os.pred os n);
      Os.add os (n - 1);
      Os.add os 0;
      Alcotest.(check (option int)) "pred at bound" (Some (n - 1)) (Os.pred os n);
      Alcotest.(check (option int)) "pred above bound" (Some (n - 1)) (Os.pred os (n + 5));
      Alcotest.(check (option int)) "succ at top" None (Os.succ os (n - 1));
      Alcotest.(check (option int)) "succ clamps negative" (Some 0) (Os.succ os (-7)))
    [ 1; 62; 63; 64; 126; 189; 200 ]

let prop_filter_in_place_stable =
  H.qcheck ~count:300 "Dynarray filter_in_place = List.filter"
    (H.arb_int_list ~len:60 ~max_v:20 ())
    (fun l ->
      let module D = Tt_util.Dynarray_compat in
      let d = D.create () in
      List.iter (fun x -> D.add_last d x) l;
      D.filter_in_place (fun x -> x mod 3 <> 0) d;
      let got = ref [] in
      D.iter (fun x -> got := x :: !got) d;
      List.rev !got = List.filter (fun x -> x mod 3 <> 0) l)

(* --- the canonical tree encoding: exact-size writer vs Printf ----------- *)

(* the pre-optimization [Tree.to_string], verbatim but for the module
   qualifiers: one Printf per node into a growing Buffer *)
let ref_tree_to_string (t : T.t) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int (T.size t));
  for i = 0 to T.size t - 1 do
    Buffer.add_string buf (Printf.sprintf " %d:%d:%d" t.T.parent.(i) t.T.f.(i) t.T.n.(i))
  done;
  Buffer.contents buf

(* Weights at the edges of the decimal writer: 0, the extremes of int,
   powers of ten and their neighbours, and full-range values shifted to
   every digit count, of both signs. *)
let extreme_int rng =
  let pow10 = int_of_float (10. ** float_of_int (Tt_util.Rng.int_incl rng 0 18)) in
  match Tt_util.Rng.int rng 8 with
  | 0 -> min_int
  | 1 -> max_int
  | 2 -> 0
  | 3 -> pow10
  | 4 -> pow10 - 1
  | 5 -> -pow10
  | _ -> Int64.to_int (Tt_util.Rng.int64 rng) asr Tt_util.Rng.int rng 63

let prop_tree_encoding_reference =
  H.qcheck ~count:500 "to_string matches the Printf reference on extreme weights"
    (H.arb_tree ~size_max:30 ())
    (fun shape ->
      let rng = Tt_util.Rng.create (T.size shape) in
      let f = Array.init (T.size shape) (fun _ -> extreme_int rng land max_int) in
      let n = Array.init (T.size shape) (fun _ -> extreme_int rng) in
      let tree = T.make ~parent:shape.T.parent ~f ~n in
      T.to_string tree = ref_tree_to_string tree
      && T.to_string shape = ref_tree_to_string shape
      && T.equal (T.of_string (T.to_string tree)) tree)

let test_tree_encoding_edges () =
  List.iter
    (fun (f, n) ->
      let tree = T.make ~parent:[| -1; 0 |] ~f:[| f; 1 |] ~n:[| n; -1 |] in
      Alcotest.(check string) (Printf.sprintf "f=%d n=%d" f n)
        (ref_tree_to_string tree) (T.to_string tree))
    [ (0, 0); (max_int, min_int); (max_int, max_int); (9, -9); (10, -10);
      (99, -99); (100, -100); (max_int - 1, min_int + 1) ]

let () =
  H.run "perf_parity"
    [ ( "minio",
        [ H.case "family instances x policies x memory" test_minio_families;
          prop_minio_random;
          prop_minio_schedules_valid
        ] );
      ("segments", [ prop_segments_merge_reference ]);
      ( "liu",
        [ H.case "family instances" test_liu_families; prop_liu_random ] );
      ( "postorder",
        [ H.case "family instances" test_postorder_families; prop_postorder_random ] );
      ("minmem", [ H.case "wide cuts" test_minmem_wide ]);
      ( "encoding",
        [ H.case "edge weights" test_tree_encoding_edges; prop_tree_encoding_reference ] );
      ( "structures",
        [ prop_ordered_set_model;
          H.case "pred clamp at word-size bounds" test_ordered_set_pred_clamp;
          prop_filter_in_place_stable
        ] )
    ]

(* Tests for the numeric multifrontal factorization, its memory
   accounting, and the out-of-core simulator. *)

module S = Tt_sparse
module MF = Tt_multifrontal
module H = Helpers

let arb_spd =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Tt_util.Rng.create seed in
        let n = Tt_util.Rng.int_incl rng 1 25 in
        S.Csr.symmetrize_values (S.Spgen.random_sym ~rng ~n ~nnz_per_row:2.2))
      (QCheck.Gen.int_bound 1_000_000)
  in
  QCheck.make ~print:(fun a -> Printf.sprintf "n=%d" a.S.Csr.nrows) gen

(* Larger than [arb_spd] and in minimum-degree order, so that fronts
   have several children and the budgets below the in-core peak force
   evictions (in natural order a random matrix's tree is nearly a chain
   whose peak is its working set). *)
let arb_parity =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let rng = Tt_util.Rng.create seed in
        let n = Tt_util.Rng.int_incl rng 1 60 in
        let a = S.Csr.symmetrize_values (S.Spgen.random_sym ~rng ~n ~nnz_per_row:2.5) in
        let graph = Tt_ordering.Graph_adj.of_pattern (S.Csr.symmetrize_pattern a) in
        (S.Csr.permute_sym a (Tt_ordering.Min_degree.order graph), seed))
      (QCheck.Gen.int_bound 1_000_000)
  in
  QCheck.make ~print:(fun (a, seed) -> Printf.sprintf "n=%d seed=%d" a.S.Csr.nrows seed) gen

let symbolic_of a =
  let pattern = S.Csr.symmetrize_pattern a in
  let parent = Tt_etree.Elimination_tree.parents pattern in
  Tt_etree.Symbolic.run pattern ~parent

(* ------------------------------------------------------------- references *)

(* The five multifrontal loops as they were before they became one
   driver, and the [Front.eliminate_pivot] they called, kept verbatim
   as references for the parity tests below. Each sits in a module named
   after its original, which includes the original's unchanged types and
   values. *)
module Ref = struct
  module Front = struct
    include MF.Front

    let eliminate_pivot f =
      let m = size f in
      let a00 = f.a.(0) in
      if a00 <= 0. then failwith "Front.eliminate_pivot: non-positive pivot";
      let d = sqrt a00 in
      let l = Array.init m (fun i -> if i = 0 then d else f.a.(i) /. d) in
      let cb = create (Array.sub f.rows 1 (m - 1)) in
      let mc = m - 1 in
      for j = 1 to m - 1 do
        for i = 1 to m - 1 do
          cb.a.(((j - 1) * mc) + (i - 1)) <- f.a.((j * m) + i) -. (l.(i) *. l.(j))
        done
      done;
      (l, cb)
  end

  module Factor = struct
    include MF.Factor

    module D = Tt_util.Dynarray_compat

    let default_schedule (sym : Tt_etree.Symbolic.t) =
      let n = Array.length sym.Tt_etree.Symbolic.parent in
      let children = Array.make n [] in
      let roots = ref [] in
      for j = n - 1 downto 0 do
        match sym.Tt_etree.Symbolic.parent.(j) with
        | -1 -> roots := j :: !roots
        | p -> children.(p) <- j :: children.(p)
      done;
      let order = D.create () in
      (* iterative postorder *)
      let rec visit j =
        List.iter visit children.(j);
        D.add_last order j
      in
      List.iter visit !roots;
      D.to_array order

    let run (a : Tt_sparse.Csr.t) (sym : Tt_etree.Symbolic.t) ~schedule =
      let n = a.Tt_sparse.Csr.nrows in
      if Array.length schedule <> n then invalid_arg "Factor.run: wrong schedule length";
      let parent = sym.Tt_etree.Symbolic.parent in
      let children = Array.make n [] in
      for c = n - 1 downto 0 do
        if parent.(c) >= 0 then children.(parent.(c)) <- c :: children.(parent.(c))
      done;
      let processed = Array.make n false in
      (* pending contribution blocks, one slot per column *)
      let pending : Front.t option array = Array.make n None in
      let live = ref 0 in
      let peak = ref 0 in
      let profile = Array.make n 0 in
      (* factor columns, collected as (col, rows, values) *)
      let l_cols = Array.make n [||] in
      Array.iteri
        (fun step j ->
          if j < 0 || j >= n || processed.(j) then invalid_arg "Factor.run: bad schedule";
          let structure = sym.Tt_etree.Symbolic.col_struct.(j) in
          (* children must be done and their blocks pending *)
          let child_blocks = ref [] in
          List.iter
            (fun c ->
              if not processed.(c) then invalid_arg "Factor.run: child after parent";
              match pending.(c) with
              | Some cb -> child_blocks := (c, cb) :: !child_blocks
              | None -> ())
            children.(j);
          (* allocate the front while the children blocks are still live *)
          let front = Front.create structure in
          live := !live + Front.words front;
          if !live > !peak then peak := !live;
          profile.(step) <- !live;
          (* assemble original entries of A (lower column j) *)
          let m = Front.size front in
          let local = Hashtbl.create (2 * m) in
          Array.iteri (fun li g -> Hashtbl.replace local g li) structure;
          Seq.iter
            (fun (col, v) ->
              (* row j of A gives column j entries by symmetry *)
              if col >= j then begin
                let li = Hashtbl.find local col in
                Front.add front li 0 v;
                if li <> 0 then Front.add front 0 li v
              end)
            (Tt_sparse.Csr.row a j);
          (* extend-add the children contribution blocks, then free them *)
          List.iter
            (fun (c, cb) ->
              Front.extend_add ~into:front cb;
              live := !live - Front.words cb;
              pending.(c) <- None)
            !child_blocks;
          (* eliminate the pivot *)
          let l_col, cb = Front.eliminate_pivot front in
          l_cols.(j) <- l_col;
          live := !live - Front.words front;
          if Front.size cb > 0 then begin
            live := !live + Front.words cb;
            if !live > !peak then peak := !live;
            pending.(j) <- Some cb
          end;
          processed.(j) <- true)
        schedule;
      (* assemble L as CSR (row-major lower triangle) *)
      let t = Tt_sparse.Triplet.create ~nrows:n ~ncols:n in
      for j = 0 to n - 1 do
        let structure = sym.Tt_etree.Symbolic.col_struct.(j) in
        Array.iteri (fun li g -> Tt_sparse.Triplet.add t g j l_cols.(j).(li)) structure
      done;
      { l = Tt_sparse.Csr.of_triplet t; peak_words = !peak; profile }
  end

  module Stack_sim = struct
    type result = MF.Stack_sim.result = { factor : Factor.result; max_stack_blocks : int }

    let run (a : Tt_sparse.Csr.t) (sym : Tt_etree.Symbolic.t) ~schedule =
      let n = a.Tt_sparse.Csr.nrows in
      if Array.length schedule <> n then Error "wrong schedule length"
      else begin
        let parent = sym.Tt_etree.Symbolic.parent in
        let child_count = Array.make n 0 in
        Array.iter (fun p -> if p >= 0 then child_count.(p) <- child_count.(p) + 1) parent;
        (* the stack holds (column, contribution block) pairs *)
        let stack : (int * Front.t) list ref = ref [] in
        let depth = ref 0 in
        let max_depth = ref 0 in
        let live = ref 0 in
        let peak = ref 0 in
        let profile = Array.make n 0 in
        let l_cols = Array.make n [||] in
        let error = ref None in
        let processed = Array.make n false in
        (try
           Array.iteri
             (fun step j ->
               if j < 0 || j >= n || processed.(j) then failwith "bad schedule entry";
               processed.(j) <- true;
               let structure = sym.Tt_etree.Symbolic.col_struct.(j) in
               let front = Front.create structure in
               live := !live + Front.words front;
               if !live > !peak then peak := !live;
               profile.(step) <- !live;
               let m = Front.size front in
               let local = Hashtbl.create (2 * m) in
               Array.iteri (fun li g -> Hashtbl.replace local g li) structure;
               Seq.iter
                 (fun (col, v) ->
                   if col >= j then begin
                     let li = Hashtbl.find local col in
                     Front.add front li 0 v;
                     if li <> 0 then Front.add front 0 li v
                   end)
                 (Tt_sparse.Csr.row a j);
               (* pop exactly the children: LIFO discipline *)
               for _ = 1 to child_count.(j) do
                 match !stack with
                 | [] -> failwith "stack underflow"
                 | (c, cb) :: rest ->
                     if parent.(c) <> j then
                       failwith
                         (Printf.sprintf
                            "stack discipline violated at column %d: top block belongs \
                             to column %d (schedule is not a postorder)"
                            j c);
                     Front.extend_add ~into:front cb;
                     live := !live - Front.words cb;
                     decr depth;
                     stack := rest
               done;
               let l, cb = Front.eliminate_pivot front in
               l_cols.(j) <- l;
               live := !live - Front.words front;
               if Front.size cb > 0 then begin
                 live := !live + Front.words cb;
                 if !live > !peak then peak := !live;
                 stack := (j, cb) :: !stack;
                 incr depth;
                 if !depth > !max_depth then max_depth := !depth
               end)
             schedule
         with Failure msg -> error := Some msg);
        match !error with
        | Some msg -> Error msg
        | None ->
            let t = Tt_sparse.Triplet.create ~nrows:n ~ncols:n in
            for j = 0 to n - 1 do
              Array.iteri
                (fun li g -> Tt_sparse.Triplet.add t g j l_cols.(j).(li))
                sym.Tt_etree.Symbolic.col_struct.(j)
            done;
            Ok
              { factor =
                  { Factor.l = Tt_sparse.Csr.of_triplet t; peak_words = !peak; profile };
                max_stack_blocks = !max_depth
              }
      end
  end

  module Supernodal = struct
    include MF.Supernodal
    module D = Tt_util.Dynarray_compat

    let default_schedule p =
      let gcount = Array.length p.parent in
      let children = Array.make gcount [] in
      let roots = ref [] in
      for g = gcount - 1 downto 0 do
        match p.parent.(g) with
        | -1 -> roots := g :: !roots
        | q -> children.(q) <- g :: children.(q)
      done;
      let order = D.create () in
      let rec visit g =
        List.iter visit children.(g);
        D.add_last order g
      in
      List.iter visit !roots;
      D.to_array order

    let run (a : Tt_sparse.Csr.t) (_sym : Tt_etree.Symbolic.t) p ~schedule =
      let gcount = Array.length p.parent in
      if Array.length schedule <> gcount then
        invalid_arg "Supernodal.run: wrong schedule length";
      let n = a.Tt_sparse.Csr.nrows in
      let children = Array.make gcount [] in
      for g = gcount - 1 downto 0 do
        if p.parent.(g) >= 0 then children.(p.parent.(g)) <- g :: children.(p.parent.(g))
      done;
      let processed = Array.make gcount false in
      let pending : Front.t option array = Array.make gcount None in
      let live = ref 0 in
      let peak = ref 0 in
      let profile = Array.make gcount 0 in
      let l_cols : (int * float) list array = Array.make n [] in
      Array.iteri
        (fun step g ->
          if g < 0 || g >= gcount || processed.(g) then
            invalid_arg "Supernodal.run: bad schedule";
          List.iter
            (fun c ->
              if not processed.(c) then invalid_arg "Supernodal.run: child after parent")
            children.(g);
          let rows = p.rows.(g) in
          let front = Front.create rows in
          live := !live + Front.words front;
          if !live > !peak then peak := !live;
          profile.(step) <- !live;
          (* assemble the original entries of every member column *)
          let m = Array.length rows in
          let local = Hashtbl.create (2 * m) in
          Array.iteri (fun li gidx -> Hashtbl.replace local gidx li) rows;
          List.iter
            (fun col ->
              let lcol = Hashtbl.find local col in
              Seq.iter
                (fun (r, v) ->
                  (* row [col] of the symmetric matrix gives column [col];
                     keep entries at or below the diagonal that live in the
                     front *)
                  if r >= col then
                    match Hashtbl.find_opt local r with
                    | Some lr ->
                        Front.add front lr lcol v;
                        if lr <> lcol then Front.add front lcol lr v
                    | None -> ())
                (Tt_sparse.Csr.row a col))
            p.amal.Tt_etree.Amalgamation.groups.(g).Tt_etree.Amalgamation.members;
          (* extend-add the children contribution blocks *)
          List.iter
            (fun c ->
              match pending.(c) with
              | Some cb ->
                  Front.extend_add ~into:front cb;
                  live := !live - Front.words cb;
                  pending.(c) <- None
              | None -> ())
            children.(g);
          (* eliminate the member pivots in place, lowest column first *)
          let members =
            List.sort compare p.amal.Tt_etree.Amalgamation.groups.(g).Tt_etree.Amalgamation.members
          in
          let eta = List.length members in
          List.iteri
            (fun k col ->
              if rows.(k) <> col then invalid_arg "Supernodal.run: front misaligned")
            members;
          let cols, cb = Front.eliminate_pivots front eta in
          List.iteri
            (fun k col ->
              let l = List.nth cols k in
              l_cols.(col) <-
                Array.to_list (Array.mapi (fun i v -> (rows.(k + i), v)) l))
            members;
          live := !live - Front.words front;
          if Front.size cb > 0 then begin
            live := !live + Front.words cb;
            if !live > !peak then peak := !live;
            pending.(g) <- Some cb
          end;
          processed.(g) <- true)
        schedule;
      let t = Tt_sparse.Triplet.create ~nrows:n ~ncols:n in
      Array.iteri
        (fun col entries -> List.iter (fun (r, v) -> Tt_sparse.Triplet.add t r col v) entries)
        l_cols;
      { Factor.l = Tt_sparse.Csr.of_triplet t; peak_words = !peak; profile }
  end

  module Ooc_sim = struct
    type result = MF.Ooc_sim.result = {
      factor : Factor.result;
      planned_io : int;
      measured_io : int;
      peak_in_core : int;
    }

    let raw_assembly (sym : Tt_etree.Symbolic.t) =
      let n = Array.length sym.Tt_etree.Symbolic.parent in
      let col_counts = Array.init n (Tt_etree.Symbolic.col_count sym) in
      Tt_etree.Assembly.of_etree_raw ~parent:sym.Tt_etree.Symbolic.parent ~col_counts

    let min_in_core_words (sym : Tt_etree.Symbolic.t) =
      let asm = raw_assembly sym in
      Tt_core.Tree.max_mem_req asm.Tt_etree.Assembly.tree

    (* Bottom-up column schedule -> out-tree traversal of the assembly tree
       (prepend the virtual root when the matrix is reducible). *)
    let out_tree_order (asm : Tt_etree.Assembly.t) ~schedule =
      let n = Array.length schedule in
      let p = Tt_core.Tree.size asm.Tt_etree.Assembly.tree in
      let rev = Tt_core.Transform.reverse_traversal schedule in
      if asm.Tt_etree.Assembly.virtual_root then
        Array.init p (fun k -> if k = 0 then p - 1 else rev.(k - 1))
      else begin
        ignore n;
        rev
      end

    let plan (sym : Tt_etree.Symbolic.t) ~memory_words ~policy ~schedule =
      let asm = raw_assembly sym in
      let order = out_tree_order asm ~schedule in
      Tt_core.Minio.run asm.Tt_etree.Assembly.tree ~memory:memory_words ~order policy

    let run (a : Tt_sparse.Csr.t) (sym : Tt_etree.Symbolic.t) ~memory_words ~policy
        ~schedule =
      let n = a.Tt_sparse.Csr.nrows in
      let asm = raw_assembly sym in
      match plan sym ~memory_words ~policy ~schedule with
      | None ->
          Error
            (Printf.sprintf
               "memory budget %d words below the multifrontal working set %d" memory_words
               (min_in_core_words sym))
      | Some io_plan ->
          let planned_io =
            Tt_core.Io_schedule.io_volume asm.Tt_etree.Assembly.tree io_plan
          in
          (* tree node = column index for the raw assembly tree; evicted
             columns are those the plan writes out *)
          let evicted = Array.make n false in
          Array.iteri
            (fun node step ->
              if step <> Tt_core.Io_schedule.never && node < n then evicted.(node) <- true)
            io_plan.Tt_core.Io_schedule.tau;
          (* numeric factorization with a simulated secondary store: pending
             blocks of evicted columns live in [disk] instead of main memory *)
          let parent = sym.Tt_etree.Symbolic.parent in
          let children = Array.make n [] in
          for c = n - 1 downto 0 do
            if parent.(c) >= 0 then children.(parent.(c)) <- c :: children.(parent.(c))
          done;
          let disk : (int, Front.t) Hashtbl.t = Hashtbl.create 64 in
          let pending : Front.t option array = Array.make n None in
          let live = ref 0 in
          let peak = ref 0 in
          let measured_io = ref 0 in
          let profile = Array.make n 0 in
          let l_cols = Array.make n [||] in
          let bad = ref None in
          (try
             Array.iteri
               (fun step j ->
                 (* read evicted children blocks back *)
                 let child_blocks =
                   List.filter_map
                     (fun c ->
                       match (pending.(c), Hashtbl.find_opt disk c) with
                       | Some cb, _ -> Some (c, cb)
                       | None, Some cb ->
                           Hashtbl.remove disk c;
                           live := !live + Front.words cb;
                           Some (c, cb)
                       | None, None -> None)
                     children.(j)
                 in
                 let front = Front.create sym.Tt_etree.Symbolic.col_struct.(j) in
                 live := !live + Front.words front;
                 if !live > !peak then peak := !live;
                 profile.(step) <- !live;
                 let m = Front.size front in
                 let local = Hashtbl.create (2 * m) in
                 Array.iteri
                   (fun li g -> Hashtbl.replace local g li)
                   sym.Tt_etree.Symbolic.col_struct.(j);
                 Seq.iter
                   (fun (col, v) ->
                     if col >= j then begin
                       let li = Hashtbl.find local col in
                       Front.add front li 0 v;
                       if li <> 0 then Front.add front 0 li v
                     end)
                   (Tt_sparse.Csr.row a j);
                 List.iter
                   (fun (c, cb) ->
                     Front.extend_add ~into:front cb;
                     live := !live - Front.words cb;
                     pending.(c) <- None)
                   child_blocks;
                 let l_col, cb = Front.eliminate_pivot front in
                 l_cols.(j) <- l_col;
                 live := !live - Front.words front;
                 if Front.size cb > 0 then
                   if evicted.(j) then begin
                     (* write the block out right away *)
                     Hashtbl.replace disk j cb;
                     measured_io := !measured_io + Front.words cb
                   end
                   else begin
                     live := !live + Front.words cb;
                     if !live > !peak then peak := !live;
                     pending.(j) <- Some cb
                   end)
               schedule
           with Failure msg -> bad := Some msg);
          (match !bad with
          | Some msg -> Error msg
          | None ->
              let t = Tt_sparse.Triplet.create ~nrows:n ~ncols:n in
              for j = 0 to n - 1 do
                Array.iteri
                  (fun li g -> Tt_sparse.Triplet.add t g j l_cols.(j).(li))
                  sym.Tt_etree.Symbolic.col_struct.(j)
              done;
              Ok
                { factor =
                    { Factor.l = Tt_sparse.Csr.of_triplet t;
                      peak_words = !peak;
                      profile };
                  planned_io;
                  measured_io = !measured_io;
                  peak_in_core = !peak })

    let run_supernodal (a : Tt_sparse.Csr.t) (sym : Tt_etree.Symbolic.t)
        (amal : Tt_etree.Amalgamation.t) ~memory_words ~policy ~schedule =
      let asm = Tt_etree.Assembly.of_amalgamation amal in
      let tree = asm.Tt_etree.Assembly.tree in
      let gcount = Array.length amal.Tt_etree.Amalgamation.groups in
      if Array.length schedule <> gcount then Error "wrong schedule length"
      else begin
        let p = Tt_core.Tree.size tree in
        let order =
          if asm.Tt_etree.Assembly.virtual_root then
            Array.init p (fun k -> if k = 0 then p - 1 else schedule.(gcount - k))
          else Tt_core.Transform.reverse_traversal schedule
        in
        match Tt_core.Minio.run tree ~memory:memory_words ~order policy with
        | None ->
            Error
              (Printf.sprintf "memory budget %d words below the supernodal working set %d"
                 memory_words
                 (Tt_core.Tree.max_mem_req tree))
        | Some io_plan ->
            let planned_io = Tt_core.Io_schedule.io_volume tree io_plan in
            let evicted = Array.make gcount false in
            Array.iteri
              (fun node step ->
                if step <> Tt_core.Io_schedule.never && node < gcount then
                  evicted.(node) <- true)
              io_plan.Tt_core.Io_schedule.tau;
            (* supernodal numeric execution with a simulated secondary store *)
            let plan = Supernodal.plan sym amal in
            let n = a.Tt_sparse.Csr.nrows in
            let children = Array.make gcount [] in
            for g = gcount - 1 downto 0 do
              if plan.Supernodal.parent.(g) >= 0 then
                children.(plan.Supernodal.parent.(g)) <-
                  g :: children.(plan.Supernodal.parent.(g))
            done;
            let disk : (int, Front.t) Hashtbl.t = Hashtbl.create 64 in
            let pending : Front.t option array = Array.make gcount None in
            let live = ref 0 in
            let peak = ref 0 in
            let measured_io = ref 0 in
            let profile = Array.make gcount 0 in
            let l_cols : (int * float) list array = Array.make n [] in
            let bad = ref None in
            (try
               Array.iteri
                 (fun step g ->
                   let child_blocks =
                     List.filter_map
                       (fun c ->
                         match (pending.(c), Hashtbl.find_opt disk c) with
                         | Some cb, _ -> Some cb
                         | None, Some cb ->
                             Hashtbl.remove disk c;
                             live := !live + Front.words cb;
                             Some cb
                         | None, None -> None)
                       children.(g)
                   in
                   let rows = plan.Supernodal.rows.(g) in
                   let front = Front.create rows in
                   live := !live + Front.words front;
                   if !live > !peak then peak := !live;
                   profile.(step) <- !live;
                   let m = Array.length rows in
                   let local = Hashtbl.create (2 * m) in
                   Array.iteri (fun li gi -> Hashtbl.replace local gi li) rows;
                   List.iter
                     (fun col ->
                       let lcol = Hashtbl.find local col in
                       Seq.iter
                         (fun (r, v) ->
                           if r >= col then
                             match Hashtbl.find_opt local r with
                             | Some lr ->
                                 Front.add front lr lcol v;
                                 if lr <> lcol then Front.add front lcol lr v
                             | None -> ())
                         (Tt_sparse.Csr.row a col))
                     plan.Supernodal.amal.Tt_etree.Amalgamation.groups.(g)
                       .Tt_etree.Amalgamation.members;
                   List.iter
                     (fun cb ->
                       Front.extend_add ~into:front cb;
                       live := !live - Front.words cb)
                     child_blocks;
                   List.iter (fun c -> pending.(c) <- None) children.(g);
                   let members =
                     List.sort compare
                       plan.Supernodal.amal.Tt_etree.Amalgamation.groups.(g)
                         .Tt_etree.Amalgamation.members
                   in
                   let cols, cb = Front.eliminate_pivots front (List.length members) in
                   List.iteri
                     (fun k col ->
                       let l = List.nth cols k in
                       l_cols.(col) <-
                         Array.to_list (Array.mapi (fun i v -> (rows.(k + i), v)) l))
                     members;
                   live := !live - Front.words front;
                   if Front.size cb > 0 then
                     if evicted.(g) then begin
                       Hashtbl.replace disk g cb;
                       measured_io := !measured_io + Front.words cb
                     end
                     else begin
                       live := !live + Front.words cb;
                       if !live > !peak then peak := !live;
                       pending.(g) <- Some cb
                     end)
                 schedule
             with Failure msg -> bad := Some msg);
            (match !bad with
            | Some msg -> Error msg
            | None ->
                let t = Tt_sparse.Triplet.create ~nrows:n ~ncols:n in
                Array.iteri
                  (fun col entries ->
                    List.iter (fun (r, v) -> Tt_sparse.Triplet.add t r col v) entries)
                  l_cols;
                Ok
                  { factor =
                      { Factor.l = Tt_sparse.Csr.of_triplet t;
                        peak_words = !peak;
                        profile };
                    planned_io;
                    measured_io = !measured_io;
                    peak_in_core = !peak })
      end
  end
end

(* ------------------------------------------------------------------ front *)

let test_front_ops () =
  let f = MF.Front.create [| 2; 5; 9 |] in
  Alcotest.(check int) "size" 3 (MF.Front.size f);
  Alcotest.(check int) "words" 9 (MF.Front.words f);
  MF.Front.set f 0 0 4.;
  MF.Front.add f 1 0 2.;
  MF.Front.add f 0 1 2.;
  MF.Front.set f 1 1 5.;
  MF.Front.set f 2 2 1.;
  Alcotest.(check (float 0.)) "get" 2. (MF.Front.get f 1 0)

let test_eliminate_pivot () =
  (* front [[4,2],[2,5]]: l = [2,1], schur = 5 - 1 = 4 *)
  let f = MF.Front.create [| 0; 1 |] in
  MF.Front.set f 0 0 4.;
  MF.Front.set f 1 0 2.;
  MF.Front.set f 0 1 2.;
  MF.Front.set f 1 1 5.;
  let cols, cb = MF.Front.eliminate_pivots f 1 in
  let l = List.hd cols in
  Alcotest.(check (float 1e-12)) "pivot" 2. l.(0);
  Alcotest.(check (float 1e-12)) "below" 1. l.(1);
  Alcotest.(check int) "cb size" 1 (MF.Front.size cb);
  Alcotest.(check (float 1e-12)) "schur" 4. (MF.Front.get cb 0 0)

let test_eliminate_nonspd () =
  let f = MF.Front.create [| 0 |] in
  MF.Front.set f 0 0 (-1.);
  Alcotest.check_raises "non-positive pivot"
    (Failure "Front.eliminate_pivot: non-positive pivot") (fun () ->
      ignore (MF.Front.eliminate_pivots f 1))

let test_extend_add () =
  let big = MF.Front.create [| 1; 3; 7 |] in
  let cb = MF.Front.create [| 1; 7 |] in
  MF.Front.set cb 0 0 2.;
  MF.Front.set cb 1 0 3.;
  MF.Front.set cb 0 1 3.;
  MF.Front.set cb 1 1 4.;
  MF.Front.extend_add ~into:big cb;
  Alcotest.(check (float 0.)) "scattered (1,1)" 2. (MF.Front.get big 0 0);
  Alcotest.(check (float 0.)) "scattered (7,1)" 3. (MF.Front.get big 2 0);
  Alcotest.(check (float 0.)) "scattered (7,7)" 4. (MF.Front.get big 2 2);
  Alcotest.(check (float 0.)) "untouched" 0. (MF.Front.get big 1 1);
  let bad = MF.Front.create [| 2 |] in
  Alcotest.check_raises "missing row"
    (Invalid_argument "Front.extend_add: contribution row missing from front")
    (fun () -> MF.Front.extend_add ~into:big bad)

(* ----------------------------------------------------------------- factor *)

let prop_factorization_correct =
  H.qcheck ~count:100 "L L^T reproduces A (postorder schedule)" arb_spd (fun a ->
      let sym = symbolic_of a in
      let schedule = MF.Factor.default_schedule sym in
      let r = MF.Factor.run a sym ~schedule in
      MF.Factor.residual_norm a r.MF.Factor.l < 1e-8)

let prop_factorization_any_schedule =
  H.qcheck ~count:60 "factorization correct under any topological schedule"
    (QCheck.pair arb_spd QCheck.(int_bound 1_000_000)) (fun (a, seed) ->
      let sym = symbolic_of a in
      (* random bottom-up schedule via the assembly tree *)
      let n = a.S.Csr.nrows in
      let cc = Array.init n (Tt_etree.Symbolic.col_count sym) in
      let asm = Tt_etree.Assembly.of_etree_raw ~parent:sym.Tt_etree.Symbolic.parent ~col_counts:cc in
      let rng = Tt_util.Rng.create seed in
      let out_order = Tt_core.Traversal.random_order ~rng asm.Tt_etree.Assembly.tree in
      let rev = Tt_core.Transform.reverse_traversal out_order in
      let schedule =
        if asm.Tt_etree.Assembly.virtual_root then
          Array.of_list (List.filter (fun x -> x < n) (Array.to_list rev))
        else rev
      in
      let r = MF.Factor.run a sym ~schedule in
      MF.Factor.residual_norm a r.MF.Factor.l < 1e-8)

let prop_solve =
  H.qcheck ~count:80 "solve recovers the solution" arb_spd (fun a ->
      let sym = symbolic_of a in
      let r = MF.Factor.run a sym ~schedule:(MF.Factor.default_schedule sym) in
      let n = a.S.Csr.nrows in
      let x0 = Array.init n (fun i -> float_of_int ((i mod 7) - 3)) in
      let b = S.Csr.mul_vec a x0 in
      let x = MF.Factor.solve r.MF.Factor.l b in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) x x0)

let prop_memory_matches_tree_model =
  H.qcheck ~count:100 "measured peak = tree-model peak (word for word)" arb_spd
    (fun a ->
      let sym = symbolic_of a in
      let n = a.S.Csr.nrows in
      let schedule = MF.Factor.default_schedule sym in
      let r = MF.Factor.run a sym ~schedule in
      let cc = Array.init n (Tt_etree.Symbolic.col_count sym) in
      let asm = Tt_etree.Assembly.of_etree_raw ~parent:sym.Tt_etree.Symbolic.parent ~col_counts:cc in
      let tree = asm.Tt_etree.Assembly.tree in
      let p = Tt_core.Tree.size tree in
      let order =
        if asm.Tt_etree.Assembly.virtual_root then
          Array.init p (fun k -> if k = 0 then p - 1 else schedule.(n - k))
        else Tt_core.Transform.reverse_traversal schedule
      in
      Tt_core.Traversal.peak tree order = r.MF.Factor.peak_words)

let test_schedule_validation () =
  let a = S.Csr.symmetrize_values (S.Spgen.tridiagonal 4) in
  let sym = symbolic_of a in
  Alcotest.check_raises "child after parent"
    (Invalid_argument "Factor.run: child after parent") (fun () ->
      ignore (MF.Factor.run a sym ~schedule:[| 3; 2; 1; 0 |]));
  Alcotest.check_raises "wrong length" (Invalid_argument "Factor.run: wrong schedule length")
    (fun () -> ignore (MF.Factor.run a sym ~schedule:[| 0 |]))

let test_default_schedule_is_postorder () =
  let a = S.Csr.symmetrize_values (S.Spgen.grid2d 5) in
  let sym = symbolic_of a in
  let schedule = MF.Factor.default_schedule sym in
  let seen = Array.make (Array.length schedule) false in
  Array.iter
    (fun j ->
      Array.iteri
        (fun c p -> if p = j && not seen.(c) then Alcotest.fail "child not yet done")
        sym.Tt_etree.Symbolic.parent;
      seen.(j) <- true)
    schedule

(* -------------------------------------------------------------------- ooc *)

(* On [arb_parity]'s minimum-degree-ordered matrices the budgets below
   the in-core peak make the simulator evict (in [arb_spd]'s natural
   order none of them ever did), and the case fails unless some draws
   wrote words. *)
let prop_ooc_planned_equals_measured =
  let wrote = ref 0 in
  let name, speed, run =
    H.qcheck ~count:60 "planned I/O = measured I/O; factor stays correct" arb_parity
      (fun (a, _) ->
        let sym = symbolic_of a in
        let schedule = MF.Factor.default_schedule sym in
        let full = MF.Factor.run a sym ~schedule in
        let floor = MF.Ooc_sim.min_in_core_words sym in
        List.for_all
          (fun memory_words ->
            match
              MF.Ooc_sim.run a sym ~memory_words ~policy:Tt_core.Minio.First_fit ~schedule
            with
            | Error _ -> false
            | Ok r ->
                if r.MF.Ooc_sim.measured_io > 0 then incr wrote;
                r.MF.Ooc_sim.planned_io = r.MF.Ooc_sim.measured_io
                && r.MF.Ooc_sim.peak_in_core <= memory_words
                   (* the in-core peak accounting never exceeds the budget *)
                && MF.Factor.residual_norm a r.MF.Ooc_sim.factor.MF.Factor.l < 1e-8)
          [ floor; (floor + full.MF.Factor.peak_words) / 2; full.MF.Factor.peak_words ])
  in
  ( name,
    speed,
    fun () ->
      wrote := 0;
      run ();
      if !wrote = 0 then Alcotest.fail "no draw wrote a word: the property held vacuously" )

let prop_ooc_no_io_at_full_memory =
  H.qcheck ~count:60 "no I/O when the budget covers the in-core peak" arb_parity
    (fun (a, _) ->
      let sym = symbolic_of a in
      let schedule = MF.Factor.default_schedule sym in
      let full = MF.Factor.run a sym ~schedule in
      match
        MF.Ooc_sim.run a sym ~memory_words:full.MF.Factor.peak_words
          ~policy:Tt_core.Minio.Lsnf ~schedule
      with
      | Ok r -> r.MF.Ooc_sim.measured_io = 0
      | Error _ -> false)

let test_ooc_below_floor_fails () =
  let a = S.Csr.symmetrize_values (S.Spgen.grid2d 4) in
  let sym = symbolic_of a in
  let schedule = MF.Factor.default_schedule sym in
  let floor = MF.Ooc_sim.min_in_core_words sym in
  match
    MF.Ooc_sim.run a sym ~memory_words:(floor - 1) ~policy:Tt_core.Minio.First_fit
      ~schedule
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should be infeasible below the working-set floor"

let test_grid_factorization () =
  (* larger deterministic case with an ordering pipeline *)
  let a = S.Spgen.grid2d 12 in
  let pattern = S.Csr.symmetrize_pattern a in
  let perm = Tt_ordering.Min_degree.order (Tt_ordering.Graph_adj.of_pattern pattern) in
  let a = S.Csr.permute_sym a perm in
  let sym = symbolic_of a in
  let r = MF.Factor.run a sym ~schedule:(MF.Factor.default_schedule sym) in
  Alcotest.(check bool) "residual small" true (MF.Factor.residual_norm a r.MF.Factor.l < 1e-9)


(* ------------------------------------------------------------ supernodal *)

let supernodal_setup a limit =
  let sym = symbolic_of a in
  let n = a.S.Csr.nrows in
  let cc = Array.init n (Tt_etree.Symbolic.col_count sym) in
  let amal =
    Tt_etree.Amalgamation.run ~parent:sym.Tt_etree.Symbolic.parent ~col_counts:cc
      ~limit
  in
  (sym, amal, MF.Supernodal.plan sym amal)

let prop_supernodal_front_sizes =
  H.qcheck ~count:80 "front dimension is exactly eta + mu - 1 at every level"
    arb_spd (fun a ->
      List.for_all
        (fun limit ->
          let _, amal, plan = supernodal_setup a limit in
          Array.for_all2
            (fun (g : Tt_etree.Amalgamation.group) rows ->
              Array.length rows = g.Tt_etree.Amalgamation.eta + g.Tt_etree.Amalgamation.mu - 1)
            amal.Tt_etree.Amalgamation.groups plan.MF.Supernodal.rows)
        [ 1; 4; 16 ])

let prop_supernodal_correct =
  H.qcheck ~count:60 "supernodal L L^T reproduces A at every amalgamation level"
    arb_spd (fun a ->
      List.for_all
        (fun limit ->
          let sym, _, plan = supernodal_setup a limit in
          let schedule = MF.Supernodal.default_schedule plan in
          let r = MF.Supernodal.run a sym plan ~schedule in
          MF.Factor.residual_norm a r.MF.Factor.l < 1e-8)
        [ 1; 2; 16 ])

let prop_supernodal_memory_matches_amalgamated_tree =
  H.qcheck ~count:60
    "supernodal peak = amalgamated assembly-tree model (the paper's weights)"
    arb_spd (fun a ->
      List.for_all
        (fun limit ->
          let sym, amal, plan = supernodal_setup a limit in
          let schedule = MF.Supernodal.default_schedule plan in
          let r = MF.Supernodal.run a sym plan ~schedule in
          let asm = Tt_etree.Assembly.of_amalgamation amal in
          let tree = asm.Tt_etree.Assembly.tree in
          let p = Tt_core.Tree.size tree in
          let gcount = Array.length amal.Tt_etree.Amalgamation.groups in
          let order =
            if asm.Tt_etree.Assembly.virtual_root then
              Array.init p (fun k -> if k = 0 then p - 1 else schedule.(gcount - k))
            else Tt_core.Transform.reverse_traversal schedule
          in
          Tt_core.Traversal.peak tree order = r.MF.Factor.peak_words)
        [ 1; 4; 16 ])

let test_supernodal_front_words () =
  let a = S.Csr.symmetrize_values (S.Spgen.grid2d 6) in
  let _, amal, plan = supernodal_setup a 4 in
  Array.iteri
    (fun g (grp : Tt_etree.Amalgamation.group) ->
      Alcotest.(check int) "front words = node + edge weight"
        (Tt_etree.Amalgamation.node_weight grp + Tt_etree.Amalgamation.edge_weight grp)
        (MF.Supernodal.front_words plan g))
    amal.Tt_etree.Amalgamation.groups

let test_supernodal_schedule_validation () =
  let a = S.Csr.symmetrize_values (S.Spgen.tridiagonal 6) in
  let sym, _, plan = supernodal_setup a 2 in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Supernodal.run: wrong schedule length") (fun () ->
      ignore (MF.Supernodal.run a sym plan ~schedule:[| 0 |]))


(* ------------------------------------------------------------- stack sim *)

let prop_stack_works_on_postorders =
  H.qcheck ~count:60 "the CB stack suffices exactly for postorder schedules"
    arb_spd (fun a ->
      let sym = symbolic_of a in
      let schedule = MF.Factor.default_schedule sym in
      MF.Stack_sim.is_postorder_schedule sym schedule
      &&
      match MF.Stack_sim.run a sym ~schedule with
      | Ok r ->
          let plain = MF.Factor.run a sym ~schedule in
          r.MF.Stack_sim.factor.MF.Factor.peak_words = plain.MF.Factor.peak_words
          && MF.Factor.residual_norm a r.MF.Stack_sim.factor.MF.Factor.l < 1e-8
      | Error _ -> false)

let test_stack_fails_on_interleaved_schedule () =
  (* two independent 2-column chains joined by a root; interleaving the
     chains breaks the LIFO discipline *)
  let t = S.Triplet.create ~nrows:5 ~ncols:5 in
  List.iter (fun i -> S.Triplet.add t i i 1.) [ 0; 1; 2; 3; 4 ];
  List.iter
    (fun (i, j) ->
      S.Triplet.add t i j (-0.25);
      S.Triplet.add t j i (-0.25))
    [ (0, 1); (2, 3); (1, 4); (3, 4) ];
  let a = S.Csr.symmetrize_values (S.Csr.of_triplet t) in
  let sym = symbolic_of a in
  (* interleaved: 0 2 1 3 4 -- valid bottom-up, not a postorder *)
  let schedule = [| 0; 2; 1; 3; 4 |] in
  Alcotest.(check bool) "not a postorder" false
    (MF.Stack_sim.is_postorder_schedule sym schedule);
  (match MF.Stack_sim.run a sym ~schedule with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stack discipline should break");
  (* but the plain factorization handles it fine *)
  let r = MF.Factor.run a sym ~schedule in
  Alcotest.(check bool) "plain solver fine" true
    (MF.Factor.residual_norm a r.MF.Factor.l < 1e-10);
  (* and the postorder version works on the stack *)
  let po = MF.Factor.default_schedule sym in
  Alcotest.(check bool) "postorder ok" true
    (match MF.Stack_sim.run a sym ~schedule:po with Ok _ -> true | Error _ -> false)

let test_postorder_needs_bottom_up () =
  (* elimination tree 0, 1 -> 2 -> 4 <- 3: the schedule 0 3 2 1 4 runs
     column 1 after its parent 2, yet each subtree's steps still form a
     slice that ends at its root *)
  let t = S.Triplet.create ~nrows:5 ~ncols:5 in
  List.iter (fun i -> S.Triplet.add t i i 1.) [ 0; 1; 2; 3; 4 ];
  List.iter
    (fun (i, j) ->
      S.Triplet.add t i j (-0.25);
      S.Triplet.add t j i (-0.25))
    [ (0, 2); (1, 2); (2, 4); (3, 4) ];
  let a = S.Csr.symmetrize_values (S.Csr.of_triplet t) in
  let sym = symbolic_of a in
  Alcotest.(check (array int)) "tree" [| 2; 2; 4; 4; -1 |] sym.Tt_etree.Symbolic.parent;
  let schedule = [| 0; 3; 2; 1; 4 |] in
  Alcotest.(check bool) "not a postorder" false
    (MF.Stack_sim.is_postorder_schedule sym schedule);
  Alcotest.(check bool) "the stack run fails" true
    (Result.is_error (MF.Stack_sim.run a sym ~schedule))

let prop_stack_detects_non_postorders =
  H.qcheck ~count:60 "is_postorder agrees with the LIFO simulation" arb_spd
    (fun a ->
      let sym = symbolic_of a in
      let n = a.S.Csr.nrows in
      (* random bottom-up schedule *)
      let cc = Array.init n (Tt_etree.Symbolic.col_count sym) in
      let asm =
        Tt_etree.Assembly.of_etree_raw ~parent:sym.Tt_etree.Symbolic.parent
          ~col_counts:cc
      in
      let rng = Tt_util.Rng.create 123 in
      let out_order = Tt_core.Traversal.random_order ~rng asm.Tt_etree.Assembly.tree in
      let rev = Tt_core.Transform.reverse_traversal out_order in
      let schedule =
        if asm.Tt_etree.Assembly.virtual_root then
          Array.of_list (List.filter (fun x -> x < n) (Array.to_list rev))
        else rev
      in
      let lifo_ok =
        match MF.Stack_sim.run a sym ~schedule with Ok _ -> true | Error _ -> false
      in
      lifo_ok = MF.Stack_sim.is_postorder_schedule sym schedule)


let prop_ooc_supernodal =
  H.qcheck ~count:40 "out-of-core supernodal: planned = measured, factor correct"
    arb_spd (fun a ->
      List.for_all
        (fun limit ->
          let sym, amal, plan = supernodal_setup a limit in
          let schedule = MF.Supernodal.default_schedule plan in
          let full = MF.Supernodal.run a sym plan ~schedule in
          let asm = Tt_etree.Assembly.of_amalgamation amal in
          let floor = Tt_core.Tree.max_mem_req asm.Tt_etree.Assembly.tree in
          List.for_all
            (fun memory_words ->
              match
                MF.Ooc_sim.run_supernodal a sym amal ~memory_words
                  ~policy:Tt_core.Minio.First_fit ~schedule
              with
              | Error _ -> false
              | Ok r ->
                  r.MF.Ooc_sim.planned_io = r.MF.Ooc_sim.measured_io
                  && MF.Factor.residual_norm a r.MF.Ooc_sim.factor.MF.Factor.l < 1e-8
                  && (memory_words < full.MF.Factor.peak_words
                     || r.MF.Ooc_sim.measured_io = 0))
            [ floor; full.MF.Factor.peak_words ])
        [ 1; 4 ])


let prop_supernodal_factor_equals_columnwise =
  H.qcheck ~count:40 "supernodal L = per-column L on the factor's pattern"
    arb_spd (fun a ->
      let sym, _, plan = supernodal_setup a 4 in
      let super =
        MF.Supernodal.run a sym plan
          ~schedule:(MF.Supernodal.default_schedule plan)
      in
      let plain = MF.Factor.run a sym ~schedule:(MF.Factor.default_schedule sym) in
      (* the Cholesky factor is unique: on every position of the exact
         symbolic pattern the two solvers must agree; the supernodal
         factor may additionally store explicit (near-)zeros *)
      let ok = ref true in
      Array.iteri
        (fun j s ->
          Array.iter
            (fun i ->
              let x = S.Csr.get super.MF.Factor.l i j in
              let y = S.Csr.get plain.MF.Factor.l i j in
              if Float.abs (x -. y) > 1e-8 then ok := false)
            s)
        sym.Tt_etree.Symbolic.col_struct;
      !ok)

(* ----------------------------------------------------------------- parity *)

(* The driver against the reference loops: equal peaks, profiles, I/O
   volumes, stack depths and [Error] messages, and L equal bit for bit.
   [Factor.run] used to extend-add children in descending order, so its
   L may move in the last bit. *)

let same_bits (x : S.Csr.t) (y : S.Csr.t) =
  x.S.Csr.row_ptr = y.S.Csr.row_ptr
  && x.S.Csr.col_idx = y.S.Csr.col_idx
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       x.S.Csr.values y.S.Csr.values

let near (x : S.Csr.t) (y : S.Csr.t) =
  x.S.Csr.row_ptr = y.S.Csr.row_ptr
  && x.S.Csr.col_idx = y.S.Csr.col_idx
  && Array.for_all2 (fun u v -> Float.abs (u -. v) <= 1e-12) x.S.Csr.values y.S.Csr.values

let same_factor ~eq (r : MF.Factor.result) (q : MF.Factor.result) =
  r.MF.Factor.peak_words = q.MF.Factor.peak_words
  && r.MF.Factor.profile = q.MF.Factor.profile
  && eq r.MF.Factor.l q.MF.Factor.l

let same_stack (r : MF.Stack_sim.result) (q : MF.Stack_sim.result) =
  r.MF.Stack_sim.max_stack_blocks = q.MF.Stack_sim.max_stack_blocks
  && same_factor ~eq:same_bits r.MF.Stack_sim.factor q.MF.Stack_sim.factor

let same_ooc (r : MF.Ooc_sim.result) (q : MF.Ooc_sim.result) =
  r.MF.Ooc_sim.planned_io = q.MF.Ooc_sim.planned_io
  && r.MF.Ooc_sim.measured_io = q.MF.Ooc_sim.measured_io
  && r.MF.Ooc_sim.peak_in_core = q.MF.Ooc_sim.peak_in_core
  && same_factor ~eq:same_bits r.MF.Ooc_sim.factor q.MF.Ooc_sim.factor

let same_result same r q =
  match (r, q) with
  | Ok r, Ok q -> same r q
  | Error e, Error e' -> String.equal e e'
  | _ -> false

(* Postorder, MinMem and random bottom-up schedules of the fronts of an
   assembly tree (its out-tree traversals reversed, virtual root
   dropped). *)
let schedules ~seed (asm : Tt_etree.Assembly.t) ~fronts postorder =
  let bottom_up order =
    Array.of_list
      (List.filter (fun x -> x < fronts)
         (Array.to_list (Tt_core.Transform.reverse_traversal order)))
  in
  let tree = asm.Tt_etree.Assembly.tree in
  [ ("postorder", postorder);
    ("minmem", bottom_up (snd (Tt_core.Minmem.run tree)));
    ( "random",
      bottom_up (Tt_core.Traversal.random_order ~rng:(Tt_util.Rng.create seed) tree) )
  ]

(* Below the working set, at it, halfway to the in-core peak, and at it. *)
let budgets floor peak = [ floor - 1; floor; (floor + peak) / 2; peak ]

(* The names of the runs that differ from the reference. *)
let column_mismatches ~seed a =
  let sym = symbolic_of a in
  let n = a.S.Csr.nrows in
  let cc = Array.init n (Tt_etree.Symbolic.col_count sym) in
  let asm =
    Tt_etree.Assembly.of_etree_raw ~parent:sym.Tt_etree.Symbolic.parent ~col_counts:cc
  in
  let postorder = Ref.Factor.default_schedule sym in
  let bad = ref [] in
  let expect what ok = if not ok then bad := what :: !bad in
  expect "default schedule" (MF.Factor.default_schedule sym = postorder);
  List.iter
    (fun (name, schedule) ->
      let full = Ref.Factor.run a sym ~schedule in
      expect (name ^ ": factor")
        (same_factor ~eq:near (MF.Factor.run a sym ~schedule) full);
      expect (name ^ ": stack")
        (same_result same_stack (MF.Stack_sim.run a sym ~schedule)
           (Ref.Stack_sim.run a sym ~schedule));
      List.iter
        (fun memory_words ->
          List.iter
            (fun (policy_name, policy) ->
              expect
                (Printf.sprintf "%s: ooc %s M=%d" name policy_name memory_words)
                (same_result same_ooc
                   (MF.Ooc_sim.run a sym ~memory_words ~policy ~schedule)
                   (Ref.Ooc_sim.run a sym ~memory_words ~policy ~schedule)))
            Tt_core.Minio.all_policies)
        (budgets (MF.Ooc_sim.min_in_core_words sym) full.MF.Factor.peak_words))
    (schedules ~seed asm ~fronts:n postorder);
  List.rev !bad

let supernodal_mismatches ~seed a =
  let bad = ref [] in
  let expect what ok = if not ok then bad := what :: !bad in
  List.iter
    (fun limit ->
      let sym, amal, plan = supernodal_setup a limit in
      let asm = Tt_etree.Assembly.of_amalgamation amal in
      let fronts = Array.length plan.MF.Supernodal.parent in
      let postorder = Ref.Supernodal.default_schedule plan in
      expect
        (Printf.sprintf "limit %d: default schedule" limit)
        (MF.Supernodal.default_schedule plan = postorder);
      List.iter
        (fun (name, schedule) ->
          let full = Ref.Supernodal.run a sym plan ~schedule in
          expect
            (Printf.sprintf "limit %d, %s: supernodal" limit name)
            (same_factor ~eq:same_bits (MF.Supernodal.run a sym plan ~schedule) full);
          List.iter
            (fun memory_words ->
              List.iter
                (fun (policy_name, policy) ->
                  expect
                    (Printf.sprintf "limit %d, %s: ooc %s M=%d" limit name policy_name
                       memory_words)
                    (same_result same_ooc
                       (MF.Ooc_sim.run_supernodal a sym amal ~memory_words ~policy
                          ~schedule)
                       (Ref.Ooc_sim.run_supernodal a sym amal ~memory_words ~policy
                          ~schedule)))
                Tt_core.Minio.all_policies)
            (budgets
               (Tt_core.Tree.max_mem_req asm.Tt_etree.Assembly.tree)
               full.MF.Factor.peak_words))
        (schedules ~seed asm ~fronts postorder))
    [ 1; 2; 4; 16 ];
  List.rev !bad

let prop_columns_match_reference =
  H.qcheck ~count:40 "per-column runs equal the reference loops" arb_parity
    (fun (a, seed) -> column_mismatches ~seed a = [])

let prop_supernodes_match_reference =
  H.qcheck ~count:25 "supernodal runs equal the reference loops" arb_parity
    (fun (a, seed) -> supernodal_mismatches ~seed a = [])

let test_grids_match_reference () =
  List.iter
    (fun (name, a) ->
      let a = S.Csr.symmetrize_values a in
      let mindeg =
        S.Csr.permute_sym a
          (Tt_ordering.Min_degree.order
             (Tt_ordering.Graph_adj.of_pattern (S.Csr.symmetrize_pattern a)))
      in
      List.iter
        (fun (order, a) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s, %s order" name order)
            [] (column_mismatches ~seed:3 a @ supernodal_mismatches ~seed:3 a))
        [ ("natural", a); ("minimum-degree", mindeg) ])
    [ ("grid2d 8", S.Spgen.grid2d 8);
      ("grid2d_9pt 6", S.Spgen.grid2d_9pt 6);
      ("grid3d 4", S.Spgen.grid3d 4)
    ]

let test_non_postorder_stack_error () =
  (* two 2-column chains joined by a root, run with the chains
     interleaved: a bottom-up schedule that is not a postorder *)
  let t = S.Triplet.create ~nrows:5 ~ncols:5 in
  List.iter (fun i -> S.Triplet.add t i i 1.) [ 0; 1; 2; 3; 4 ];
  List.iter
    (fun (i, j) ->
      S.Triplet.add t i j (-0.25);
      S.Triplet.add t j i (-0.25))
    [ (0, 1); (2, 3); (1, 4); (3, 4) ];
  let a = S.Csr.symmetrize_values (S.Csr.of_triplet t) in
  let sym = symbolic_of a in
  let schedule = [| 0; 2; 1; 3; 4 |] in
  let error_of = function Ok _ -> "Ok" | Error e -> e in
  let expected =
    "stack discipline violated at column 1: top block belongs to column 2 (schedule \
     is not a postorder)"
  in
  Alcotest.(check string) "reference" expected (error_of (Ref.Stack_sim.run a sym ~schedule));
  Alcotest.(check string) "driver" expected (error_of (MF.Stack_sim.run a sym ~schedule))

let test_ooc_invalid_schedules () =
  let a = S.Csr.symmetrize_values (S.Spgen.grid2d 4) in
  let sym, amal, plan = supernodal_setup a 2 in
  let invalid s =
    let k = Array.length s in
    let duplicated = Array.copy s in
    duplicated.(k - 1) <- s.(0);
    [ ("reversed", Tt_core.Transform.reverse_traversal s, "child after parent");
      ("duplicated", duplicated, "bad schedule entry");
      ("short", Array.sub s 0 (k - 1), "wrong schedule length")
    ]
  in
  let error_of = function Ok _ -> "Ok" | Error e -> e in
  let policy = Tt_core.Minio.First_fit in
  let schedule = MF.Factor.default_schedule sym in
  let memory_words = (MF.Factor.run a sym ~schedule).MF.Factor.peak_words in
  List.iter
    (fun (name, schedule, msg) ->
      Alcotest.(check string) ("run, " ^ name) msg
        (error_of (MF.Ooc_sim.run a sym ~memory_words ~policy ~schedule)))
    (invalid schedule);
  let schedule = MF.Supernodal.default_schedule plan in
  let memory_words = (MF.Supernodal.run a sym plan ~schedule).MF.Factor.peak_words in
  List.iter
    (fun (name, schedule, msg) ->
      Alcotest.(check string) ("run_supernodal, " ^ name) msg
        (error_of (MF.Ooc_sim.run_supernodal a sym amal ~memory_words ~policy ~schedule)))
    (invalid schedule)

let () =
  H.run "multifrontal"
    [ ( "front",
        [ H.case "ops" test_front_ops;
          H.case "eliminate pivot" test_eliminate_pivot;
          H.case "non-SPD pivot" test_eliminate_nonspd;
          H.case "extend-add" test_extend_add
        ] );
      ( "factorization",
        [ prop_factorization_correct;
          prop_factorization_any_schedule;
          prop_solve;
          H.case "grid with ordering" test_grid_factorization;
          H.case "schedule validation" test_schedule_validation;
          H.case "default schedule" test_default_schedule_is_postorder
        ] );
      ("memory model", [ prop_memory_matches_tree_model ]);
      ( "supernodal",
        [ prop_supernodal_front_sizes;
          prop_supernodal_correct;
          prop_supernodal_memory_matches_amalgamated_tree;
          H.case "front words = paper weights" test_supernodal_front_words;
          prop_ooc_supernodal;
          prop_supernodal_factor_equals_columnwise;
          H.case "schedule validation" test_supernodal_schedule_validation
        ] );
      ( "stack",
        [ prop_stack_works_on_postorders;
          H.case "interleaved schedule breaks LIFO" test_stack_fails_on_interleaved_schedule;
          prop_stack_detects_non_postorders;
          H.case "a child after its parent is not a postorder"
            test_postorder_needs_bottom_up
        ] );
      ( "out of core",
        [ prop_ooc_planned_equals_measured;
          prop_ooc_no_io_at_full_memory;
          H.case "below floor" test_ooc_below_floor_fails;
          H.case "invalid schedules give Error" test_ooc_invalid_schedules
        ] );
      ( "parity",
        [ prop_columns_match_reference;
          prop_supernodes_match_reference;
          H.case "grids, natural and minimum-degree" test_grids_match_reference;
          H.case "non-postorder gives the stack error" test_non_postorder_stack_error
        ] )
    ]

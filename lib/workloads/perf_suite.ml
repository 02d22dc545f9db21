open Tt_core

type mode = Quick | Full

let default_reps = function Quick -> 3 | Full -> 5

(* --- result payloads ----------------------------------------------------
   Each kernel run is reduced to a canonical string capturing its full
   result (not just the scalar), so the benchmark digests double as
   parity witnesses between PRs: any behavioural change to a kernel
   flips the digest even when it does not change the optimum. *)

let buf_ints buf a =
  Array.iter (fun v -> Buffer.add_string buf (string_of_int v); Buffer.add_char buf ';') a

let payload_mem_order (mem, order) =
  let buf = Buffer.create (8 * Array.length order) in
  Buffer.add_string buf (Printf.sprintf "mem=%d\norder=" mem);
  buf_ints buf order;
  Buffer.contents buf

let payload_schedule tree = function
  | None -> "infeasible"
  | Some (s : Io_schedule.t) ->
      let buf = Buffer.create (8 * Array.length s.Io_schedule.tau) in
      Buffer.add_string buf
        (Printf.sprintf "io=%d\ntau=" (Io_schedule.io_volume tree s));
      buf_ints buf s.Io_schedule.tau;
      Buffer.contents buf

let payload_lb = function
  | None -> "infeasible"
  | Some v -> Printf.sprintf "lb=%.9f" v

(* the validator's verdict on a schedule, with the makespan it checked
   against the replay and the replayed peak *)
let payload_validate verdict ~makespan ~peak =
  Printf.sprintf "verdict=%s\nmakespan=%d\npeak=%d"
    (match verdict with
    | Ok () -> "ok"
    | Error v -> Tt_sched.Validate.violation_to_string v)
    makespan peak

let payload_parallel = function
  | None -> "infeasible"
  | Some (s : Parallel.schedule) ->
      let buf = Buffer.create (16 * Array.length s.Parallel.events) in
      Buffer.add_string buf
        (Printf.sprintf "makespan=%d\npeak=%d\nevents=" s.Parallel.makespan
           s.Parallel.peak_memory);
      Array.iter
        (fun (e : Parallel.event) ->
          Buffer.add_string buf
            (Printf.sprintf "%d@%d:%d-%d;" e.Parallel.node e.Parallel.proc
               e.Parallel.start e.Parallel.finish))
        s.Parallel.events;
      Buffer.contents buf

(* --- instances ----------------------------------------------------------
   All deterministic: fixed seeds, weights derived from node indices.
   Uniform weights collapse Liu profiles to a couple of segments, which
   hides the profile-calculus cost entirely, so the chain and binary
   families re-weight nodes with a cheap index hash. *)

let hash_weight i m = 1 + (i * 2654435761) land max_int mod m

let reweight ~max_f t =
  Tree.map_weights ~f:(fun i -> hash_weight i max_f) ~n:(fun i -> hash_weight (i + 1) 7 - 1) t

let chain_stair p = reweight ~max_f:4093 (Instances.chain ~length:p ~f:1 ~n:0)

let binary_rand levels =
  reweight ~max_f:4093 (Instances.complete_binary ~levels ~f:1 ~n:0)

let star_flat branches = Instances.star ~branches ~f_root:3 ~f_leaf:7 ~n:5

let harpoon_deep ~branches ~levels =
  Instances.harpoon_nested ~branches ~levels ~m:(1024 * branches) ~eps:3

(* uniform leaf files make every eviction policy pick the same victims;
   re-weighting splits the six policies into distinct schedules *)
let caterpillar ~length ~leaves =
  reweight ~max_f:251 (Instances.caterpillar ~length ~leaves_per_node:leaves ~f:7 ~n:3)

(* a star whose even leaves carry a 10^6-word execution file: the heavy
   leaves rank first for the greedy scheduler but few fit at once, so
   each completion event passes over most of the ready list *)
let half_heavy_star leaves =
  let t = star_flat leaves in
  Tree.map_weights
    ~f:(fun i -> t.Tree.f.(i))
    ~n:(fun i -> if i > 0 && i mod 2 = 0 then 1_000_000 else t.Tree.n.(i))
    t

let random_tree ~seed ~size =
  Tree.random ~rng:(Tt_util.Rng.create seed) ~size ~max_f:1000 ~max_n:50

(* MinIO needs a traversal whose peak exceeds the trivial floor, plus a
   memory level strictly between the two so that deficit events actually
   fire. Seeded random traversals leave many files pending (BFS turns
   out to execute leaves promptly on these families, closing the gap),
   so that is what the suite uses. *)
let minio_setup ?(order_seed = 0) tree =
  let order =
    if order_seed = 0 then Traversal.top_down_order tree
    else Traversal.random_order ~rng:(Tt_util.Rng.create order_seed) tree
  in
  let floor = Tree.max_mem_req tree in
  let peak = Traversal.peak tree order in
  let memory = floor + ((peak - floor + 3) / 4) in
  (order, memory)

let policy_slug name =
  String.map (function ' ' -> '-' | c -> Char.lowercase_ascii c) name

type sized = { name : string; tree : Tree.t Lazy.t }

let sized name builder = { name; tree = Lazy.from_fun builder }

let corpus_instances mode =
  let seed = 42 in
  let all = Dataset.small_corpus ~seed in
  let by_size =
    List.sort
      (fun (a : Dataset.instance) b -> compare (Tree.size b.tree) (Tree.size a.tree))
      all
  in
  let take = match mode with Quick -> 1 | Full -> 2 in
  List.filteri (fun i _ -> i < take) by_size
  |> List.map (fun (inst : Dataset.instance) ->
         { name = "corpus/" ^ inst.name; tree = Lazy.from_val inst.tree })

(* --- Fig. 7 mix -------------------------------------------------------------
   The paper's MinIO evaluation as one row: every scale-1 corpus tree
   (corpus seed 42) along its MinMem traversal, the six policies at the
   four Fig. 7 budgets, positions 0, 1/4, 1/2 and 3/4 of the gap between
   the working-set floor and the in-core optimum (the engine's
   [budget=P%]). On most trees the gap is empty and the traversal fits,
   so the row weighs the in-core shortcut against the deficit runs the
   [minio/<policy>] rows time alone. The corpus and its MinMem orders
   are built once, outside the timed runs; the payload is every I/O
   volume, tree by tree. Same corpus in both modes. *)

let fig7_fractions = [ 0.0; 0.25; 0.5; 0.75 ]

let fig7_spec () =
  let corpus = lazy (Dataset.corpus ~scale:1 ~seed:42 ()) in
  let cases =
    lazy
      (List.map
         (fun (inst : Dataset.instance) ->
           let t = inst.tree in
           let in_core, order = Minmem.run t in
           let floor = Tree.max_mem_req t in
           let budgets =
             List.map
               (fun x -> floor + int_of_float (x *. float_of_int (in_core - floor)))
               fig7_fractions
           in
           (inst.name, t, order, budgets))
         (Lazy.force corpus))
  in
  {
    Tt_profile.Microbench.kernel = "minio/fig7";
    instance = "corpus";
    p =
      List.fold_left
        (fun a (i : Dataset.instance) -> a + Tree.size i.tree)
        0 (Lazy.force corpus);
    max_reps = 0;
    run =
      (fun () ->
        let buf = Buffer.create 65536 in
        List.iter
          (fun (name, t, order, budgets) ->
            Buffer.add_string buf name;
            Buffer.add_char buf ':';
            List.iter
              (fun memory ->
                List.iter
                  (fun (_, policy) ->
                    (match Minio.io_volume t ~memory ~order policy with
                    | Some io -> Buffer.add_string buf (string_of_int io)
                    | None -> Buffer.add_string buf "infeasible");
                    Buffer.add_char buf ';')
                  Minio.all_policies)
              budgets;
            Buffer.add_char buf '\n')
          (Lazy.force cases);
        Buffer.contents buf);
  }

(* --- huge family --------------------------------------------------------
   Instances at p = 1M (both modes) and 10M (full mode), generated by
   the streaming [Huge] generators and measured once each
   ([max_reps = 1] — a 10M kernel run is tens of seconds). Instances are
   rebuilt inside each run rather than shared: rebuilding is O(p) and
   near-free next to the kernels, and it keeps at most one ~400 MB
   instance live at a time instead of retaining all of them across the
   whole suite. The [huge/gen] row measures generation alone so the
   rebuild overhead of the other rows is visible in the report. *)

let huge_gap_threshold = 0.05
(* pinned: [huge/minmem-approx] fails outright — and with it perf-smoke
   in CI — if a certified gap ever exceeds this *)

let huge_seed = 1201

let huge_family mode =
  let sizes =
    match mode with
    | Quick -> [ ("1m", 1_000_000) ]
    | Full -> [ ("1m", 1_000_000); ("10m", 10_000_000) ]
  in
  let families =
    [
      ("caterpillar", fun ~p ~seed -> Huge.caterpillar ~p ~seed ());
      ("binary", fun ~p ~seed -> Huge.binary ~p ~seed ());
      ("random", fun ~p ~seed -> Huge.random_attach ~p ~seed ());
    ]
  in
  List.concat_map
    (fun (tag, p) ->
      List.concat_map
        (fun (fam, build) ->
          let name = Printf.sprintf "%s-%s" fam tag in
          let instance () = build ~p ~seed:huge_seed in
          let hspec kernel run : Tt_profile.Microbench.spec =
            {
              Tt_profile.Microbench.kernel = "huge/" ^ kernel;
              instance = name;
              p;
              max_reps = 1;
              run;
            }
          in
          [
            hspec "gen" (fun () ->
                Printf.sprintf "digest=%s" (Flat_tree.digest (instance ())));
            hspec "postorder" (fun () ->
                let peak, order = Postorder_opt.run (instance ()) in
                Printf.sprintf "mem=%d\norder_digest=%s" peak
                  (Flat_tree.digest_ints order));
            hspec "minmem-approx" (fun () ->
                let b = Minmem_approx.run (instance ()) in
                let gap = Minmem_approx.gap b in
                if gap > huge_gap_threshold then
                  failwith
                    (Printf.sprintf
                       "huge/minmem-approx %s: certified gap %.4f exceeds the \
                        pinned threshold %.2f"
                       name gap huge_gap_threshold);
                Printf.sprintf
                  "lower=%d\nupper=%d\ngap=%.6f\nrounds=%d\nexact=%b\n\
                   order_digest=%s"
                  b.Minmem_approx.lower b.Minmem_approx.upper gap
                  b.Minmem_approx.rounds b.Minmem_approx.exact
                  (Flat_tree.digest_ints b.Minmem_approx.order));
          ])
        families)
    sizes

(* --- pipeline family -------------------------------------------------------
   Minimum-degree ordering, the symbolic pipeline's costliest stage, on
   three corpus matrices (scale 1, the corpus seed): [rand-1500-3.5],
   whose elimination graph turns into one clique, [arrow-1200], whose
   dense border rows meet every pivot, and the 3-D grid [grid3d-10].
   Same sizes in both modes; the payload is the permutation. *)

let pipeline_family () =
  let matrices = lazy (Dataset.matrices ~seed:42 ()) in
  List.map
    (fun name ->
      let graph =
        lazy
          (Tt_ordering.Graph_adj.of_pattern
             (Tt_sparse.Csr.symmetrize_pattern (List.assoc name (Lazy.force matrices))))
      in
      {
        Tt_profile.Microbench.kernel = "pipeline/mindeg";
        instance = name;
        p = (Lazy.force graph).Tt_ordering.Graph_adj.n;
        max_reps = 0;
        run =
          (fun () ->
            let buf = Buffer.create 8192 in
            buf_ints buf (Tt_ordering.Min_degree.order (Lazy.force graph));
            Buffer.contents buf);
      })
    [ "rand-1500-3.5"; "arrow-1200"; "grid3d-10" ]

let specs mode =
  let quick = mode = Quick in
  let chain = sized "chain-stair" (fun () -> chain_stair (if quick then 2_000 else 40_000)) in
  let binary = sized "binary-rand" (fun () -> binary_rand (if quick then 10 else 17)) in
  let star = sized "star" (fun () -> star_flat (if quick then 5_000 else 200_000)) in
  let star_mm = sized "star-mm" (fun () -> star_flat (if quick then 2_000 else 30_000)) in
  (* harpoon_nested is exponential in [levels]: b=2, L=14 is ~1e5 nodes *)
  let harpoon =
    sized "harpoon-deep" (fun () ->
        if quick then harpoon_deep ~branches:2 ~levels:6
        else harpoon_deep ~branches:2 ~levels:14)
  in
  let cat =
    sized "caterpillar" (fun () ->
        if quick then caterpillar ~length:600 ~leaves:4
        else caterpillar ~length:10_000 ~leaves:4)
  in
  let rand =
    sized "random" (fun () -> random_tree ~seed:7 ~size:(if quick then 3_000 else 60_000))
  in
  (* the schedulers re-run MinMem per call, so the sched family gets its
     own (smaller) instances rather than the 60k-node ones above *)
  let sched_rand =
    sized "sched-random" (fun () ->
        random_tree ~seed:19 ~size:(if quick then 1_500 else 15_000))
  in
  let sched_cat =
    sized "sched-caterpillar" (fun () ->
        if quick then caterpillar ~length:200 ~leaves:3
        else caterpillar ~length:2_000 ~leaves:3)
  in
  let sched_star =
    sized "sched-star" (fun () -> half_heavy_star (if quick then 8_000 else 64_000))
  in
  let corpus = corpus_instances mode in
  let spec kernel inst run : Tt_profile.Microbench.spec =
    {
      Tt_profile.Microbench.kernel;
      instance = inst.name;
      p = Tree.size (Lazy.force inst.tree);
      max_reps = 0;
      run;
    }
  in
  let on inst kernel f = spec kernel inst (fun () -> f (Lazy.force inst.tree)) in
  let postorder inst = on inst "postorder" (fun t -> payload_mem_order (Postorder_opt.run t)) in
  let liu inst = on inst "liu" (fun t -> payload_mem_order (Liu_exact.run t)) in
  let minmem inst = on inst "minmem" (fun t -> payload_mem_order (Minmem.run t)) in
  (* the payload is the encoding itself: its digest pins the bytes every
     content address (Job.id) is computed from *)
  let encode inst = on inst "tree/encode" Tree.to_string in
  let minio_family ?order_seed inst =
    (* order/memory setup is deterministic per instance; share it across
       the six policies so their timings are comparable *)
    let setup =
      Lazy.from_fun (fun () -> minio_setup ?order_seed (Lazy.force inst.tree))
    in
    List.map
      (fun (name, policy) ->
        spec
          ("minio/" ^ policy_slug name)
          inst
          (fun () ->
            let tree = Lazy.force inst.tree in
            let order, memory = Lazy.force setup in
            payload_schedule tree (Minio.run tree ~memory ~order policy)))
      Minio.all_policies
    @ [
        spec "divisible-lb" inst (fun () ->
            let tree = Lazy.force inst.tree in
            let order, memory = Lazy.force setup in
            payload_lb (Minio.divisible_lower_bound tree ~memory ~order));
      ]
  in
  let sched_family ?(pareto = true) inst =
    (* one MinMem run shared by the kernels that schedule along it, so
       the timings isolate the schedulers from the order computation;
       [validate] checks the booking schedule against its activation
       order, as the serving path does *)
    let procs = 4 in
    let setup =
      Lazy.from_fun (fun () ->
          let t = Lazy.force inst.tree in
          let mem, order = Minmem.run t in
          (t, Tt_sched.Work.default t, mem, order))
    in
    let booked =
      Lazy.from_fun (fun () ->
          let t, work, mem, order = Lazy.force setup in
          Option.get (Parallel.booking_schedule ~order t ~procs ~memory:mem ~work))
    in
    [
      spec "sched/greedy" inst (fun () ->
          let t, work, mem, _ = Lazy.force setup in
          payload_parallel (Parallel.list_schedule t ~procs ~memory:(mem * 3 / 2) ~work));
      spec "sched/booking" inst (fun () ->
          let t, work, mem, order = Lazy.force setup in
          payload_parallel (Parallel.booking_schedule ~order t ~procs ~memory:mem ~work));
      spec "sched/split" inst (fun () ->
          let t, work, _, _ = Lazy.force setup in
          payload_parallel (Some (Tt_sched.Split.run t ~procs ~work)));
      spec "sched/validate" inst (fun () ->
          let t, work, mem, order = Lazy.force setup in
          let s = Lazy.force booked in
          payload_validate
            (Tt_sched.Validate.check ~activation:order t ~memory:mem ~work s)
            ~makespan:s.Parallel.makespan
            ~peak:(Tt_sched.Validate.peak_usage t s));
    ]
    @
    if pareto then
      [
        spec "sched/pareto" inst (fun () ->
            let t, work, _, _ = Lazy.force setup in
            Tt_sched.Pareto.(render (sweep ~steps:4 t ~procs ~work)));
      ]
    else []
  in
  List.concat
    [
      List.map postorder [ chain; binary; star; harpoon; cat; rand ];
      List.map liu ([ chain; binary; star; harpoon ] @ corpus);
      List.map minmem ([ star_mm; harpoon ] @ corpus);
      List.map encode (rand :: corpus);
      minio_family ~order_seed:13 cat;
      minio_family ~order_seed:11 rand;
      [ fig7_spec () ];
      sched_family sched_cat;
      sched_family sched_rand;
      sched_family ~pareto:false sched_star;
      pipeline_family ();
      huge_family mode;
    ]

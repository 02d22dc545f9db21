(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md for the experiment index), plus the
   ablations, on the synthetic assembly-tree corpus. Run with

     dune exec bench/main.exe -- [--scale N] [--seed N] [--section NAME]*
                                 [--jobs N] [--telemetry FILE] [--cache-dir DIR]
                                 [--list]

   Sections: theorem1 theorem2 fig5 table1 fig6 fig7 fig8 fig9 table2
             ablation-child-order ablation-bestk rounds all (default).
   Sections run in the order given and may repeat: a repeated section
   demonstrates the engine's result cache (the second run is all hits).

   The corpus sweeps of fig6/fig7/fig9/parallel go through the
   tt_engine batch executor: [--jobs N] runs them on N domains,
   [--telemetry FILE] records per-job JSONL events, [--cache-dir DIR]
   persists solver results across invocations. Solver results are
   independent of --jobs; each engine section prints a results digest
   to make that checkable. *)

module T = Tt_core.Tree
module P = Tt_profile.Perf_profile
module Plot = Tt_profile.Ascii_plot
module Table = Tt_profile.Table
module Job = Tt_engine.Job
module Executor = Tt_engine.Executor

let scale = ref 1
let seed = ref 42
let sections : string list ref = ref []
let csv_dir : string option ref = ref None
let jobs = ref 1
let telemetry_path : string option ref = ref None
let cache_dir : string option ref = ref None
let faults_spec : string option ref = ref None
let retries = ref 0
let resume_path : string option ref = ref None
let perf_out = ref "BENCH_CORE.json"
let perf_quick = ref false
let perf_reps = ref 0

let usage = "dune exec bench/main.exe -- [options]"

let spec =
  [ ("--scale", Arg.Set_int scale, "N corpus scale factor (default 1)");
    ("--seed", Arg.Set_int seed, "N corpus seed (default 42)");
    ( "--section",
      Arg.String (fun s -> sections := s :: !sections),
      "NAME run only this section (repeatable, in order)" );
    ( "--jobs",
      Arg.Set_int jobs,
      "N engine domains for the corpus sweeps (default 1; 0 = auto)" );
    ( "--telemetry",
      Arg.String (fun f -> telemetry_path := Some f),
      "FILE record engine JSONL telemetry to FILE" );
    ( "--cache-dir",
      Arg.String (fun d -> cache_dir := Some d),
      "DIR persist engine results to DIR (shared across runs)" );
    ( "--faults",
      Arg.String (fun s -> faults_spec := Some s),
      "SPEC inject deterministic faults into the engine sweeps, e.g. \
       crash=0.3,seed=7 (digests must still match the fault-free run)" );
    ( "--retries",
      Arg.Set_int retries,
      "N retry crashed/fault-injected jobs up to N times (default 0)" );
    ( "--resume",
      Arg.String (fun f -> resume_path := Some f),
      "FILE journal engine results to FILE and skip jobs it already \
       records (crash-resumable benches; keyed by --scale/--seed)" );
    ( "--perf",
      Arg.Unit (fun () -> sections := "perf" :: !sections),
      " run the core-kernel perf section (writes BENCH_CORE.json)" );
    ( "--perf-out",
      Arg.Set_string perf_out,
      "FILE output path of the perf section (default BENCH_CORE.json)" );
    ("--perf-quick", Arg.Set perf_quick, " perf section: CI-smoke sizes instead of paper-scale");
    ( "--perf-reps",
      Arg.Set_int perf_reps,
      "N perf section: timed repetitions per kernel (default 5 full / 3 quick)" );
    ( "--csv",
      Arg.String (fun d -> csv_dir := Some d),
      "DIR also write every figure's curves as CSV files into DIR" );
    ( "--list",
      Arg.Unit
        (fun () ->
          print_endline
            "theorem1 theorem2 fig5 table1 fig6 fig7 fig8 fig9 table2 \
             ablation-child-order ablation-bestk ablation-amalgamation minio-gap parallel sched rounds serve cluster nemesis perf";
          exit 0),
      " list sections" )
  ]

(* ----------------------------------------------------------------- engine *)

let telemetry_sink = lazy (Option.map Tt_engine.Telemetry.to_file !telemetry_path)

let faults =
  lazy
    (match !faults_spec with
    | None -> None
    | Some spec -> (
        match Tt_engine.Fault.of_string spec with
        | Ok f -> Some f
        | Error e ->
            Printf.eprintf "--faults %s: %s\n" spec e;
            exit 2))

(* The journal is keyed by the corpus parameters: a journal written at
   one --scale/--seed must not satisfy jobs from another. *)
let journal_state =
  lazy
    (match !resume_path with
    | None -> None
    | Some path -> (
        let corpus =
          Digest.to_hex
            (Digest.string (Printf.sprintf "bench:scale=%d:seed=%d" !scale !seed))
        in
        match Tt_engine.Journal.load_or_create path ~corpus with
        | Ok (j, completed) -> Some (j, completed)
        | Error e ->
            Printf.eprintf "--resume %s: %s\n" path e;
            exit 2))

let engine =
  lazy
    (let domains = if !jobs = 0 then Executor.default_domains () else !jobs in
     let faults = Lazy.force faults in
     let retry =
       if !retries = 0 then Tt_engine.Retry.none
       else Tt_engine.Retry.create ~retries:!retries ()
     in
     let journal = Option.map fst (Lazy.force journal_state) in
     let completed = Option.map snd (Lazy.force journal_state) in
     Executor.create ~domains
       ~cache:(Tt_engine.Cache.create ?persist:!cache_dir ?faults ())
       ?telemetry:(Lazy.force telemetry_sink) ?faults ~retry ?journal
       ?completed ())

(* Run a batch and print the one-line execution summary every engine
   section shares. *)
let run_engine_batch jobs =
  let exec = Lazy.force engine in
  let reports, summary = Executor.run_batch exec jobs in
  Printf.printf
    "[engine] %d jobs on %d domain(s) in %.2fs (utilization %.0f%%), cache: %d hits / %d misses%s\n"
    summary.Executor.jobs (Executor.domains exec) summary.Executor.wall
    (100. *. Executor.utilization summary)
    summary.Executor.cache_hits summary.Executor.cache_misses
    ((if summary.Executor.retries > 0 then
        Printf.sprintf ", %d retries" summary.Executor.retries
      else "")
    ^ (if summary.Executor.resumed > 0 then
         Printf.sprintf ", %d resumed" summary.Executor.resumed
       else "")
    ^
    if summary.Executor.errors > 0 then
      Printf.sprintf ", %d ERRORS" summary.Executor.errors
    else "");
  (reports, summary)

(* Digest of the solver results only (no timings), so `--jobs 1` and
   `--jobs N` output — and fault-free vs fault-injected-with-retries
   runs — can be checked for equality. *)
let results_digest (reports : Executor.report array) =
  String.sub (Executor.results_digest reports) 0 16

let print_digest reports =
  Printf.printf "results digest: %s (identical for any --jobs value)\n"
    (results_digest reports)

let maybe_csv name curves =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      output_string oc (P.to_csv curves);
      close_out oc;
      Printf.printf "[csv] wrote %s\n" path

let header name descr =
  Printf.printf "\n==================================================================\n";
  Printf.printf "== %s — %s\n" name descr;
  Printf.printf "==================================================================\n%!"

(* ----------------------------------------------------------------- corpus *)

let corpus =
  lazy
    (let t0 = Sys.time () in
     let c = Tt_workloads.Dataset.corpus ~scale:!scale ~seed:!seed () in
     Printf.printf "[corpus] %d assembly trees (scale %d, seed %d) built in %.1fs\n%!"
       (List.length c) !scale !seed (Sys.time () -. t0);
     c)

(* opt/po memory for every instance, computed once *)
let memory_results =
  lazy
    (List.map
       (fun (i : Tt_workloads.Dataset.instance) ->
         let po = Tt_core.Postorder_opt.best_memory i.tree in
         let opt = Tt_core.Liu_exact.min_memory i.tree in
         (i, po, opt))
       (Lazy.force corpus))

(* ------------------------------------------------------------- Theorem 1 *)

let theorem1 () =
  header "Theorem 1 (Fig. 3)" "best postorder is arbitrarily worse than optimal";
  let b = 3 and m = 300 and eps = 1 in
  let rows =
    List.map
      (fun levels ->
        let tree = Tt_core.Instances.harpoon_nested ~branches:b ~levels ~m ~eps in
        let po = Tt_core.Postorder_opt.best_memory tree in
        let opt = Tt_core.Liu_exact.min_memory tree in
        let predicted_po = m + eps + (levels * (b - 1) * (m / b)) in
        [ string_of_int levels;
          string_of_int (T.size tree);
          string_of_int po;
          string_of_int predicted_po;
          string_of_int opt;
          Printf.sprintf "%.3f" (float_of_int po /. float_of_int opt)
        ])
      [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  print_string
    (Table.render
       ~header:[ "L"; "nodes"; "PostOrder"; "paper formula"; "optimal"; "ratio" ]
       rows);
  Printf.printf
    "shape check: PostOrder grows linearly in L while the optimum stays ~%d;\n\
     the ratio is unbounded, as Theorem 1 states (paper formula: M+eps+L(b-1)M/b).\n"
    (m + (2 * b * eps))

(* ------------------------------------------------------------- Theorem 2 *)

let theorem2 () =
  header "Theorem 2 (Fig. 4)" "MinIO is NP-complete: the 2-Partition gadget";
  let demo name a expect_part =
    let tree, memory, bound = Tt_core.Instances.two_partition_gadget a in
    let exact = Tt_core.Brute_force.min_io tree ~memory in
    let _, order = Tt_core.Minmem.run tree in
    let ff = Tt_core.Minio.io_volume tree ~memory ~order Tt_core.Minio.First_fit in
    Printf.printf
      "%s: a = [%s]  M = %d, I/O bound S/2 = %d -> exact min I/O = %s, First Fit = %s\n"
      name
      (String.concat "; " (Array.to_list (Array.map string_of_int a)))
      memory bound
      (match exact with Some io -> string_of_int io | None -> "infeasible")
      (match ff with Some io -> string_of_int io | None -> "infeasible");
    (match (exact, expect_part) with
    | Some io, true when io = bound -> print_endline "  => partition exists: bound met"
    | Some io, false when io > bound ->
        print_endline "  => no partition: bound unreachable, exactly as the reduction predicts"
    | _ -> print_endline "  => UNEXPECTED (see tests)")
  in
  demo "yes-instance" [| 2; 1; 1 |] true;
  demo "yes-instance" [| 4; 1; 3 |] true;
  demo "no-instance " [| 10; 3; 3 |] false;
  demo "no-instance " [| 12; 3; 3 |] false

(* ------------------------------------------------------- Fig. 5 / Table I *)

let fig5_table1 () =
  header "Figure 5 + Table I" "memory of the best postorder vs the optimal traversal";
  let results = Lazy.force memory_results in
  let ratios =
    List.map (fun (_, po, opt) -> float_of_int po /. float_of_int opt) results
  in
  let non_optimal = List.filter (fun r -> r > 1.0 +. 1e-12) ratios in
  let n = List.length ratios and k = List.length non_optimal in
  let stats = Array.of_list ratios in
  let mx, _ = (Tt_util.Statistics.min_max stats |> snd, ()) in
  print_string
    (Table.render_kv
       [ ("Non optimal PostOrder traversals", Printf.sprintf "%.1f%%  (paper: 4.2%%)"
            (100. *. float_of_int k /. float_of_int n));
         ("Max. PostOrder to opt. cost ratio", Printf.sprintf "%.2f  (paper: 1.18)" mx);
         ("Avg. PostOrder to opt. cost ratio", Printf.sprintf "%.3f  (paper: 1.01)"
            (Tt_util.Statistics.mean stats));
         ("Std. dev. of the ratio", Printf.sprintf "%.3f  (paper: 0.01)"
            (Tt_util.Statistics.stddev stats))
       ]);
  if k = 0 then
    print_endline "PostOrder optimal on every instance at this scale; Figure 5 skipped."
  else begin
    (* the paper's Figure 5 restricts the profile to non-optimal cases *)
    let costs =
      List.filter_map
        (fun (_, po, opt) ->
          if po > opt then Some [| float_of_int opt; float_of_int po |] else None)
        results
      |> Array.of_list
    in
    let curves = P.compute ~names:[ "Optimal"; "PostOrder" ] costs in
    maybe_csv "fig5" curves;
    print_string
      (Plot.render
         ~title:
           (Printf.sprintf
              "Figure 5: memory perf profile on the %d non-optimal instances" k)
         curves)
  end

(* ------------------------------------------------------------------ Fig. 6 *)

let fig6 () =
  header "Figure 6" "running times of PostOrder / Liu / MinMem";
  let insts = Lazy.force corpus in
  let algos = [ ("MinMem", Job.Minmem); ("PostOrder", Job.Postorder); ("Liu", Job.Liu) ] in
  let batch =
    List.concat_map
      (fun (i : Tt_workloads.Dataset.instance) ->
        List.map
          (fun (name, algo) ->
            Job.make ~label:(i.name ^ " " ^ name) i.tree (Job.Min_memory algo))
          algos)
      insts
  in
  let reports, summary = run_engine_batch batch in
  print_digest reports;
  if summary.Executor.cache_hits > 0 then
    Printf.printf
      "note: %d jobs came from the result cache; their walls measure the lookup,\n\
       not the solver, so the runtime profile below is only meaningful on a cold cache.\n"
      summary.Executor.cache_hits;
  let k = List.length algos in
  let costs =
    Array.init (List.length insts) (fun r ->
        Array.init k (fun j -> Float.max 1e-9 reports.((r * k) + j).Executor.wall))
  in
  let names = List.map fst algos in
  let curves = P.compute ~tau_max:5.0 ~names costs in
  maybe_csv "fig6" curves;
  print_string (Plot.render ~title:"Figure 6: runtime performance profile" curves);
  List.iteri
    (fun j name ->
      Printf.printf "%-10s fastest on %.0f%% of instances\n" name
        (100. *. P.fraction_within costs ~column:j ~tau:1.0))
    names;
  Printf.printf "paper shape: MinMem fastest in ~80%% of cases, Liu slowest -> %s wins here\n"
    (P.dominant curves)

(* ------------------------------------------------------------------ Fig. 7 *)

(* MinIO instances: per tree, a few memory budgets between the largest
   single-node requirement and the traversal's in-core peak. *)
let minio_instances order_of =
  List.filter_map
    (fun (i : Tt_workloads.Dataset.instance) ->
      let order = order_of i.tree in
      let peak = Tt_core.Traversal.peak i.tree order in
      let lo = T.max_mem_req i.tree in
      if peak <= lo then None
      else
        Some
          (List.filter_map
             (fun fraction ->
               let memory = lo + int_of_float (fraction *. float_of_int (peak - lo)) in
               if memory >= peak then None else Some (i, order, memory))
             [ 0.0; 0.25; 0.5; 0.75 ])
    )
    (Lazy.force corpus)
  |> List.concat

(* The paper's budget sweep: positions in the gap between the
   working-set floor and the in-core optimum of the MinMem traversal.
   Trees whose gap is empty contribute no cases, as in {!minio_instances}. *)
let minio_fractions = [ 0.0; 0.25; 0.5; 0.75 ]

let fig7 () =
  header "Figure 7" "I/O volume of the six eviction heuristics on MinMem traversals";
  let insts = Array.of_list (Lazy.force corpus) in
  let policies = Tt_core.Minio.all_policies in
  let batch =
    Array.to_list insts
    |> List.concat_map (fun (i : Tt_workloads.Dataset.instance) ->
           List.concat_map
             (fun frac ->
               List.map
                 (fun (pname, policy) ->
                   Job.make
                     ~label:(Printf.sprintf "%s f=%g %s" i.name frac pname)
                     i.tree
                     (Job.Min_io { policy; budget = Job.Fraction frac }))
                 policies)
             minio_fractions)
  in
  let reports, _ = run_engine_batch batch in
  print_digest reports;
  let np = List.length policies and nf = List.length minio_fractions in
  (* regroup into (tree, budget) rows of one I/O volume per policy; drop
     trees where the MinMem traversal already fits in the floor *)
  let rows = ref [] in
  Array.iteri
    (fun r (i : Tt_workloads.Dataset.instance) ->
      let floor = T.max_mem_req i.tree in
      for fi = nf - 1 downto 0 do
        let cell j =
          match reports.((r * nf * np) + (fi * np) + j).Executor.result with
          | Ok (Job.Io { io = Some io; _ }) -> float_of_int io
          | Ok (Job.Io { io = None; _ }) -> infinity
          | _ -> infinity
        in
        let in_core =
          match reports.((r * nf * np) + (fi * np)).Executor.result with
          | Ok (Job.Io { in_core; _ }) -> in_core
          | _ -> floor
        in
        if in_core > floor then rows := Array.init np cell :: !rows
      done)
    insts;
  let costs = Array.of_list !rows in
  Printf.printf "%d (tree, memory) cases\n" (Array.length costs);
  let names = List.map fst policies in
  let curves = P.compute ~tau_max:4.0 ~names costs in
  maybe_csv "fig7" curves;
  print_string (Plot.render ~title:"Figure 7: I/O perf profile (MinMem traversals)" curves);
  List.iteri
    (fun j name ->
      Printf.printf "%-14s best on %5.1f%% of cases, avg ratio %.3f\n" name
        (100. *. P.fraction_within costs ~column:j ~tau:1.0)
        (Tt_util.Statistics.mean (P.ratios costs ~column:j)))
    names;
  Printf.printf "paper shape: First Fit ~ Best K Comb. > fills > LSNF/Best Fit -> winner: %s\n"
    (P.dominant curves);
  (* extension: gap to the divisible lower bound. The MinMem traversals
     are fetched from the engine cache — the sweep above already paid
     for them once per tree. *)
  let cache = Executor.cache (Lazy.force engine) in
  let gaps = ref [] in
  Array.iteri
    (fun r (i : Tt_workloads.Dataset.instance) ->
      let pre = Job.make i.tree (Job.Min_memory Job.Minmem) in
      match Tt_engine.Cache.find cache (Job.id pre) with
      | Some (Job.Memory { order; _ }) ->
          let ff_col =
            let rec find j = function
              | [] -> 1
              | (_, p) :: _ when p = Tt_core.Minio.First_fit -> j
              | _ :: rest -> find (j + 1) rest
            in
            find 0 policies
          in
          for fi = 0 to nf - 1 do
            let ff = (r * nf * np) + (fi * np) + ff_col in
            match reports.(ff).Executor.result with
            | Ok (Job.Io { io = Some io; memory; in_core })
              when in_core > T.max_mem_req i.tree -> (
                match
                  Tt_core.Minio.divisible_lower_bound i.tree ~memory ~order
                with
                | Some lb when lb > 0. -> gaps := (float_of_int io /. lb) :: !gaps
                | _ -> ())
            | _ -> ()
          done
      | _ -> ())
    insts;
  if !gaps <> [] then
    Printf.printf
      "extension: First Fit vs divisible-LSNF lower bound: avg %.3fx, max %.3fx (%d cases)\n"
      (Tt_util.Statistics.mean (Array.of_list !gaps))
      (snd (Tt_util.Statistics.min_max (Array.of_list !gaps)))
      (List.length !gaps)

(* ------------------------------------------------------------------ Fig. 8 *)

let fig8 () =
  header "Figure 8" "traversal sources for out-of-core execution (policy: First Fit)";
  let sources =
    [ ("PostOrder + First Fit", fun t -> snd (Tt_core.Postorder_opt.run t));
      ("Liu + First Fit", fun t -> snd (Tt_core.Liu_exact.run t));
      ("MinMem + First Fit", fun t -> snd (Tt_core.Minmem.run t))
    ]
  in
  let portfolio_io tree memory =
    let rng = Tt_util.Rng.create (!seed + 3) in
    match Tt_core.Minio_search.run ~attempts:6 ~rng tree ~memory with
    | Some o -> float_of_int o.Tt_core.Minio_search.io
    | None -> infinity
  in
  (* memory budgets must be shared across traversals: use the MinMem
     traversal peaks to define them, as the paper ranges from max MemReq
     to the minimal memory of the traversal *)
  let cases = minio_instances (fun t -> snd (Tt_core.Minmem.run t)) in
  let costs =
    List.map
      (fun ((i : Tt_workloads.Dataset.instance), _minmem_order, memory) ->
        Array.of_list
          (List.map
             (fun (_, order_of) ->
               let order = order_of i.tree in
               match
                 Tt_core.Minio.io_volume i.tree ~memory ~order Tt_core.Minio.First_fit
               with
               | Some io -> float_of_int io
               | None -> infinity)
             sources
          @ [ portfolio_io i.tree memory ]))
      cases
    |> Array.of_list
  in
  let names = List.map fst sources @ [ "Portfolio (extension)" ] in
  let curves = P.compute ~tau_max:4.0 ~names costs in
  maybe_csv "fig8" curves;
  print_string (Plot.render ~title:"Figure 8: I/O by traversal source" curves);
  List.iteri
    (fun j name ->
      Printf.printf "%-22s best on %5.1f%% of cases, avg ratio %.3f\n" name
        (100. *. P.fraction_within costs ~column:j ~tau:1.0)
        (Tt_util.Statistics.mean (P.ratios costs ~column:j)))
    names;
  Printf.printf "paper shape: PostOrder best, Liu in between, MinMem worst -> winner: %s\n"
    (P.dominant curves)

(* ---------------------------------------------------- Fig. 9 / Table II *)

let fig9_table2 () =
  header "Figure 9 + Table II" "PostOrder vs optimal on randomly re-weighted trees";
  let random_insts =
    Tt_workloads.Random_weights.corpus ~variants:3 ~seed:(!seed + 7) (Lazy.force corpus)
  in
  Printf.printf "%d random trees (structures from the corpus, weights ~ §VI-E)\n"
    (List.length random_insts);
  let batch =
    List.concat_map
      (fun (i : Tt_workloads.Dataset.instance) ->
        [ Job.make ~label:(i.name ^ " PostOrder") i.tree (Job.Min_memory Job.Postorder);
          Job.make ~label:(i.name ^ " Liu") i.tree (Job.Min_memory Job.Liu)
        ])
      random_insts
  in
  let reports, _ = run_engine_batch batch in
  print_digest reports;
  let peak r =
    match reports.(r).Executor.result with
    | Ok (Job.Memory { peak; _ }) -> peak
    | _ -> invalid_arg "fig9: unexpected result"
  in
  let results =
    List.mapi (fun r _ -> (peak (2 * r), peak ((2 * r) + 1))) random_insts
  in
  let ratios =
    Array.of_list (List.map (fun (po, opt) -> float_of_int po /. float_of_int opt) results)
  in
  let k = Array.length (Array.of_seq (Seq.filter (fun r -> r > 1. +. 1e-12) (Array.to_seq ratios))) in
  print_string
    (Table.render_kv
       [ ("Non optimal PostOrder traversals", Printf.sprintf "%.0f%%  (paper: 61%%)"
            (100. *. float_of_int k /. float_of_int (Array.length ratios)));
         ("Max. PostOrder to opt. cost ratio", Printf.sprintf "%.2f  (paper: 2.22)"
            (snd (Tt_util.Statistics.min_max ratios)));
         ("Avg. PostOrder to opt. cost ratio", Printf.sprintf "%.3f  (paper: 1.12)"
            (Tt_util.Statistics.mean ratios));
         ("Std. dev. of the ratio", Printf.sprintf "%.3f  (paper: 0.13)"
            (Tt_util.Statistics.stddev ratios))
       ]);
  let costs =
    Array.of_list
      (List.map (fun (po, opt) -> [| float_of_int opt; float_of_int po |]) results)
  in
  let curves = P.compute ~tau_max:2.5 ~names:[ "Optimal"; "PostOrder" ] costs in
  maybe_csv "fig9" curves;
  print_string (Plot.render ~title:"Figure 9: memory perf profile on random trees" curves)

(* -------------------------------------------------------------- ablations *)

let ablation_child_order () =
  header "Ablation" "child-ordering rule inside the postorder algorithm";
  let results = Lazy.force memory_results in
  let rules =
    [ ( "increasing P-f (Liu's rule)",
        fun tree ->
          float_of_int (Tt_core.Postorder_opt.best_memory tree) );
      ( "natural order",
        fun tree ->
          float_of_int
            (Tt_core.Postorder_opt.peak_with_child_order tree (T.children tree)) );
      ( "increasing subtree peak",
        fun tree ->
          let peaks = Tt_core.Postorder_opt.subtree_peaks tree in
          float_of_int
            (Tt_core.Postorder_opt.peak_with_child_order tree (fun i ->
                 let cs = T.children tree i in
                 Array.sort (fun a b -> compare peaks.(a) peaks.(b)) cs;
                 cs)) )
    ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        let ratios =
          List.map
            (fun ((i : Tt_workloads.Dataset.instance), _, opt) ->
              f i.tree /. float_of_int opt)
            results
        in
        let a = Array.of_list ratios in
        [ name;
          Printf.sprintf "%.4f" (Tt_util.Statistics.mean a);
          Printf.sprintf "%.3f" (snd (Tt_util.Statistics.min_max a));
          Printf.sprintf "%.1f%%"
            (100. *. Tt_util.Statistics.fraction (fun r -> r <= 1. +. 1e-12) a)
        ])
      rules
  in
  print_string
    (Table.render ~header:[ "child order"; "avg ratio"; "max ratio"; "optimal" ] rows)

let ablation_bestk () =
  header "Ablation" "Best-K Combination for K = 1..8 (paper uses K = 5)";
  let cases = minio_instances (fun t -> snd (Tt_core.Minmem.run t)) in
  let ks = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let policies =
    List.map (fun k -> (Printf.sprintf "Best-%d" k, Tt_core.Minio.Best_k k)) ks
    @ [ ("First Fit", Tt_core.Minio.First_fit) ]
  in
  let costs =
    List.map
      (fun ((i : Tt_workloads.Dataset.instance), order, memory) ->
        Array.of_list
          (List.map
             (fun (_, pol) ->
               match Tt_core.Minio.io_volume i.tree ~memory ~order pol with
               | Some io -> float_of_int io
               | None -> infinity)
             policies))
      cases
    |> Array.of_list
  in
  let rows =
    List.mapi
      (fun j (name, _) ->
        [ name;
          Printf.sprintf "%.4f" (Tt_util.Statistics.mean (P.ratios costs ~column:j));
          Printf.sprintf "%.1f%%" (100. *. P.fraction_within costs ~column:j ~tau:1.0)
        ])
      policies
  in
  print_string (Table.render ~header:[ "policy"; "avg ratio"; "best" ] rows)

let rounds () =
  header "MinMem rounds" "number of Explore rounds (complexity evidence)";
  let insts = Lazy.force corpus in
  let data =
    List.map
      (fun (i : Tt_workloads.Dataset.instance) ->
        (T.size i.tree, Tt_core.Minmem.iterations i.tree))
      insts
  in
  let rs = Array.of_list (List.map (fun (_, r) -> float_of_int r) data) in
  let ps = Array.of_list (List.map (fun (p, _) -> float_of_int p) data) in
  Printf.printf
    "rounds: avg %.1f, max %.0f over trees of avg size %.0f (worst-case bound: O(p))\n"
    (Tt_util.Statistics.mean rs)
    (snd (Tt_util.Statistics.min_max rs))
    (Tt_util.Statistics.mean ps)




(* ------------------------------------------------------ parallel extension *)

let parallel_section () =
  header "Parallel extension"
    "memory-constrained parallel traversal (the conclusion's future work)";
  let insts =
    List.filter
      (fun (i : Tt_workloads.Dataset.instance) ->
        let p = T.size i.tree in
        p >= 50 && p <= 1200)
      (Lazy.force corpus)
  in
  let work tree i = 1 + (tree.T.n.(i) / 8) in
  let procs_list = [ 1; 2; 4; 8; 16 ] in
  let mem_factors = [ (1.0, "1.0x"); (1.5, "1.5x"); (3.0, "3.0x") ] in
  Printf.printf "%d trees; speedup vs 1 processor (geometric mean)\n" (List.length insts);
  let batch =
    List.concat_map
      (fun (factor, _) ->
        List.concat_map
          (fun procs ->
            List.map
              (fun (i : Tt_workloads.Dataset.instance) ->
                Job.make
                  ~label:(Printf.sprintf "%s p=%d m=%gx" i.name procs factor)
                  i.tree
                  (Job.Schedule { procs; mem_factor = factor }))
              insts)
          procs_list)
      mem_factors
  in
  let reports, _ = run_engine_batch batch in
  print_digest reports;
  let n = List.length insts and np = List.length procs_list in
  let rows =
    List.mapi
      (fun fi (_, label) ->
        let cells =
          List.mapi
            (fun pi _ ->
              let speedups =
                List.mapi
                  (fun ii (i : Tt_workloads.Dataset.instance) ->
                    let seq =
                      Tt_core.Parallel.sequential_makespan i.tree ~work:(work i.tree)
                    in
                    match
                      reports.((((fi * np) + pi) * n) + ii).Executor.result
                    with
                    | Ok (Job.Sched { makespan = Some m; _ }) ->
                        Some (float_of_int seq /. float_of_int m)
                    | _ -> None)
                  insts
                |> List.filter_map Fun.id
              in
              if speedups = [] then "-"
              else
                Printf.sprintf "%.2f"
                  (Tt_util.Statistics.geometric_mean (Array.of_list speedups)))
            procs_list
        in
        (label ^ " memory") :: cells)
      mem_factors
  in
  print_string
    (Table.render
       ~header:("budget" :: List.map (fun p -> Printf.sprintf "p=%d" p) procs_list)
       rows);
  print_endline
    "With memory pinned at the sequential optimum, extra processors cannot be\n\
     fed (speedup saturates); relaxing the budget restores parallelism --\n\
     memory, not processors, is the binding resource, which is the paper's\n\
     closing point."

(* ------------------------------------------------------- scheduling tier *)

let sched_section () =
  header "Scheduling tier"
    "memory/makespan Pareto frontier of the tt_sched schedulers";
  let insts =
    List.filter
      (fun (i : Tt_workloads.Dataset.instance) ->
        let p = T.size i.tree in
        p >= 50 && p <= 600)
      (Lazy.force corpus)
  in
  let procs_list = [ 1; 2; 4; 8 ] in
  let steps = 5 in
  Printf.printf "%d trees; sweep of %d budget steps from minmem to total_f\n"
    (List.length insts) steps;
  let batch =
    List.concat_map
      (fun procs ->
        List.map
          (fun (i : Tt_workloads.Dataset.instance) ->
            Job.make
              ~label:(Printf.sprintf "%s p=%d" i.name procs)
              i.tree
              (Job.Pareto_sweep { procs; steps }))
          insts)
      procs_list
  in
  let reports, _ = run_engine_batch batch in
  print_digest reports;
  let n = List.length insts in
  let points_of pi ii =
    match reports.((pi * n) + ii).Executor.result with
    | Ok (Job.Pareto { points; _ }) -> points
    | _ -> []
  in
  let algo_points algo points =
    List.filter
      (fun (p : Tt_sched.Pareto.point) -> p.Tt_sched.Pareto.algo = algo)
      points
  in
  (* per-algo points come out of the sweep in budget-ascending order *)
  let makespan_at pick algo points =
    match algo_points algo points with
    | [] -> None
    | ps -> (
        match pick with
        | `Min_budget -> Some (List.hd ps).Tt_sched.Pareto.makespan
        | `Max_budget ->
            Some (List.hd (List.rev ps)).Tt_sched.Pareto.makespan)
  in
  let geo = function
    | [] -> "-"
    | l ->
        Printf.sprintf "%.2f"
          (Tt_util.Statistics.geometric_mean (Array.of_list l))
  in
  let rows =
    List.mapi
      (fun pi procs ->
        let speedups sel =
          List.filter_map Fun.id
            (List.mapi
               (fun ii (i : Tt_workloads.Dataset.instance) ->
                 let work = Tt_sched.Work.default i.tree in
                 let seq = Tt_core.Parallel.sequential_makespan i.tree ~work in
                 Option.map
                   (fun m -> float_of_int seq /. float_of_int m)
                   (sel (points_of pi ii)))
               insts)
        in
        let frontier_avg =
          let sizes =
            List.mapi
              (fun ii _ ->
                float_of_int
                  (List.length (Tt_sched.Pareto.frontier (points_of pi ii))))
              insts
          in
          Tt_util.Statistics.mean (Array.of_list sizes)
        in
        [ string_of_int procs;
          geo (speedups (makespan_at `Min_budget "greedy"));
          geo (speedups (makespan_at `Max_budget "greedy"));
          geo (speedups (makespan_at `Min_budget "booking"));
          geo (speedups (makespan_at `Max_budget "split"));
          Printf.sprintf "%.1f" frontier_avg
        ])
      procs_list
  in
  print_string
    (Table.render
       ~header:
         [ "procs"; "greedy@min"; "greedy@max"; "booking@min"; "split";
           "frontier" ]
       rows);
  (* one representative frontier in full, largest tree at 4 processors *)
  (match
     List.mapi (fun ii i -> (ii, i)) insts
     |> List.fold_left
          (fun acc (ii, (i : Tt_workloads.Dataset.instance)) ->
            match acc with
            | Some (_, best) when T.size best.Tt_workloads.Dataset.tree >= T.size i.tree ->
                acc
            | _ -> Some (ii, i))
          None
   with
  | Some (ii, i) when List.mem 4 procs_list ->
      let pi = ref 0 in
      List.iteri (fun k p -> if p = 4 then pi := k) procs_list;
      let front = Tt_sched.Pareto.frontier (points_of !pi ii) in
      Printf.printf "frontier of %s (p=%d) at 4 processors:\n" i.name
        (T.size i.tree);
      List.iter
        (fun p -> Printf.printf "  %s\n" (Tt_sched.Pareto.point_to_string p))
        front
  | _ -> ());
  print_endline
    "Greedy converts memory into speedup; booking holds the guaranteed\n\
     minimum-memory point (never deadlocks at the sequential optimum);\n\
     splitting buys makespan with up to procs sequential peaks -- together\n\
     they trace the memory/makespan trade-off of the successor papers."

(* ------------------------------------------------- amalgamation ablation *)

let ablation_amalgamation () =
  header "Ablation" "amalgamation level vs optimal in-core memory";
  let ms = Tt_workloads.Dataset.matrices ~scale:!scale ~seed:!seed () in
  let limits = [ 1; 2; 4; 16; 64 ] in
  let rows =
    List.filter_map
      (fun (name, m) ->
        if (Tt_sparse.Csr.nnz m) > 40_000 then None
        else begin
          let cells =
            List.map
              (fun limit ->
                let asm =
                  Tt_workloads.Pipeline.assembly_tree
                    ~ordering:Tt_workloads.Pipeline.Min_degree ~amalgamation:limit m
                in
                let tree = asm.Tt_etree.Assembly.tree in
                Printf.sprintf "%d/%d" (T.size tree) (Tt_core.Minmem.min_memory tree))
              limits
          in
          Some (name :: cells)
        end)
      ms
  in
  print_string
    (Table.render
       ~header:("matrix" :: List.map (fun l -> Printf.sprintf "a%d (p/mem)" l) limits)
       rows);
  print_endline
    "More amalgamation: smaller trees, denser fronts, higher optimal memory --\n\
     the granularity trade-off the paper's corpus construction exercises."

(* -------------------------------------------------- heuristic optimality *)

let minio_gap () =
  header "MinIO optimality gap"
    "heuristics vs the exact branch-and-bound (extension beyond the paper)";
  let cases =
    List.filter
      (fun ((i : Tt_workloads.Dataset.instance), _, _) -> T.size i.tree <= 120)
      (minio_instances (fun t -> snd (Tt_core.Minmem.run t)))
  in
  Printf.printf "%d cases with at most 120 nodes\n" (List.length cases);
  let per_policy = Hashtbl.create 8 in
  let solved = ref 0 and unsolved = ref 0 in
  List.iter
    (fun ((i : Tt_workloads.Dataset.instance), order, memory) ->
      match Tt_core.Minio_exact.given_order ~node_budget:300_000 i.tree ~memory ~order with
      | exception Failure _ -> incr unsolved
      | None -> ()
      | Some exact ->
          incr solved;
          List.iter
            (fun (name, pol) ->
              match Tt_core.Minio.io_volume i.tree ~memory ~order pol with
              | Some io ->
                  let num, den, worst =
                    try Hashtbl.find per_policy name with Not_found -> (0, 0, 1.0)
                  in
                  let ratio =
                    if exact = 0 then if io = 0 then 1.0 else infinity
                    else float_of_int io /. float_of_int exact
                  in
                  Hashtbl.replace per_policy name
                    ((if io = exact then num + 1 else num), den + 1, Float.max worst ratio)
              | None -> ())
            Tt_core.Minio.all_policies)
    cases;
  Printf.printf "exact optimum computed on %d cases (%d exceeded the search budget)\n"
    !solved !unsolved;
  let rows =
    List.map
      (fun (name, _) ->
        let num, den, worst = try Hashtbl.find per_policy name with Not_found -> (0, 1, nan) in
        [ name;
          Printf.sprintf "%.1f%%" (100. *. float_of_int num /. float_of_int (max den 1));
          (if worst = infinity then "inf" else Printf.sprintf "%.2f" worst)
        ])
      Tt_core.Minio.all_policies
  in
  print_string (Table.render ~header:[ "policy"; "exactly optimal"; "worst ratio" ] rows)

(* ------------------------------------------------------------- serving *)

(* The network layer's overhead on top of the engine: an in-process
   server on an ephemeral port, driven closed-loop by the seeded load
   generator. The entries are the engine sections' kinds of work, sized
   small so the section measures request turnaround, not solver time. *)
let serve_section () =
  header "Serve" "tt_server requests/sec and latency percentiles (loopback)";
  let module Srv = Tt_server.Server in
  let module L = Tt_server.Loadgen in
  let config = { Srv.default_config with Srv.port = 0; workers = 2 } in
  let server = Srv.create ~config () in
  Srv.start server;
  let run_profile ~connections ~requests =
    let s =
      L.run
        { L.default_config with
          L.port = Srv.port server;
          connections;
          requests;
          seed = !seed
        }
    in
    Printf.printf
      "%d conns x %d reqs: %7.1f req/s  p50 %.4fs  p95 %.4fs  p99 %.4fs  \
       (ok %d, errors %d)\n"
      connections (s.L.requests / connections) s.L.throughput_rps s.L.p50_s
      s.L.p95_s s.L.p99_s s.L.ok
      (s.L.requests - s.L.ok)
  in
  run_profile ~connections:1 ~requests:(60 * !scale);
  run_profile ~connections:2 ~requests:(120 * !scale);
  run_profile ~connections:4 ~requests:(240 * !scale);
  (* Chaos profile: the same seeded workload, but routed through the
     in-process fault proxy with client retries. Measures the resilience
     tax — and checks the layer's headline invariant: the chaos run's
     value digest equals a clean run's (faults cost latency, never
     results). *)
  let profile ?chaos ?(retry = Tt_engine.Retry.none) ~tag () =
    L.run
      { L.default_config with
        L.port = Srv.port server;
        connections = 2;
        requests = 60 * !scale;
        seed = !seed;
        retry;
        chaos;
        tag
      }
  in
  let clean = profile ~tag:"bclean" () in
  let faults =
    Tt_server.Netfault.create_faults ~drop:0.03 ~truncate:0.02 ~stall:0.05
      ~split:0.2 ~seed:!seed ()
  in
  let chaos =
    profile ~chaos:faults
      ~retry:(Tt_engine.Retry.create ~retries:6 ~seed:!seed ())
      ~tag:"bchaos" ()
  in
  Printf.printf
    "chaos (retries on): %7.1f req/s vs %7.1f clean  (ok %d, transport %d, \
     injected %d)  digest %s\n"
    chaos.L.throughput_rps clean.L.throughput_rps chaos.L.ok
    chaos.L.transport_errors
    (match chaos.L.proxy with
    | Some p -> Tt_server.Netfault.injected p
    | None -> 0)
    (match (clean.L.value_digest, chaos.L.value_digest) with
    | Some a, Some b when a = b -> "matches clean run"
    | Some _, Some _ -> "MISMATCH vs clean run"
    | _ -> "(missing)");
  Srv.shutdown server;
  let m = Tt_server.Metrics.snapshot (Srv.metrics server) in
  Printf.printf
    "server side: %d solves, %d jobs (%d cache hits), window p50 %.4fs p99 %.4fs\n"
    m.Tt_server.Metrics.requests_solve m.Tt_server.Metrics.jobs
    m.Tt_server.Metrics.job_cache_hits m.Tt_server.Metrics.latency.Tt_server.Metrics.p50_s
    m.Tt_server.Metrics.latency.Tt_server.Metrics.p99_s

(* -------------------------------------------------------------- cluster *)

(* The shard tier's two headline numbers: how throughput and tail
   latency move from 1 to 2 to 4 shards behind the router, and whether
   placement stays invisible in results — every shard count must land
   the same value digest (jobs are content-addressed; the ring only
   decides where they compute). *)
let cluster_section () =
  header "Cluster" "tt_shard req/s and latency through the router (loopback)";
  let module Cl = Tt_shard.Cluster in
  let module L = Tt_server.Loadgen in
  let requests = 60 * !scale in
  let digests =
    List.map
      (fun shards ->
        let c = Cl.start ~shards ~workers:2 () in
        let s =
          L.run
            { L.default_config with
              L.port = Cl.router_port c;
              connections = 2;
              requests;
              seed = !seed;
              tag = Printf.sprintf "bcl%d" shards
            }
        in
        Cl.stop c;
        let snap = Cl.snapshot c in
        Printf.printf
          "%d shard%s: %7.1f req/s  p50 %.4fs  p95 %.4fs  p99 %.4fs  (ok %d, \
           forwards %d, failovers %d, peer hits %d)\n"
          shards
          (if shards = 1 then " " else "s")
          s.L.throughput_rps s.L.p50_s s.L.p95_s s.L.p99_s s.L.ok
          snap.Tt_shard.Metrics.forwards_total snap.Tt_shard.Metrics.failovers
          snap.Tt_shard.Metrics.peer_hits;
        s.L.value_digest)
      [ 1; 2; 4 ]
  in
  match digests with
  | Some a :: rest when List.for_all (( = ) (Some a)) rest ->
      Printf.printf "placement-invariant: value digest %s at every shard count\n" a
  | _ -> Printf.printf "placement-invariant: DIGEST MISMATCH across shard counts\n"

(* -------------------------------------------------------------- nemesis *)

(* Availability under faults, by shard count: the same seeded nemesis
   schedule (kills, stalls, partitions, membership changes where the
   ring allows them) runs against 1, 2 and 4 shards while a retrying
   load generator measures what clients actually experience — req/s,
   error rate, and a per-second ok/error timeline. The 1-shard row is
   the honest baseline: with nowhere to fail over, availability rides
   entirely on supervised restart and breaker recovery. *)
let nemesis_section () =
  header "Nemesis"
    "availability under a seeded fault schedule, by shard count";
  let module N = Tt_shard.Nemesis in
  let module L = Tt_server.Loadgen in
  List.iter
    (fun shards ->
      let cfg =
        { N.default_config with
          N.seed = !seed;
          shards;
          max_shards = max shards 2;
          steps = 6;
          requests = 60 * !scale;
          connections = 2
        }
      in
      let r = N.run cfg in
      let errors =
        r.N.load.L.requests - r.N.load.L.ok
      in
      Printf.printf
        "%d shard%s: %7.1f req/s  ok %d/%d (%.1f%% errors)  restarts %d  \
         breaker %d/%d  ring epoch %d  digest %s\n"
        shards
        (if shards = 1 then " " else "s")
        r.N.load.L.throughput_rps r.N.load.L.ok r.N.load.L.requests
        (100. *. float_of_int errors /. float_of_int r.N.load.L.requests)
        r.N.restarts r.N.breaker_opens r.N.breaker_closes r.N.ring_epoch
        (if r.N.digest_match then "match" else "MISMATCH");
      Printf.printf "  timeline (ok/err per s):";
      List.iter
        (fun (s, o, e) -> Printf.printf " t+%ds %d/%d" s o e)
        r.N.timeline;
      Printf.printf "\n%!")
    [ 1; 2; 4 ]

(* ------------------------------------------------------------- overload *)

(* Brownout behaviour by pressure: the seeded overload nemesis (one
   shard stalled, open-loop load) at 1x, 2x and 4x the measured clean
   capacity. What should move with overdrive is the shed column and the
   batch/interactive split — batch browns out first while interactive
   goodput degrades last — and what should never move is the untyped
   column (always 0: every refusal typed, every ok within deadline). *)
let overload_section () =
  header "Overload"
    "goodput and typed shedding by overdrive, one shard stalled";
  let module ON = Tt_shard.Overload_nemesis in
  List.iter
    (fun overdrive ->
      let cfg =
        { ON.default_config with
          ON.seed = !seed;
          overdrive;
          requests = 100 * !scale
        }
      in
      let r = ON.run cfg in
      Printf.printf
        "%.0fx: offered %6.0f req/s  ok %d/%d  shed %d  untyped %d  \
         interactive %.2f  batch %.2f  hedges won %d\n%!"
        overdrive r.ON.offered_rps r.ON.ok r.ON.issued r.ON.sheds r.ON.untyped
        (ON.goodput r.ON.interactive) (ON.goodput r.ON.batch) r.ON.hedge_won)
    [ 1.; 2.; 4. ]

(* ----------------------------------------------------------------- perf *)

(* Wall times of the core solvers on the seeded Perf_suite instances,
   written out as BENCH_CORE.json. The output is machine-readable and
   digest-carrying, so successive revisions can both diff the timings
   and prove the kernels still compute the same results. *)
let perf_section () =
  header "Perf" "core-kernel wall times -> BENCH_CORE.json";
  let module MB = Tt_profile.Microbench in
  let mode =
    if !perf_quick then Tt_workloads.Perf_suite.Quick else Tt_workloads.Perf_suite.Full
  in
  let reps =
    if !perf_reps > 0 then !perf_reps else Tt_workloads.Perf_suite.default_reps mode
  in
  let specs = Tt_workloads.Perf_suite.specs mode in
  let results =
    MB.measure ~reps ~progress:(fun l -> Printf.printf "[perf] %s\n%!" l) specs
  in
  print_string (MB.render results);
  MB.write_json !perf_out results;
  Printf.printf "[perf] wrote %s (%d kernels, %d timed reps each)\n" !perf_out
    (List.length results) reps

(* ------------------------------------------------------------------ huge *)

(* The huge-tree tier end to end: streaming generation plus certified
   MinMem bounds at p = 1M and 10M on the three flat-tree families. Each
   row prints the certified [lower, upper] sandwich and its gap; the 10M
   rows also print the per-node slowdown against the 1M row of the same
   family — the near-linearity witness (1.00x = perfectly linear in p).
   Opt-in via --section huge: the 10M rows allocate ~1 GB per instance. *)
let huge_section () =
  header "Huge" "certified MinMem bounds at p = 1M / 10M, flat-tree tier";
  let module Ma = Tt_core.Minmem_approx in
  let families =
    [ ( "caterpillar",
        fun ~p ~seed -> Tt_workloads.Huge.caterpillar ~p ~seed () );
      ("binary", fun ~p ~seed -> Tt_workloads.Huge.binary ~p ~seed ());
      ("random", fun ~p ~seed -> Tt_workloads.Huge.random_attach ~p ~seed ())
    ]
  in
  let sizes = [ 1_000_000; 10_000_000 ] in
  List.iter
    (fun (name, build) ->
      let base = ref nan in
      List.iter
        (fun p ->
          let t0 = Unix.gettimeofday () in
          let ft = build ~p ~seed:!seed in
          let t_gen = Unix.gettimeofday () -. t0 in
          let t0 = Unix.gettimeofday () in
          let b = Ma.run ft in
          let t_run = Unix.gettimeofday () -. t0 in
          let scaling =
            if Float.is_nan !base then begin
              base := t_run /. float_of_int p;
              ""
            end
            else
              Printf.sprintf "  per-node vs 1M %.2fx"
                (t_run /. float_of_int p /. !base)
          in
          Printf.printf
            "%-11s p=%8d  gen %5.2fs  bounds [%d, %d]  gap %5.3f%%  \
             rounds %d  %s  %6.2fs%s\n%!"
            name p t_gen b.Ma.lower b.Ma.upper
            (100. *. Ma.gap b)
            b.Ma.rounds
            (if b.Ma.exact then "exact " else "approx")
            t_run scaling)
        sizes)
    families

(* ------------------------------------------------------------------ main *)

let section_runners =
  [ ("theorem1", theorem1);
    ("theorem2", theorem2);
    ("fig5", fig5_table1);
    ("table1", fig5_table1);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9_table2);
    ("table2", fig9_table2);
    ("ablation-child-order", ablation_child_order);
    ("ablation-bestk", ablation_bestk);
    ("ablation-amalgamation", ablation_amalgamation);
    ("parallel", parallel_section);
    ("sched", sched_section);
    ("minio-gap", minio_gap);
    ("rounds", rounds);
    ("serve", serve_section);
    ("cluster", cluster_section);
    ("nemesis", nemesis_section);
    ("overload", overload_section);
    ("perf", perf_section);
    ("huge", huge_section)
  ]

let default_order () =
  [ "theorem1"; "theorem2"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
    "ablation-child-order"; "ablation-bestk"; "ablation-amalgamation";
    "parallel"; "sched"; "minio-gap"; "rounds"; "serve"; "cluster"; "nemesis";
    "overload"
  ]

let () =
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s))) usage;
  let t0 = Unix.gettimeofday () in
  (* sections run in the order requested and may repeat — a repeated
     engine section is served from the result cache *)
  let requested =
    match List.rev !sections with
    | [] -> default_order ()
    | l -> List.concat_map (fun s -> if s = "all" then default_order () else [ s ]) l
  in
  List.iter
    (fun name ->
      match List.assoc_opt name section_runners with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S (try --list)\n" name;
          exit 2)
    requested;
  if Lazy.is_val telemetry_sink then
    Option.iter Tt_engine.Telemetry.close (Lazy.force telemetry_sink);
  if Lazy.is_val journal_state then
    Option.iter
      (fun (j, _) -> Tt_engine.Journal.close j)
      (Lazy.force journal_state);
  (match !telemetry_path with
  | Some f -> Printf.printf "[engine] telemetry written to %s\n" f
  | None -> ());
  Printf.printf "\n[bench] total time %.1fs\n" (Unix.gettimeofday () -. t0)

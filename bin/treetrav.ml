(* The command-line front end.

     treetrav generate --kind grid2d --size 20 -o grid.mtx
     treetrav analyze grid.mtx --ordering mindeg --amalgamation 4
     treetrav schedule grid.mtx --memory 120%   (MinIO planning)
     treetrav corpus --scale 1                  (describe the bench corpus)
     treetrav batch jobs.manifest --jobs 4      (engine batch execution)  *)

open Cmdliner

module S = Tt_sparse

(* ------------------------------------------------------------- helpers *)

let load_matrix path =
  let _header, t = S.Matrix_market.read_file path in
  S.Csr.of_triplet t

let ordering_conv =
  let parse = function
    | "natural" -> Ok Tt_workloads.Pipeline.Natural
    | "rcm" -> Ok Tt_workloads.Pipeline.Rcm
    | "mindeg" -> Ok Tt_workloads.Pipeline.Min_degree
    | "nd" -> Ok Tt_workloads.Pipeline.Nested_dissection
    | s -> Error (`Msg ("unknown ordering: " ^ s))
  in
  Arg.conv (parse, fun ppf o -> Fmt.string ppf (Tt_workloads.Pipeline.ordering_name o))

let policy_conv =
  let parse s =
    match
      List.find_opt
        (fun (name, _) ->
          String.lowercase_ascii name
          = String.lowercase_ascii (String.map (fun c -> if c = '-' then ' ' else c) s))
        Tt_core.Minio.all_policies
    with
    | Some (_, p) -> Ok p
    | None -> (
        match int_of_string_opt s with
        | Some k when k >= 1 -> Ok (Tt_core.Minio.Best_k k)
        | _ -> Error (`Msg ("unknown policy: " ^ s)))
  in
  Arg.conv (parse, fun ppf p -> Fmt.string ppf (Tt_core.Minio.policy_name p))

(* ------------------------------------------------------------ generate *)

let generate kind size seed output =
  let rng = Tt_util.Rng.create seed in
  let m =
    match kind with
    | "grid2d" -> S.Spgen.grid2d size
    | "grid9" -> S.Spgen.grid2d_9pt size
    | "grid3d" -> S.Spgen.grid3d size
    | "banded" -> S.Spgen.banded ~rng ~n:size ~bandwidth:(max 2 (size / 50)) ~fill:0.4
    | "random" -> S.Spgen.random_sym ~rng ~n:size ~nnz_per_row:3.0
    | "arrow" -> S.Spgen.block_arrow ~n:size ~blocks:8 ~border:(max 2 (size / 40))
    | "powerlaw" -> S.Spgen.power_law ~rng ~n:size ~edges_per_node:2
    | "tridiagonal" -> S.Spgen.tridiagonal size
    | other -> failwith ("unknown kind: " ^ other)
  in
  S.Matrix_market.write_file ~symmetry:S.Matrix_market.Symmetric output m;
  Printf.printf "wrote %s: n = %d, nnz = %d (coordinate real symmetric)\n" output
    m.S.Csr.nrows (S.Csr.nnz m);
  0

let generate_cmd =
  let kind =
    Arg.(
      value
      & opt string "grid2d"
      & info [ "kind"; "k" ] ~docv:"KIND"
          ~doc:
            "Matrix family: grid2d, grid9, grid3d, banded, random, arrow, powerlaw, \
             tridiagonal.")
  in
  let size =
    Arg.(value & opt int 20 & info [ "size"; "n" ] ~docv:"N" ~doc:"Size parameter.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let output =
    Arg.(value & opt string "matrix.mtx" & info [ "output"; "o" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic SPD matrix in Matrix Market form.")
    Term.(const generate $ kind $ size $ seed $ output)

(* ------------------------------------------------------------- analyze *)

let analyze path ordering amalgamation =
  let m = load_matrix path in
  let asm = Tt_workloads.Pipeline.assembly_tree ~ordering ~amalgamation m in
  let tree = asm.Tt_etree.Assembly.tree in
  Printf.printf "matrix: n = %d, nnz = %d\n" m.S.Csr.nrows (S.Csr.nnz m);
  Printf.printf "assembly tree (%s, amalgamation %d): %s\n"
    (Tt_workloads.Pipeline.ordering_name ordering)
    amalgamation
    (Tt_workloads.Pipeline.stats asm);
  let po, _ = Tt_core.Postorder_opt.run tree in
  let (opt, order), rounds = ((Tt_core.Minmem.run tree), Tt_core.Minmem.iterations tree) in
  Printf.printf "memory: best postorder %d, optimal %d (%s; MinMem rounds: %d)\n" po opt
    (if po = opt then "postorder is optimal"
     else Printf.sprintf "postorder +%.2f%%" (100. *. (float_of_int po /. float_of_int opt -. 1.)))
    rounds;
  (match Tt_core.Traversal.check tree ~memory:opt order with
  | Tt_core.Traversal.Feasible _ -> ()
  | _ -> prerr_endline "internal error: optimal traversal failed validation");
  0

let analyze_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mtx") in
  let ordering =
    Arg.(
      value
      & opt ordering_conv Tt_workloads.Pipeline.Min_degree
      & info [ "ordering" ] ~docv:"ORD" ~doc:"natural, rcm, mindeg or nd.")
  in
  let amalgamation =
    Arg.(value & opt int 4 & info [ "amalgamation"; "a" ] ~docv:"K"
           ~doc:"Relaxed amalgamation limit (paper: 1, 2, 4, 16).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"MinMemory analysis of a Matrix Market file's assembly tree.")
    Term.(const analyze $ path $ ordering $ amalgamation)

(* ------------------------------------------------------------ schedule *)

let schedule path ordering amalgamation memory_pct policy =
  let m = load_matrix path in
  let asm = Tt_workloads.Pipeline.assembly_tree ~ordering ~amalgamation m in
  let tree = asm.Tt_etree.Assembly.tree in
  let opt = Tt_core.Minmem.min_memory tree in
  let floor = Tt_core.Tree.max_mem_req tree in
  let memory =
    floor + int_of_float (float_of_int (opt - floor) *. memory_pct /. 100.)
  in
  Printf.printf "tree: %s\n" (Tt_workloads.Pipeline.stats asm);
  Printf.printf "in-core optimum %d, working-set floor %d, budget %d (%.0f%%)\n" opt
    floor memory memory_pct;
  let plan = Tt_core.Planner.plan ~policy tree ~memory in
  Printf.printf "%s\n" (Tt_core.Planner.describe plan);
  (match plan with
  | Tt_core.Planner.Out_of_core { schedule = sched; io; _ } ->
      let evictions =
        Array.fold_left
          (fun acc t -> if t <> Tt_core.Io_schedule.never then acc + 1 else acc)
          0 sched.Tt_core.Io_schedule.tau
      in
      Printf.printf "%d files evicted; I/O is %.1f%% of the tree's total file volume\n"
        evictions
        (100. *. float_of_int io /. float_of_int (max 1 (Tt_core.Tree.total_f tree)))
  | _ -> ());
  0

let schedule_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.mtx") in
  let ordering =
    Arg.(
      value
      & opt ordering_conv Tt_workloads.Pipeline.Min_degree
      & info [ "ordering" ] ~docv:"ORD")
  in
  let amalgamation =
    Arg.(value & opt int 4 & info [ "amalgamation"; "a" ] ~docv:"K")
  in
  let memory =
    Arg.(
      value
      & opt float 50.
      & info [ "memory"; "m" ] ~docv:"PCT"
          ~doc:
            "Memory budget as a percentage of the gap between the working-set floor \
             and the in-core optimum (0 = floor, 100 = optimum).")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv Tt_core.Minio.First_fit
      & info [ "policy"; "p" ] ~docv:"POLICY"
          ~doc:"lsnf, 'first fit', 'best fit', 'first fill', 'best fill', or K for Best-K.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Plan an out-of-core traversal under a memory budget.")
    Term.(const schedule $ path $ ordering $ amalgamation $ memory $ policy)

(* ---------------------------------------------------------------- sched *)

let sched path kind size seed ordering amalgamation procs steps algo mem =
  let m =
    match path with
    | Some p -> load_matrix p
    | None -> (
        let rng = Tt_util.Rng.create seed in
        match kind with
        | "grid2d" -> S.Spgen.grid2d size
        | "grid9" -> S.Spgen.grid2d_9pt size
        | "grid3d" -> S.Spgen.grid3d size
        | "banded" ->
            S.Spgen.banded ~rng ~n:size ~bandwidth:(max 2 (size / 50)) ~fill:0.4
        | "random" -> S.Spgen.random_sym ~rng ~n:size ~nnz_per_row:3.0
        | "arrow" ->
            S.Spgen.block_arrow ~n:size ~blocks:8 ~border:(max 2 (size / 40))
        | "powerlaw" -> S.Spgen.power_law ~rng ~n:size ~edges_per_node:2
        | "tridiagonal" -> S.Spgen.tridiagonal size
        | other -> failwith ("unknown kind: " ^ other))
  in
  let asm = Tt_workloads.Pipeline.assembly_tree ~ordering ~amalgamation m in
  let tree = asm.Tt_etree.Assembly.tree in
  let work = Tt_sched.Work.default tree in
  let seq = Tt_core.Parallel.sequential_makespan tree ~work in
  let cp = Tt_core.Parallel.critical_path tree ~work in
  let minmem = Tt_core.Minmem.min_memory tree in
  Printf.printf "tree: %s\n" (Tt_workloads.Pipeline.stats asm);
  Printf.printf
    "procs %d; sequential makespan %d, critical path %d; minmem %d, total_f \
     %d\n"
    procs seq cp minmem
    (Tt_core.Tree.total_f tree);
  let speedup makespan = float_of_int seq /. float_of_int makespan in
  match algo with
  | None ->
      (* full memory/makespan sweep; '*' marks the Pareto frontier *)
      let points = Tt_sched.Pareto.sweep ~steps tree ~procs ~work in
      let frontier = Tt_sched.Pareto.frontier points in
      Printf.printf "%-9s %10s %10s %10s %8s\n" "algo" "budget" "makespan"
        "peak" "speedup";
      List.iter
        (fun (p : Tt_sched.Pareto.point) ->
          Printf.printf "%-9s %10d %10d %10d %7.2fx%s\n" p.algo p.budget
            p.makespan p.peak (speedup p.makespan)
            (if List.mem p frontier then " *" else ""))
        points;
      Printf.printf "frontier: %d of %d points\n" (List.length frontier)
        (List.length points);
      Printf.printf "pareto digest: %s\n" (Tt_sched.Pareto.digest points);
      0
  | Some name -> (
      match Tt_engine.Job.par_algo_of_string name with
      | None ->
          Printf.eprintf
            "sched: unknown --algo %S (expected greedy, booking or split)\n"
            name;
          2
      | Some algo -> (
          let memory = int_of_float (mem *. float_of_int minmem) in
          Printf.printf "budget: %d words (%.2f x minmem)\n" memory mem;
          let described =
            match algo with
            | Tt_engine.Job.Greedy ->
                Option.map
                  (fun s -> (s, Tt_sched.Validate.check tree ~memory ~work s))
                  (Tt_core.Parallel.list_schedule tree ~procs ~memory ~work)
            | Tt_engine.Job.Booking ->
                Option.map (fun (order, s) ->
                    (s, Tt_sched.Validate.check ~activation:order tree ~memory ~work s))
                  (Tt_sched.Booking.run tree ~procs ~memory ~work)
            | Tt_engine.Job.Split ->
                let s = Tt_sched.Split.run tree ~procs ~work in
                Some
                  ( s,
                    Tt_sched.Validate.check tree
                      ~memory:(max memory s.Tt_core.Parallel.peak_memory)
                      ~work s )
          in
          match described with
          | None ->
              Printf.printf "no schedule at this budget (minmem %d)\n" minmem;
              1
          | Some (s, verdict) -> (
              Printf.printf "makespan %d (%.2fx speedup), peak %d%s\n"
                s.Tt_core.Parallel.makespan
                (speedup s.Tt_core.Parallel.makespan)
                s.Tt_core.Parallel.peak_memory
                (if s.Tt_core.Parallel.peak_memory > memory then
                   " (over budget: split trades memory for makespan)"
                 else "");
              match verdict with
              | Ok () ->
                  print_endline "validator: ok";
                  0
              | Error v ->
                  Printf.printf "validator: FAILED (%s)\n"
                    (Tt_sched.Validate.violation_to_string v);
                  1)))

let sched_cmd =
  let path = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.mtx") in
  let kind =
    Arg.(value & opt string "grid2d"
         & info [ "kind"; "k" ] ~docv:"KIND"
             ~doc:"Generated matrix family when no FILE.mtx is given.")
  in
  let size = Arg.(value & opt int 20 & info [ "size" ] ~docv:"N") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let ordering =
    Arg.(
      value
      & opt ordering_conv Tt_workloads.Pipeline.Min_degree
      & info [ "ordering" ] ~docv:"ORD")
  in
  let amalgamation =
    Arg.(value & opt int 4 & info [ "amalgamation"; "a" ] ~docv:"K")
  in
  let procs =
    Arg.(value & opt int 4 & info [ "procs" ] ~docv:"N" ~doc:"Processors.")
  in
  let steps =
    Arg.(value & opt int 8
         & info [ "steps" ] ~docv:"K"
             ~doc:"Budget points in the Pareto sweep (minmem to total_f).")
  in
  let algo =
    Arg.(value & opt (some string) None
         & info [ "algo" ] ~docv:"ALGO"
             ~doc:"Run one scheduler (greedy, booking or split) at --mem \
                   instead of the full Pareto sweep.")
  in
  let mem =
    Arg.(value & opt float 1.5
         & info [ "mem" ] ~docv:"F"
             ~doc:"Budget as a multiple of the MinMem optimum (with --algo).")
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:
         "Memory-bounded parallel scheduling: per-instance memory/makespan \
          Pareto sweep, or one scheduler at one budget.")
    Term.(const sched $ path $ kind $ size $ seed $ ordering $ amalgamation
          $ procs $ steps $ algo $ mem)

(* -------------------------------------------------------------- corpus *)

let corpus scale seed export =
  (match export with
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun (name, m) ->
          let path = Filename.concat dir (name ^ ".mtx") in
          S.Matrix_market.write_file ~symmetry:S.Matrix_market.Symmetric path m;
          Printf.printf "wrote %s (n = %d, nnz = %d)\n" path m.S.Csr.nrows (S.Csr.nnz m))
        (Tt_workloads.Dataset.matrices ~scale ~seed ())
  | None ->
      let insts = Tt_workloads.Dataset.corpus ~scale ~seed () in
      Printf.printf "%d instances (scale %d, seed %d)\n" (List.length insts) scale seed;
      List.iter
        (fun (i : Tt_workloads.Dataset.instance) ->
          Printf.printf "%-24s p=%d\n" i.name (Tt_core.Tree.size i.tree))
        insts);
  0

let corpus_cmd =
  let scale = Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let export =
    Arg.(value & opt (some string) None
         & info [ "export" ] ~docv:"DIR"
             ~doc:"Write the corpus matrices to DIR in Matrix Market form.")
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"List or export the benchmark corpus.")
    Term.(const corpus $ scale $ seed $ export)

(* --------------------------------------------------------------- batch *)

let batch manifest jobs timeout telemetry cache_dir faults retries journal
    resume =
  let module E = Tt_engine.Executor in
  let module J = Tt_engine.Job in
  let fail msg =
    Printf.eprintf "%s\n" msg;
    Error 1
  in
  let ( let* ) = Result.bind in
  let run () =
    let* text =
      match In_channel.with_open_text manifest In_channel.input_all with
      | text -> Ok text
      | exception Sys_error e -> fail e
    in
    let* batch_jobs =
      match Tt_engine.Manifest.parse text with
      | Ok jobs -> Ok jobs
      | Error e -> fail (Printf.sprintf "%s: %s" manifest e)
    in
    let* faults =
      match faults with
      | None -> Ok None
      | Some spec -> (
          match Tt_engine.Fault.of_string spec with
          | Ok f -> Ok (Some f)
          | Error e -> fail (Printf.sprintf "--faults %s: %s" spec e))
    in
    (* The journal is keyed by the manifest text: resuming against an
       edited manifest would silently skip jobs whose meaning changed. *)
    let corpus = Digest.to_hex (Digest.string text) in
    let* jstate =
      match (journal, resume) with
      | Some _, Some _ -> fail "--journal and --resume are mutually exclusive"
      | Some path, None -> Ok (Some (Tt_engine.Journal.create path ~corpus, None))
      | None, Some path -> (
          match Tt_engine.Journal.load_or_create path ~corpus with
          | Ok (j, completed) -> Ok (Some (j, Some completed))
          | Error e -> fail (Printf.sprintf "--resume %s: %s" path e))
      | None, None -> Ok None
    in
    let jnl = Option.map fst jstate in
    let completed = Option.bind jstate snd in
    let retry =
      if retries = 0 then Tt_engine.Retry.none
      else Tt_engine.Retry.create ~retries ()
    in
    let sink = Option.map Tt_engine.Telemetry.to_file telemetry in
    let domains = if jobs = 0 then E.default_domains () else jobs in
    let exec =
      E.create ~domains ?timeout
        ~cache:(Tt_engine.Cache.create ?persist:cache_dir ?faults ())
        ?telemetry:sink ?faults ~retry ?journal:jnl ?completed ()
    in
    let reports, summary = E.run_batch exec batch_jobs in
    Array.iteri
      (fun i (r : E.report) ->
        Printf.printf "%4d  %-44s %-10s %s%s\n" i r.E.job.J.label
          (String.sub r.E.id 0 10)
          (J.result_to_string r.E.result)
          (if r.E.resumed then "  [resumed]"
           else if r.E.cache_hit then "  [cached]"
           else Printf.sprintf "  (%.3fs)" r.E.wall))
      reports;
    Printf.printf
      "%d jobs on %d domain(s) in %.2fs (utilization %.0f%%), cache: %d hits \
       / %d misses, %d retries, %d resumed, %d errors\n"
      summary.E.jobs domains summary.E.wall
      (100. *. E.utilization summary)
      summary.E.cache_hits summary.E.cache_misses summary.E.retries
      summary.E.resumed summary.E.errors;
    Printf.printf "results digest: %s\n" (E.results_digest reports);
    (match telemetry with
    | Some f -> Printf.printf "telemetry written to %s\n" f
    | None -> ());
    Option.iter Tt_engine.Telemetry.close sink;
    Option.iter Tt_engine.Journal.close jnl;
    Ok (if summary.E.errors > 0 then 1 else 0)
  in
  match run () with Ok code | Error code -> code

let batch_cmd =
  let manifest =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST"
         ~doc:"Job manifest: one '<source> :: <job> [; <job>]*' entry per line \
               (see the README's treetrav batch section for the grammar).")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Engine domains (0 = one per core, capped at 8).")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Degrade jobs exceeding this wall time to errors \
                   (detected on completion; the batch continues).")
  in
  let telemetry =
    Arg.(value & opt (some string) None
         & info [ "telemetry" ] ~docv:"FILE" ~doc:"Write JSONL telemetry to FILE.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persist solver results to DIR, shared across invocations.")
  in
  let faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Inject deterministic faults, e.g. \
                   'crash=0.3,io=0.1,delay=0.2,seed=7'. Decisions are a pure \
                   function of (seed, job id, attempt), so chaos runs \
                   reproduce exactly.")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry crashed/fault-injected jobs up to N times with \
                   deterministic capped exponential backoff.")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Write a fresh write-ahead journal of completed results to \
                   FILE (flushed per job, so a killed run can be resumed).")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"FILE"
             ~doc:"Resume from (and keep appending to) the journal at FILE: \
                   jobs it records are not recomputed. Refused if the \
                   manifest changed since the journal was written.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run a manifest of solver jobs on the multicore batch engine.")
    Term.(const batch $ manifest $ jobs $ timeout $ telemetry $ cache_dir
          $ faults $ retries $ journal $ resume)

(* --------------------------------------------------------------- serve *)

let serve host port workers queue deadline timeout cache_dir max_entries
    telemetry retries idle_timeout max_inflight replay_capacity wedge_grace
    worker_faults =
  let module Srv = Tt_server.Server in
  let worker_faults =
    match worker_faults with
    | None -> None
    | Some spec -> (
        match Tt_engine.Fault.of_string spec with
        | Ok f -> Some f
        | Error e ->
            Printf.eprintf "serve: bad --worker-faults spec: %s\n" e;
            exit 2)
  in
  let config =
    { Srv.host;
      port;
      workers;
      queue_capacity = queue;
      max_deadline_s = deadline;
      idle_timeout_s = idle_timeout;
      max_inflight;
      replay_capacity;
      wedge_grace_s = wedge_grace;
      worker_faults
    }
  in
  let retry =
    if retries = 0 then Tt_engine.Retry.none
    else Tt_engine.Retry.create ~retries ()
  in
  let sink = Option.map Tt_engine.Telemetry.to_file telemetry in
  let cache = Tt_engine.Cache.create ?persist:cache_dir ?max_entries () in
  let t =
    Srv.create ~config ~cache ~retry ?telemetry:sink ?job_timeout:timeout ()
  in
  Printf.printf "listening on %s:%d (%d workers, queue %d, deadline %.1fs)\n"
    host (Srv.port t) (max 1 workers) queue deadline;
  flush stdout;
  let stop_signal _ = Srv.request_shutdown t in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
  Srv.run t;
  Option.iter Tt_engine.Telemetry.close sink;
  print_string
    (Tt_server.Metrics.to_prometheus (Tt_server.Metrics.snapshot (Srv.metrics t)));
  Printf.printf "drained cleanly\n";
  0

let serve_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
         ~doc:"Bind address.")
  in
  let port =
    Arg.(value & opt int 7411
         & info [ "port"; "p" ] ~docv:"PORT"
             ~doc:"TCP port (0 picks an ephemeral port, printed on startup).")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers"; "w" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue capacity; further solve requests are \
                   refused with the 'overloaded' error code.")
  in
  let deadline =
    Arg.(value & opt float 30.
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Per-request deadline ceiling and default.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Engine per-job timeout (as in treetrav batch).")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persist solver results to DIR, shared across requests \
                   and invocations.")
  in
  let max_entries =
    Arg.(value & opt (some int) None
         & info [ "max-entries" ] ~docv:"N"
             ~doc:"Bound the in-memory result cache to N entries \
                   (least-recently-used eviction). Default: unbounded.")
  in
  let telemetry =
    Arg.(value & opt (some string) None
         & info [ "telemetry" ] ~docv:"FILE" ~doc:"Write JSONL telemetry to FILE.")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N" ~doc:"Engine retry budget per job.")
  in
  let idle_timeout =
    Arg.(value & opt float 300.
         & info [ "idle-timeout" ] ~docv:"SECONDS"
             ~doc:"Evict connections idle this long with nothing in flight \
                   (0 disables).")
  in
  let max_inflight =
    Arg.(value & opt int 32
         & info [ "max-inflight" ] ~docv:"N"
             ~doc:"Per-connection cap on unreplied solve requests; past it \
                   solves are refused with 'overloaded'.")
  in
  let replay_capacity =
    Arg.(value & opt int 1024
         & info [ "replay-capacity" ] ~docv:"N"
             ~doc:"Bound on the idempotency replay cache (FIFO eviction).")
  in
  let wedge_grace =
    Arg.(value & opt float 5.
         & info [ "wedge-grace" ] ~docv:"SECONDS"
             ~doc:"Grace beyond a request's deadline before its worker is \
                   declared wedged and replaced.")
  in
  let worker_faults =
    Arg.(value & opt (some string) None
         & info [ "worker-faults" ] ~docv:"SPEC"
             ~doc:"Chaos hook: roll this fault spec (as in treetrav batch \
                   --faults, e.g. 'crash=0.15,seed=5') once per admitted \
                   request — crash/io kill the worker domain (exercising \
                   supervision), delay wedges it.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the batch engine over TCP (newline-delimited JSON; \
             SIGINT/SIGTERM drain gracefully).")
    Term.(const serve $ host $ port $ workers $ queue $ deadline $ timeout
          $ cache_dir $ max_entries $ telemetry $ retries $ idle_timeout
          $ max_inflight $ replay_capacity $ wedge_grace $ worker_faults)

(* ------------------------------------------------------------- request *)

let manifest_entries text =
  (* One solve request per manifest entry line, comments and blanks
     skipped exactly like [Manifest.parse] would. *)
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None else Some line)

let request host port op manifest timeout =
  let module C = Tt_server.Client in
  let module P = Tt_server.Protocol in
  let module J = Tt_engine.Job in
  try
    C.with_connection ~host ~port (fun c ->
        match op with
        | "ping" -> (
            match C.call c P.Ping with
            | Ok P.Pong ->
                print_endline "pong";
                0
            | Ok _ | Error _ ->
                prerr_endline "unexpected reply to ping";
                1)
        | "stats" -> (
            match C.call c P.Stats with
            | Ok (P.Stats_reply j) ->
                print_endline (Tt_engine.Telemetry.Json.to_string j);
                0
            | Ok _ | Error _ ->
                prerr_endline "unexpected reply to stats";
                1)
        | "shutdown" -> (
            match C.call c P.Shutdown with
            | Ok P.Draining ->
                print_endline "draining";
                0
            | Ok _ | Error _ ->
                prerr_endline "unexpected reply to shutdown";
                1)
        | "solve" -> (
            match manifest with
            | None ->
                prerr_endline "request: --op solve needs a MANIFEST argument";
                1
            | Some path ->
                let text = In_channel.with_open_text path In_channel.input_all in
                let entries = manifest_entries text in
                let failures = ref 0 in
                let all =
                  List.concat_map
                    (fun entry ->
                      match C.solve c ?timeout_s:timeout entry with
                      | Ok reports -> reports
                      | Error e ->
                          Printf.eprintf "entry %S refused: %s\n" entry e;
                          incr failures;
                          [])
                    entries
                in
                List.iteri
                  (fun i (r : P.job_report) ->
                    Printf.printf "%4d  %-44s %-10s %s%s\n" i r.P.label
                      (String.sub r.P.job_id 0 10)
                      (J.result_to_string r.P.result)
                      (if r.P.cache_hit then "  [cached]"
                       else Printf.sprintf "  (%.3fs)" r.P.wall_s))
                  all;
                Printf.printf "results digest: %s\n" (P.sequence_digest all);
                if !failures > 0 then 1 else 0)
        | other ->
            Printf.eprintf "request: unknown --op %s\n" other;
            1)
  with
  | Unix.Unix_error (e, _, _) ->
      Printf.eprintf "request: cannot reach %s:%d: %s\n" host port
        (Unix.error_message e);
      1
  | Sys_error e ->
      Printf.eprintf "request: %s\n" e;
      1

let request_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST")
  in
  let port =
    Arg.(value & opt int 7411 & info [ "port"; "p" ] ~docv:"PORT")
  in
  let op =
    Arg.(value & opt string "solve"
         & info [ "op" ] ~docv:"OP" ~doc:"solve, ping, stats or shutdown.")
  in
  let manifest =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"MANIFEST"
         ~doc:"Manifest whose entries are sent as solve requests, in \
               order, over one connection — the printed results digest \
               matches 'treetrav batch MANIFEST'.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-request deadline.")
  in
  Cmd.v
    (Cmd.info "request" ~doc:"Send one client request to a running server.")
    Term.(const request $ host $ port $ op $ manifest $ timeout)

(* ------------------------------------------------------------- loadgen *)

let loadgen host port connections requests seed timeout rate open_loop
    batch_share entries_file mix chaos retries read_timeout connect_timeout
    tag cluster =
  let module L = Tt_server.Loadgen in
  if batch_share < 0. || batch_share > 1. then begin
    prerr_endline "loadgen: --priority-mix must be in [0, 1]";
    exit 2
  end;
  let entries =
    match entries_file with
    | Some path ->
        let text = In_channel.with_open_text path In_channel.input_all in
        Array.of_list (manifest_entries text)
    | None -> (
        match L.entries_of_mix mix with
        | Some entries -> entries
        | None ->
            Printf.eprintf "loadgen: unknown --mix %S (expected %s)\n" mix
              (String.concat ", " (List.map fst L.mixes));
            exit 2)
  in
  let chaos =
    match chaos with
    | None -> None
    | Some spec -> (
        match Tt_server.Netfault.faults_of_string spec with
        | Ok f -> Some f
        | Error e ->
            Printf.eprintf "loadgen: bad --chaos spec: %s\n" e;
            exit 2)
  in
  if Array.length entries = 0 then begin
    prerr_endline "loadgen: entries file has no manifest entries";
    1
  end
  else begin
    if chaos <> None && cluster <> None then begin
      prerr_endline "loadgen: --chaos and --cluster are incompatible";
      exit 2
    end;
    let retry =
      if retries = 0 then Tt_engine.Retry.none
      else Tt_engine.Retry.create ~retries ~seed ()
    in
    (* --cluster MAP swaps the per-connection client for a shard-aware
       one routing directly on the ring — no router hop. Shared shard
       metrics let the run report observed forwards/failovers. *)
    let shard_metrics, solver =
      match cluster with
      | None -> (None, None)
      | Some map -> (
          match Tt_shard.Ring.of_string map with
          | Error e ->
              Printf.eprintf "loadgen: bad --cluster map: %s\n" e;
              exit 2
          | Ok ring ->
              let m = Tt_shard.Metrics.create () in
              ( Some m,
                Some
                  (Tt_shard.Shard_client.loadgen_solver
                     ?connect_timeout_s:connect_timeout
                     ~read_timeout_s:read_timeout ~retry ~metrics:m ring) ))
    in
    let cfg =
      { L.host;
        port;
        connections;
        requests;
        seed;
        entries;
        timeout_s = timeout;
        mode =
          (* --open-loop is a total target rate, split across the
             connections; --rate is already per-connection. *)
          (match (open_loop, rate) with
          | Some total, _ -> L.Open (total /. float_of_int (max 1 connections))
          | None, Some r -> L.Open r
          | None, None -> L.Closed);
        batch_share;
        retry;
        read_timeout_s = read_timeout;
        connect_timeout_s = connect_timeout;
        chaos;
        tag;
        solver
      }
    in
    let s = L.run cfg in
    print_string (L.summary_to_string s);
    Option.iter
      (fun m ->
        let snap = Tt_shard.Metrics.snapshot m in
        Printf.printf "cluster: %d forwards, %d failovers, %d unrouted\n"
          snap.Tt_shard.Metrics.forwards_total snap.Tt_shard.Metrics.failovers
          snap.Tt_shard.Metrics.unrouted)
      shard_metrics;
    if s.L.transport_errors > 0 then 1 else 0
  end

let loadgen_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST")
  in
  let port =
    Arg.(value & opt int 7411 & info [ "port"; "p" ] ~docv:"PORT")
  in
  let connections =
    Arg.(value & opt int 2
         & info [ "connections"; "c" ] ~docv:"N" ~doc:"Concurrent client connections.")
  in
  let requests =
    Arg.(value & opt int 100
         & info [ "requests"; "n" ] ~docv:"N" ~doc:"Total solve requests.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-request deadline.")
  in
  let rate =
    Arg.(value & opt (some float) None
         & info [ "rate" ] ~docv:"RPS"
             ~doc:"Open-loop target rate per connection (requests/second); \
                   default is closed-loop.")
  in
  let open_loop =
    Arg.(value & opt (some float) None
         & info [ "open-loop" ] ~docv:"RPS"
             ~doc:"Open-loop target rate for the whole run (requests/second \
                   across all connections — the overload drill's knob); \
                   overrides --rate.")
  in
  let batch_share =
    Arg.(value & opt float 0.
         & info [ "priority-mix"; "batch-share" ] ~docv:"FRAC"
             ~doc:"Fraction of requests sent at batch priority (0 to 1, \
                   default 0 — all interactive). Batch traffic sheds first \
                   under overload; the summary breaks goodput down per \
                   class.")
  in
  let entries_file =
    Arg.(value & opt (some file) None
         & info [ "entries" ] ~docv:"MANIFEST"
             ~doc:"Draw solve entries from this manifest instead of the \
                   built-in mixed workload (overrides --mix).")
  in
  let mix =
    Arg.(value & opt string "core"
         & info [ "mix" ] ~docv:"MIX"
             ~doc:"Built-in entry mix: 'core' (the classic solver jobs), \
                   'sched' (par-schedule and pareto jobs), or 'all'. The \
                   summary's jobs line breaks results down per kind.")
  in
  let chaos =
    Arg.(value & opt (some string) None
         & info [ "chaos" ] ~docv:"SPEC"
             ~doc:"Route traffic through an in-process seeded fault proxy, \
                   e.g. 'drop=0.05,trunc=0.03,stall=0.1,split=0.3,seed=9'. \
                   Pair with --retries so requests survive the faults.")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Client-side retry budget per request (capped exponential \
                   backoff; retried solves are deduplicated server-side via \
                   idempotency keys).")
  in
  let read_timeout =
    Arg.(value & opt float 30.
         & info [ "read-timeout" ] ~docv:"SECONDS"
             ~doc:"Per-reply read deadline; a timed-out read counts as a \
                   transport error and triggers a retry.")
  in
  let connect_timeout =
    Arg.(value & opt (some float) None
         & info [ "connect-timeout" ] ~docv:"SECONDS"
             ~doc:"Bound on establishing each connection; a dead-but-routable \
                   endpoint otherwise blocks for the kernel's SYN-retry \
                   budget.")
  in
  let tag =
    Arg.(value & opt string "lg"
         & info [ "tag" ] ~docv:"TAG"
             ~doc:"Idempotency-key namespace. Two runs against one server \
                   must use distinct tags (or the second run is answered \
                   from the first's replay cache).")
  in
  let cluster =
    Arg.(value & opt (some string) None
         & info [ "cluster" ] ~docv:"MAP"
             ~doc:"Route directly on a shard ring instead of one endpoint: \
                   MAP is 'name=host:port,...' (names optional). Each \
                   connection runs a shard-aware client with failover; \
                   --host/--port are ignored. Incompatible with --chaos.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running server with a deterministic seeded workload.")
    Term.(const loadgen $ host $ port $ connections $ requests $ seed
          $ timeout $ rate $ open_loop $ batch_share $ entries_file $ mix
          $ chaos $ retries $ read_timeout $ connect_timeout $ tag $ cluster)


(* ------------------------------------------------------------- cluster *)

let cluster shards workers vnodes port queue no_peering kill_shard
    kill_after supervise restart_delay join_after leave_shard leave_after =
  let module Cl = Tt_shard.Cluster in
  if shards < 1 then begin
    prerr_endline "cluster: --shards must be at least 1";
    exit 2
  end;
  let kill_after =
    match kill_after with
    | None -> None
    | Some n ->
        if kill_shard < 0 || kill_shard >= shards then begin
          prerr_endline "cluster: --kill-shard out of range";
          exit 2
        end;
        Some (kill_shard, n)
  in
  (match leave_after with
  | Some _ when leave_shard < 0 || leave_shard >= shards ->
      prerr_endline "cluster: --leave-shard out of range";
      exit 2
  | _ -> ());
  let router_config = { Tt_shard.Router.default_config with port } in
  let server_config =
    { Tt_server.Server.default_config with queue_capacity = queue }
  in
  let on_event e =
    Printf.printf "event: %s\n" (Cl.event_to_string e);
    flush stdout
  in
  let t =
    Cl.start ~shards ~workers ?vnodes ~peering:(not no_peering) ~supervise
      ~restart_delay_s:restart_delay ~on_event ~router_config ~server_config
      ?kill_after ()
  in
  Printf.printf "cluster: %d shards behind router 127.0.0.1:%d%s\n" shards
    (Cl.router_port t)
    (if supervise then " (supervised)" else "");
  Printf.printf "map: %s\n" (Tt_shard.Ring.to_string (Cl.ring t));
  flush stdout;
  (* --join/--leave-after-requests: live membership drills triggered
     by the router's forward count — deterministic under load, like
     --kill-after-requests. *)
  let membership_watch =
    match (join_after, leave_after) with
    | None, None -> None
    | _ ->
        Some
          (Domain.spawn (fun () ->
               let forwards () =
                 (Cl.snapshot t).Tt_shard.Metrics.forwards_total
               in
               let join_pending = ref join_after in
               let leave_pending = ref leave_after in
               while
                 (not (Cl.stopped t))
                 && (!join_pending <> None || !leave_pending <> None)
               do
                 let n = forwards () in
                 (match !join_pending with
                 | Some k when n >= k ->
                     join_pending := None;
                     ignore (Cl.join t)
                 | _ -> ());
                 (match !leave_pending with
                 | Some k when n >= k ->
                     leave_pending := None;
                     (try Cl.leave t leave_shard
                      with Invalid_argument e ->
                        Printf.printf "leave refused: %s\n" e;
                        flush stdout)
                 | _ -> ());
                 Unix.sleepf 0.02
               done))
  in
  let stop_signal _ = Cl.request_stop t in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
  (* Park until a signal lands or a client shutdown frame stops the
     router; teardown is graceful either way. *)
  while not (Cl.stopped t) do
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Option.iter Domain.join membership_watch;
  Cl.stop t;
  print_string (Cl.prometheus t);
  Printf.printf "cluster drained cleanly\n";
  0

let cluster_cmd =
  let shards =
    Arg.(value & opt int 3
         & info [ "shards" ] ~docv:"N" ~doc:"Shard servers to run.")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers"; "w" ] ~docv:"N" ~doc:"Worker domains per shard.")
  in
  let vnodes =
    Arg.(value & opt (some int) None
         & info [ "vnodes" ] ~docv:"N"
             ~doc:"Virtual nodes per shard on the hash ring (default 64).")
  in
  let port =
    Arg.(value & opt int 0
         & info [ "port"; "p" ] ~docv:"PORT"
             ~doc:"Router port (0 picks an ephemeral port, printed on \
                   startup; shards always bind ephemeral ports).")
  in
  let queue =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"N" ~doc:"Admission queue per shard.")
  in
  let no_peering =
    Arg.(value & flag
         & info [ "no-peering" ]
             ~doc:"Disable cross-shard cache peeking (each shard computes \
                   every miss locally).")
  in
  let kill_shard =
    Arg.(value & opt int 0
         & info [ "kill-shard" ] ~docv:"I"
             ~doc:"Which shard --kill-after-requests takes down.")
  in
  let kill_after =
    Arg.(value & opt (some int) None
         & info [ "kill-after-requests" ] ~docv:"N"
             ~doc:"Chaos hook: gracefully kill --kill-shard once the router \
                   has forwarded N ops — a deterministic mid-run shard \
                   failure for failover drills.")
  in
  let supervise =
    Arg.(value & flag
         & info [ "supervise" ]
             ~doc:"Self-heal: a supervisor domain restarts dead shards on \
                   their original port with their cache after \
                   --restart-delay seconds.")
  in
  let restart_delay =
    Arg.(value & opt float 0.3
         & info [ "restart-delay" ] ~docv:"S"
             ~doc:"How long a shard stays down before the supervisor \
                   restarts it.")
  in
  let join_after =
    Arg.(value & opt (some int) None
         & info [ "join-after-requests" ] ~docv:"N"
             ~doc:"Membership drill: boot and ring-add one new shard once \
                   the router has forwarded N ops.")
  in
  let leave_shard =
    Arg.(value & opt int 0
         & info [ "leave-shard" ] ~docv:"I"
             ~doc:"Which shard --leave-after-requests removes.")
  in
  let leave_after =
    Arg.(value & opt (some int) None
         & info [ "leave-after-requests" ] ~docv:"N"
             ~doc:"Membership drill: gracefully remove --leave-shard from \
                   the ring once the router has forwarded N ops.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Run N local shards behind a consistent-hash router \
             (SIGINT/SIGTERM drain gracefully).")
    Term.(const cluster $ shards $ workers $ vnodes $ port $ queue
          $ no_peering $ kill_shard $ kill_after $ supervise $ restart_delay
          $ join_after $ leave_shard $ leave_after)

(* ------------------------------------------------------------- nemesis *)

let nemesis seed steps shards max_shards requests connections step_gap
    restart_delay plan_only =
  let module N = Tt_shard.Nemesis in
  let cfg =
    { N.default_config with
      seed;
      steps;
      shards;
      max_shards;
      requests;
      connections;
      step_gap_s = step_gap;
      restart_delay_s = restart_delay
    }
  in
  match N.plan cfg with
  | exception Invalid_argument e ->
      Printf.eprintf "nemesis: %s\n" e;
      2
  | faults ->
      if plan_only then begin
        (* Schedule only, no cluster: printed twice and diffed by
           `make chaos-nemesis` to assert seed determinism. *)
        print_string (N.plan_to_string faults);
        0
      end
      else begin
        Printf.printf "nemesis: seed %d, %d steps against %d shards\n" seed
          steps shards;
        flush stdout;
        let r = N.run cfg in
        print_string (N.report_to_string r);
        match N.check r with
        | Ok () ->
            Printf.printf "nemesis invariants hold\n";
            0
        | Error e ->
            Printf.printf "nemesis FAILED: %s\n" e;
            1
      end

let nemesis_cmd =
  let seed =
    Arg.(value & opt int Tt_shard.Nemesis.default_config.seed
         & info [ "seed" ] ~docv:"N"
             ~doc:"Schedule seed — the whole fault sequence is a pure \
                   function of it.")
  in
  let steps =
    Arg.(value & opt int Tt_shard.Nemesis.default_config.steps
         & info [ "steps" ] ~docv:"N" ~doc:"Schedule length.")
  in
  let shards =
    Arg.(value & opt int Tt_shard.Nemesis.default_config.shards
         & info [ "shards" ] ~docv:"N" ~doc:"Initial ring size (at least 2).")
  in
  let max_shards =
    Arg.(value & opt int Tt_shard.Nemesis.default_config.max_shards
         & info [ "max-shards" ] ~docv:"N"
             ~doc:"Joins are only scheduled below this.")
  in
  let requests =
    Arg.(value & opt int Tt_shard.Nemesis.default_config.requests
         & info [ "requests" ] ~docv:"N"
             ~doc:"Load issued while the schedule runs.")
  in
  let connections =
    Arg.(value & opt int Tt_shard.Nemesis.default_config.connections
         & info [ "connections" ] ~docv:"N" ~doc:"Load-generator domains.")
  in
  let step_gap =
    Arg.(value & opt float Tt_shard.Nemesis.default_config.step_gap_s
         & info [ "step-gap" ] ~docv:"S"
             ~doc:"Wall-clock gap between schedule steps.")
  in
  let restart_delay =
    Arg.(value & opt float Tt_shard.Nemesis.default_config.restart_delay_s
         & info [ "restart-delay" ] ~docv:"S"
             ~doc:"Supervisor restart delay — long enough for breakers to \
                   open while a shard is down.")
  in
  let plan_only =
    Arg.(value & flag
         & info [ "plan-only" ]
             ~doc:"Print the seeded fault schedule and exit without \
                   running a cluster.")
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:"Drive a seeded deterministic fault schedule (kill / stall / \
             partition / join / leave) against a supervised local cluster \
             under load, then check digest parity, zero lost admitted \
             requests and bounded recovery.")
    Term.(const nemesis $ seed $ steps $ shards $ max_shards $ requests
          $ connections $ step_gap $ restart_delay $ plan_only)

(* ------------------------------------------------------------ overload *)

let overload seed shards workers queue requests connections batch_share
    deadline overdrive floor =
  let module O = Tt_shard.Overload_nemesis in
  let cfg =
    { O.default_config with
      seed;
      shards;
      workers;
      queue_capacity = queue;
      requests;
      connections;
      batch_share;
      deadline_s = deadline;
      overdrive;
      interactive_floor = floor
    }
  in
  Printf.printf "overload: seed %d, %d shards, %.1fx overdrive, %.2fs budget\n"
    seed shards overdrive deadline;
  flush stdout;
  match O.run cfg with
  | exception Invalid_argument e ->
      Printf.eprintf "overload: %s\n" e;
      2
  | r -> (
      print_string (O.report_to_string r);
      match O.check r with
      | Ok () ->
          Printf.printf "overload invariants hold\n";
          0
      | Error e ->
          Printf.printf "overload FAILED: %s\n" e;
          1)

let overload_cmd =
  let d = Tt_shard.Overload_nemesis.default_config in
  let seed =
    Arg.(value & opt int d.seed
         & info [ "seed" ] ~docv:"N"
             ~doc:"Run seed — idems, priorities and the hedge gate are \
                   pure functions of it.")
  in
  let shards =
    Arg.(value & opt int d.shards
         & info [ "shards" ] ~docv:"N" ~doc:"Ring size (at least 2).")
  in
  let workers =
    Arg.(value & opt int d.workers
         & info [ "workers" ] ~docv:"N" ~doc:"Worker domains per shard.")
  in
  let queue =
    Arg.(value & opt int d.queue_capacity
         & info [ "queue" ] ~docv:"N" ~doc:"Per-shard admission queue bound.")
  in
  let requests =
    Arg.(value & opt int d.requests
         & info [ "requests" ] ~docv:"N" ~doc:"Overload-phase request volume.")
  in
  let connections =
    Arg.(value & opt int d.connections
         & info [ "connections" ] ~docv:"N"
             ~doc:"Overload-phase client domains.")
  in
  let batch_share =
    Arg.(value & opt float d.batch_share
         & info [ "batch-share" ] ~docv:"FRAC"
             ~doc:"Fraction of overload traffic sent priority=batch.")
  in
  let deadline =
    Arg.(value & opt float d.deadline_s
         & info [ "deadline" ] ~docv:"S" ~doc:"Per-request budget.")
  in
  let overdrive =
    Arg.(value & opt float d.overdrive
         & info [ "overdrive" ] ~docv:"X"
             ~doc:"Offered rate as a multiple of the measured capacity.")
  in
  let floor =
    Arg.(value & opt float d.interactive_floor
         & info [ "interactive-floor" ] ~docv:"FRAC"
             ~doc:"Minimum interactive goodput fraction the gate demands.")
  in
  Cmd.v
    (Cmd.info "overload"
       ~doc:"Drive a cluster at a multiple of its measured capacity with \
             one shard stalled, then check every loss was typed, every \
             completion met its deadline and matched a clean oracle, batch \
             shed before interactive, and at least one hedge won.")
    Term.(const overload $ seed $ shards $ workers $ queue $ requests
          $ connections $ batch_share $ deadline $ overdrive $ floor)

(* ---------------------------------------------------------------- perf *)

let perf quick reps out kernels =
  let module MB = Tt_profile.Microbench in
  let mode = if quick then Tt_workloads.Perf_suite.Quick else Tt_workloads.Perf_suite.Full in
  let reps =
    match reps with Some r -> r | None -> Tt_workloads.Perf_suite.default_reps mode
  in
  let specs = Tt_workloads.Perf_suite.specs mode in
  let specs =
    match kernels with
    | [] -> specs
    | prefixes ->
        List.filter
          (fun (s : MB.spec) ->
            List.exists
              (fun p ->
                String.length s.MB.kernel >= String.length p
                && String.sub s.MB.kernel 0 (String.length p) = p)
              prefixes)
          specs
  in
  if specs = [] then begin
    prerr_endline "perf: no kernels match the given --kernel filters";
    1
  end
  else begin
    let results =
      MB.measure ~reps
        ~progress:(fun l -> Printf.printf "[perf] %s\n%!" l)
        specs
    in
    print_string (MB.render results);
    (match out with
    | Some path ->
        MB.write_json path results;
        Printf.printf "wrote %s (%d kernels, %d timed reps each)\n" path
          (List.length results) reps
    | None -> ());
    0
  end

let perf_cmd =
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"CI-smoke instance sizes (seconds) instead of the \
                   paper-scale suite.")
  in
  let reps =
    Arg.(value & opt (some int) None
         & info [ "reps" ] ~docv:"N"
             ~doc:"Timed repetitions per kernel (default 5, or 3 with \
                   $(b,--quick)).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out"; "o" ] ~docv:"FILE"
             ~doc:"Also write the machine-readable BENCH_CORE.json to FILE.")
  in
  let kernels =
    Arg.(value & opt_all string []
         & info [ "kernel" ] ~docv:"PREFIX"
             ~doc:"Only run kernels whose name starts with PREFIX \
                   (repeatable), e.g. 'minio/' or 'liu'.")
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:"Benchmark the core solvers on seeded instances; every timing \
             row carries a result digest, so runs double as regression \
             witnesses.")
    Term.(const perf $ quick $ reps $ out $ kernels)

(* --------------------------------------------------------- chaos-proxy *)

let chaos_proxy port upstream_host upstream_port faults =
  let module N = Tt_server.Netfault in
  let faults =
    match faults with
    | None -> N.none
    | Some spec -> (
        match N.faults_of_string spec with
        | Ok f -> f
        | Error e ->
            Printf.eprintf "chaos-proxy: bad --faults spec: %s\n" e;
            exit 2)
  in
  let p = N.create ~faults ~port ~upstream_host ~upstream_port () in
  Printf.printf "proxying 127.0.0.1:%d -> %s:%d (%s)\n" (N.port p)
    upstream_host upstream_port (N.faults_to_string faults);
  flush stdout;
  let stop_signal _ = N.request_stop p in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
  N.run p;
  let s = N.stats p in
  Printf.printf
    "proxy stats: %d conns, %d drops, %d truncations, %d stalls, %d splits, \
     %d bytes\n"
    s.N.connections s.N.drops s.N.truncations s.N.stalls s.N.splits
    s.N.forwarded_bytes;
  0

let chaos_proxy_cmd =
  let port =
    Arg.(value & opt int 0
         & info [ "port"; "p" ] ~docv:"PORT"
             ~doc:"Listening port (0 picks an ephemeral port, printed on \
                   startup).")
  in
  let upstream_host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "upstream-host" ] ~docv:"HOST")
  in
  let upstream_port =
    Arg.(required & opt (some int) None
         & info [ "upstream-port" ] ~docv:"PORT"
             ~doc:"The real server to forward to.")
  in
  let faults =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Seeded fault spec, e.g. \
                   'drop=0.05,trunc=0.03,stall=0.1,split=0.3,max-stall=0.02,\
                   window=256,seed=9'. Defaults to a transparent proxy.")
  in
  Cmd.v
    (Cmd.info "chaos-proxy"
       ~doc:"Run a deterministic TCP fault-injection proxy in front of a \
             server (SIGINT/SIGTERM stop it and print stats).")
    Term.(const chaos_proxy $ port $ upstream_host $ upstream_port $ faults)

let () =
  let doc = "memory-optimal tree traversals for sparse matrix factorization" in
  let info = Cmd.info "treetrav" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ generate_cmd; analyze_cmd; schedule_cmd; sched_cmd; corpus_cmd;
            batch_cmd; serve_cmd; request_cmd; loadgen_cmd; cluster_cmd;
            nemesis_cmd; overload_cmd; perf_cmd; chaos_proxy_cmd ]))

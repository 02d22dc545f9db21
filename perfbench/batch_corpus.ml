(* batch-corpus: [Executor.run_batch] in-process on 1 domain, each pass
   with a cold cache, over the paper's corpus at scale 1 with 30 jobs per
   tree — the Fig. 6 trio, six MinIO policies at four Fig. 7 budgets, and
   the three tt_sched schedulers.

   Why: it is the paper's own evaluation and the [treetrav batch] user.
   It loads core, sched, the engine and (through set-up) the pipeline,
   with no protocol, server or router work, which makes it the control
   for serving-side changes.

   One domain, not two: on a 2-vCPU machine, two busy domains meet at
   every stop-the-world minor collection, so one other runnable thread
   stalls both. On a 2-vCPU VM, one competing busy thread made a
   2-domain pass 1.8x slower while a 1-domain pass kept its time. *)

module Ex = Tt_engine.Executor
module Job = Tt_engine.Job
open Perfbench

let domains = 1
let setups = 5
let now = Unix.gettimeofday

(* [job_walls]: each job's own compute wall, from the executor's reports
   (cache hits, which take no time, left out). *)
type pass = { wall : float; job_walls : float array; failed : int; summary : Ex.summary }

(* Passes until [seconds] have elapsed. Each pass's results must equal
   the first pass's, position by position; [first] keeps that pass and
   the process's peak memory right after it. Each pass starts from a
   collected heap, so its time does not depend on when the previous
   pass's cache was collected. The peak is read after the first pass, a
   fixed amount of work: the high-water mark still creeps up pass after
   pass, and the number of passes in a window grows with the machine's
   speed. *)
let passes ~seconds ~spans ~jobs ~first =
  let deadline = now () +. seconds in
  let rec go acc =
    if acc <> [] && now () >= deadline then List.rev acc
    else begin
      Gc.full_major ();
      let ex = Ex.create ~domains () in
      let t0 = now () in
      let reports, summary = Spans.with_span spans "engine.run_batch" (fun _ -> Ex.run_batch ex jobs) in
      let wall = now () -. t0 in
      let failed =
        match !first with
        | None ->
            first := Some (reports, Cluster_proc.self_peak_rss_mb ());
            0
        | Some (base, _) ->
            let n = ref 0 in
            Array.iteri
              (fun i (r : Ex.report) ->
                if not (Job.equal_result r.result base.(i).Ex.result) then incr n)
              reports;
            !n
      in
      let job_walls =
        Array.of_list
          (Array.fold_right
             (fun (r : Ex.report) a -> if r.cache_hit then a else r.wall :: a)
             reports [])
      in
      go ({ wall; job_walls; failed = failed + summary.Ex.errors; summary } :: acc)
    end
  in
  go []

(* Jobs per second of [run_batch] wall over the passes [ps]. *)
let jobs_per_s n ps =
  float_of_int (n * List.length ps) /. List.fold_left (fun a p -> a +. p.wall) 0. ps

let run ~seed ~seconds ~trace ~spans_path =
  let spans = Spans.create ~enabled:trace in
  let times = Array.make setups 0. in
  let corpus = ref [||] in
  for k = 0 to setups - 1 do
    (* Free the previous build first, so each starts from the same heap. *)
    corpus := [||];
    Gc.full_major ();
    let t0 = now () in
    corpus := Spans.with_span spans "pipeline.dataset_corpus" (fun _ -> Streams.corpus ~seed);
    times.(k) <- now () -. t0
  done;
  let corpus = !corpus in
  let jobs = Streams.batch_jobs corpus in
  let njobs = List.length jobs in
  Printf.printf "workload batch-corpus seed %d: input digest %s (%d trees, %d jobs)\n%!" seed
    (Streams.batch_digest corpus) (Array.length corpus) njobs;
  let off = Spans.create ~enabled:false in
  let first = ref None in
  let ps, untraced =
    Spans.bracket ~trace ~seconds (fun ~traced seconds ->
        passes ~seconds ~spans:(if traced then spans else off) ~jobs ~first)
  in
  let untraced = List.concat untraced in
  let base, rss = Option.get !first in
  Printf.printf "results digest %s\n" (Ex.results_digest base);
  let traversal_errors =
    List.concat (List.mapi (fun i (j : Job.t) -> Checks.traversal_errors j base.(i).Ex.result) jobs)
  in
  let all = ps @ untraced in
  let attempted = njobs * List.length all in
  let failed =
    List.fold_left (fun a p -> a + p.failed) 0 all + List.length traversal_errors
  in
  let thr = jobs_per_s njobs ps in
  let job_walls = Array.concat (List.map (fun p -> p.job_walls) ps) in
  let e2e =
    [ Output.metric "setup_s" "s" (Stats.median_value times) ~samples:setups
        ~note:"Dataset.corpus build, median";
      Output.metric "throughput_per_s" "1/s" thr ~samples:(List.length ps)
        ~note:"jobs_per_s: jobs / Executor.run_batch wall, over all passes";
      Output.metric "latency_p50_ms" "ms" (1000. *. Stats.median_value job_walls)
        ~samples:(Array.length job_walls) ~note:"one job's compute wall, median over all passes";
      Output.metric "peak_rss_mb" "MB" rss ~samples:1
        ~note:"VmHWM of the benchmark process after set-up and the first pass"
    ]
  in
  let extra =
    [ Output.metric "error_ratio" "ratio"
        (float_of_int failed /. float_of_int (max 1 attempted))
        ~samples:attempted ~note:"crashed, timed-out or wrong jobs / jobs" ]
  in
  let layers =
    if not trace then []
    else begin
      (* Replay one pass job by job: Job.id, a 1-domain run_batch, then
         Job.compute with MinMem passed in as the executor does. *)
      List.iter (fun j -> ignore (Spans.with_span spans "engine.job_id" (fun _ -> Job.id j))) jobs;
      let ex = Ex.create ~domains:1 () in
      ignore (Spans.with_span spans "engine.replay_run_batch" (fun _ -> Ex.run_batch ex jobs));
      List.iter (Compute.replay ~spans ex) jobs;
      let total = Spans.total spans in
      let compute = Compute.busy spans in
      let overhead = Float.max 0. (total "engine.replay_run_batch" -. compute) in
      let median_pass = List.nth ps (List.length ps / 2) in
      let s = median_pass.summary in
      let mean_wall = float_of_int njobs /. thr in
      let untraced_thr = jobs_per_s njobs untraced in
      Compute.metrics spans
      @ [ ("pipeline.trees", float_of_int (Array.length corpus));
        ("pipeline.busy_s", Stats.median_value times);
        ("engine.job_id_ms", 1000. *. Stats.median_value (Spans.durations spans "engine.job_id"));
        ("engine.overhead_s", overhead);
        ("engine.cache_hits", float_of_int s.Ex.cache_hits);
        ("engine.cache_misses", float_of_int s.Ex.cache_misses);
        ( "engine.cache_hit_ratio",
          float_of_int s.Ex.cache_hits /. float_of_int (max 1 (s.Ex.cache_hits + s.Ex.cache_misses)) );
        ("engine.utilization", Ex.utilization s);
        ( "trace.unattributed_s",
          Float.max 0. ((mean_wall *. float_of_int domains) -. compute -. overhead) );
        ("trace.overhead_pct", 100. *. (untraced_thr -. thr) /. untraced_thr)
      ]
    end
  in
  if trace then Spans.write spans spans_path;
  let errors =
    traversal_errors
    @ List.filter_map
        (fun p -> if p.failed > 0 then Some (Printf.sprintf "%d jobs failed or differ from the first pass" p.failed) else None)
        all
  in
  { Output.e2e; extra; layers; attempted; failed; errors }

(* Replayed [Job.compute] calls, one span per job named by the layer the
   solver belongs to, and the [core.*] / [sched.*] figures they give. *)

module Job = Tt_engine.Job

let span_name (job : Job.t) =
  match job.spec with
  | Job.Min_memory Job.Minmem -> "core.minmem"
  | Job.Min_memory Job.Liu -> "core.liu"
  | Job.Min_memory Job.Postorder -> "core.postorder"
  | Job.Min_io _ -> "core.minio"
  | Job.Approx_memory _ -> "core.approx"
  | Job.Schedule _ | Job.Par_schedule _ | Job.Pareto_sweep _ -> "sched"

let core_spans = [ "core.minmem"; "core.liu"; "core.postorder"; "core.minio"; "core.approx" ]

(* [Job.compute] with the MinMem preprocessing passed in as the executor
   passes it — from the cache of [ex], which has run the same jobs — so
   the span times the solver alone. *)
let replay ~spans ?parent ?req ex (job : Job.t) =
  let minmem =
    if not (Job.needs_minmem job) then None
    else
      let pre = Job.make job.tree (Job.Min_memory Job.Minmem) in
      match Tt_engine.Cache.find (Tt_engine.Executor.cache ex) (Job.id pre) with
      | Some (Job.Memory { peak; order }) -> Some (peak, order)
      | _ -> Some (Tt_core.Minmem.run job.tree)
  in
  ignore (Spans.with_span spans ?parent ?req (span_name job) (fun _ -> Job.compute ?minmem job))

(* Total replayed solver time, core and sched together. *)
let busy spans =
  List.fold_left (fun a n -> a +. Spans.total spans n) 0. ("sched" :: core_spans)

let metrics spans =
  let total = Spans.total spans in
  [ ("core.jobs", float_of_int (List.fold_left (fun a n -> a + Spans.count spans n) 0 core_spans));
    ("core.busy_s", List.fold_left (fun a n -> a +. total n) 0. core_spans);
    ("core.minmem.busy_s", total "core.minmem");
    ("core.liu.busy_s", total "core.liu");
    ("core.postorder.busy_s", total "core.postorder");
    ("core.minio.busy_s", total "core.minio");
    ("sched.jobs", float_of_int (Spans.count spans "sched"));
    ("sched.busy_s", total "sched")
  ]

(* What a run prints: one [metric] line per figure (name, value, unit,
   sample count), then, as the last line of standard output, the JSON
   result object. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  note : string;
}

let metric ?(note = "") ~samples name unit_ value = { name; value; unit_; samples; note }

(* The metrics BENCHMARK.json lists, with their units, in report order;
   a test keeps the two in step. Every workload reports every
   end-to-end metric; a traced run reports every per-layer metric, and a
   layer the workload does not exercise reads 0. *)
let end_to_end =
  [ ("setup_s", "s"); ("throughput_per_s", "1/s"); ("latency_p50_ms", "ms"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("core.jobs", "count"); ("core.busy_s", "s"); ("core.minmem.busy_s", "s");
    ("core.liu.busy_s", "s"); ("core.postorder.busy_s", "s"); ("core.minio.busy_s", "s");
    ("sched.jobs", "count"); ("sched.busy_s", "s");
    ("huge.gen_s", "s"); ("huge.approx_s", "s"); ("huge.rounds", "count");
    ("huge.minor_words", "words"); ("huge.major_words", "words"); ("huge.top_heap_mb", "MB");
    ("pipeline.trees", "count"); ("pipeline.busy_s", "s");
    ("engine.parse_s", "s"); ("engine.job_id_ms", "ms"); ("engine.overhead_s", "s");
    ("engine.cache_hits", "count"); ("engine.cache_misses", "count");
    ("engine.cache_hit_ratio", "ratio"); ("engine.utilization", "ratio");
    ("protocol.request_bytes", "B"); ("protocol.response_bytes", "B");
    ("protocol.encode_s", "s"); ("protocol.decode_s", "s");
    ("server.solve_p50_ms", "ms"); ("server.solve_p99_ms", "ms"); ("server.self_s", "s");
    ("server.queue_depth_max", "count"); ("server.errors", "count"); ("server.sheds", "count");
    ("server.worker_restarts", "count");
    ("router.self_s", "s"); ("router.forwards", "count"); ("router.failovers", "count");
    ("router.unrouted", "count"); ("router.hedges", "count"); ("router.hedge_win_ratio", "ratio");
    ("peer.hits", "count"); ("peer.misses", "count"); ("peer.hit_ratio", "ratio");
    ("trace.unattributed_s", "s"); ("trace.overhead_pct", "%")
  ]

let print_metric m =
  Printf.printf "metric %-24s %16.6f %-6s n=%d%s\n" m.name m.value m.unit_ m.samples
    (if m.note = "" then "" else "  (" ^ m.note ^ ")")

(* Per-layer table of a traced run, grouped by the prefix before the
   first dot. *)
let print_layers ms =
  Printf.printf "%-10s %-26s %16s  %s\n" "layer" "metric" "value" "unit";
  List.iter
    (fun m ->
      let layer = match String.index_opt m.name '.' with Some i -> String.sub m.name 0 i | None -> m.name in
      Printf.printf "%-10s %-26s %16.6f  %s\n" layer m.name m.value m.unit_)
    ms

let result_line ~correct ~attempted ~failed ms =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_)
      ms
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)

(* What a workload hands back to the main loop in [bench.ml]. [e2e]
   are the end-to-end metrics of BENCHMARK.json (untraced runs only);
   [extra] are figures printed but not gated; [layers] are the traced
   run's per-layer values by name. *)
type run = {
  e2e : metric list;
  extra : metric list;
  layers : (string * float) list;
  attempted : int;
  failed : int;
  errors : string list;
}

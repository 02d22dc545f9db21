(* The serving workloads: a 2-shard, 1-worker-per-shard cluster in its
   own process, driven through its router by 2 closed-loop connections
   (each sends its next request when the previous reply lands — a
   solver waiting for its traversal).

   cluster-hot: the loadgen [all] mix (15 [gen] entries, trees of 9-94
   nodes) in a seeded order, after a warm-up pass has cached every job.
   Why: it is the traffic every smoke and chaos gate uses. Every job is
   a cache hit and the router's route memo answers, so its time goes to
   the pipeline (each [gen] source is rebuilt per request on the shard's
   I/O domain), server, router and protocol frames under 1 KB; the core
   solvers are bypassed, so a core change must leave it unmoved.

   cluster-cold: a seeded stream of unique trees — a corpus assembly
   tree (18-2,256 nodes) re-weighted per request as in Fig. 9 — sent as
   a [tree] literal with six jobs. Warm-up uses trees that are not in
   the timed stream. Why: it is what a solver integration sends, so
   every job misses the cache and the work falls on core, sched, the
   engine (Job.id on large trees), protocol (frames of up to about
   45 KB) and peer misses, with none on the pipeline.

   The two use the same layers in opposite ways — cache reads vs misses
   with inserts and cross-shard peeks, route-memo hits vs fresh route
   keys — so a gain for one that costs the other shows. *)

module P = Tt_server.Protocol
module Job = Tt_engine.Job
module Ex = Tt_engine.Executor
open Perfbench

type kind = Hot | Cold

let connections = 2
let setups = 5
let cold_warmup = 30

(* Untimed traffic between set-up and the window, a fixed number of
   requests per connection (about 10 s of each workload's traffic): a
   fresh cluster's latency keeps falling for its first seconds under
   load (a warm hot cluster answers about 20 % faster after 10 s than in
   its first 5 s), and the window should not straddle that transient.

   [peak_rss_mb] is read when the settle traffic ends. Cold traffic
   fills the shards' caches, which have no size limit, so a peak read
   after a timed window would grow with the number of requests the
   window served: a faster cluster would look bigger. After a fixed
   number of requests it is the memory of a fixed amount of work. Cold
   settles on 192 requests per connection, one pass over the 192-tree
   corpus deck. *)
let settle_requests = function Hot -> 1050 | Cold -> 192
let digest_prefix = 100

type sample = {
  entry : string;
  idem : string;
  latency_s : float;
  reply : (P.job_report list, string) result;
}

let now = Unix.gettimeofday

(* A client connection, kept open across the windows of a run as a
   solver keeps its connection; a failed request drops it and the next
   request reconnects. *)
type client = { port : int; mutable conn : Tt_server.Client.t option }

let drop c =
  Option.iter Tt_server.Client.close c.conn;
  c.conn <- None

let solve c ~idem entry =
  let conn =
    match c.conn with
    | Some conn -> conn
    | None ->
        let conn = Tt_server.Client.connect ~port:c.port () in
        c.conn <- Some conn;
        conn
  in
  let reply =
    match Tt_server.Client.solve conn ~idem entry with
    | r -> r
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  if Result.is_error reply then drop c;
  reply

(* How long a connection keeps sending: a timed window, or a fixed
   number of requests. *)
type until = Seconds of float | Requests of int

(* One closed-loop connection until [stop i] holds before request [i]. *)
let client_loop c ~stop ~next ~tag ~spans =
  let rec loop i acc =
    if stop i then List.rev acc
    else begin
      let entry = next () in
      let idem = Printf.sprintf "%s-r%d" tag i in
      let t0 = now () in
      let reply = solve c ~idem entry in
      let t1 = now () in
      Spans.add spans "client.request" ~req:idem ~start:t0 ~stop:t1;
      loop (i + 1) ({ entry; idem; latency_s = t1 -. t0; reply } :: acc)
    end
  in
  loop 0 []

(* A window: one client domain per connection, each drawing from its
   own seeded stream. Returns the samples and the window's wall time
   (until the last in-flight reply landed). *)
let window ~clients ~until ~nexts ~tag ~spans =
  let t0 = now () in
  let stop =
    match until with
    | Seconds s ->
        let deadline = t0 +. s in
        fun _ -> now () >= deadline
    | Requests n -> fun i -> i >= n
  in
  let domains =
    Array.mapi
      (fun i next ->
        Domain.spawn (fun () ->
            client_loop clients.(i) ~stop ~next ~tag:(Printf.sprintf "%s-c%d" tag i) ~spans))
      nexts
  in
  let samples = Array.to_list domains |> List.concat_map Domain.join in
  (samples, now () -. t0)

let warm_up ~port ~tag entries =
  Tt_server.Client.with_connection ~port (fun c ->
      List.iteri
        (fun i entry ->
          match Tt_server.Client.solve c ~idem:(Printf.sprintf "%s-w%d" tag i) entry with
          | Ok _ -> ()
          | Error e -> failwith ("warm-up request failed: " ^ e))
        entries)

(* Set-up = cluster boot plus warm-up, done [setups] times; the last
   cluster is kept for the window, the others are drained. *)
let boot ~exe ~tag ~warmup =
  let times = ref [] in
  let rec go k =
    let t0 = now () in
    let cl = Cluster_proc.start ~exe in
    (try warm_up ~port:cl.Cluster_proc.router_port ~tag:(Printf.sprintf "%s-s%d" tag k) warmup
     with e ->
       Cluster_proc.stop cl;
       raise e);
    times := (now () -. t0) :: !times;
    if k + 1 < setups then begin
      Cluster_proc.stop cl;
      go (k + 1)
    end
    else cl
  in
  let cl = go 0 in
  (cl, Array.of_list !times)

type snapshot = {
  router : Layers.router;
  shard_stats : Layers.shard list;
  peer : int * int;
}

let snapshot cl =
  let rj = Cluster_proc.stats ~port:cl.Cluster_proc.router_port in
  { router = Layers.router_of_json rj;
    shard_stats =
      List.map
        (fun port -> Layers.shard_of_json (Cluster_proc.stats ~port))
        (Cluster_proc.shard_ports rj);
    peer = Cluster_proc.peer_counters cl
  }

(* --- the in-process replay of a traced window ----------------------- *)

(* A [gen] source's (kind, size, seed), for rebuilding it outside the
   manifest; [None] for other sources. *)
let gen_source entry =
  let n = String.length entry in
  let rec sep i = if i + 1 >= n then n else if entry.[i] = ':' && entry.[i + 1] = ':' then i else sep (i + 1) in
  match String.split_on_char ' ' (String.sub entry 0 (sep 0)) |> List.filter (( <> ) "") with
  | "gen" :: kind :: rest ->
      let kv k d =
        List.find_map
          (fun s ->
            match String.split_on_char '=' s with
            | [ k'; v ] when k' = k -> int_of_string_opt v
            | _ -> None)
          rest
        |> Option.value ~default:d
      in
      Some (kind, kv "size" 20, kv "seed" 42)
  | _ -> None

(* The same Spgen family and Pipeline defaults the manifest uses. *)
let gen_tree (kind, size, seed) =
  let rng = Tt_util.Rng.create seed in
  let module S = Tt_sparse.Spgen in
  let m =
    match kind with
    | "grid2d" -> S.grid2d size
    | "grid9" -> S.grid2d_9pt size
    | "grid3d" -> S.grid3d size
    | "banded" -> S.banded ~rng ~n:size ~bandwidth:(max 2 (size / 50)) ~fill:0.4
    | "random" -> S.random_sym ~rng ~n:size ~nnz_per_row:3.0
    | "arrow" -> S.block_arrow ~n:size ~blocks:8 ~border:(max 2 (size / 40))
    | "powerlaw" -> S.power_law ~rng ~n:size ~edges_per_node:2
    | "tridiagonal" -> S.tridiagonal size
    | k -> failwith ("replay: unknown gen kind " ^ k)
  in
  (Tt_workloads.Pipeline.assembly_tree m).Tt_etree.Assembly.tree

type replay = {
  request_bytes : int;
  response_bytes : int;
  pipeline_errors : string list;
}

(* Replays each answered request of the traced window in this process,
   one layer call per span: decode the request frame, parse the
   manifest entry (and rebuild [gen] sources), run the jobs on a
   1-domain executor, recompute the jobs the shard did not have cached,
   encode and decode the response. *)
let replay ~spans ~ex samples =
  let req_bytes = ref 0 and resp_bytes = ref 0 and errors = ref [] in
  List.iter
    (fun s ->
      match s.reply with
      | Error _ -> ()
      | Ok reports ->
          let req = s.idem in
          Spans.with_span spans ~req "replay" (fun parent ->
              let sp name f = Spans.with_span spans ~parent ~req name (fun _ -> f ()) in
              let frame =
                sp "protocol.encode" (fun () ->
                    P.encode_request
                      { P.id = req;
                        op = P.Solve { entry = s.entry; timeout_s = None; idem = Some req; priority = P.Interactive }
                      })
              in
              req_bytes := !req_bytes + String.length frame;
              ignore (sp "protocol.decode" (fun () -> P.decode_request frame));
              let jobs =
                match sp "engine.manifest_parse" (fun () -> Tt_engine.Manifest.parse s.entry) with
                | Ok jobs -> jobs
                | Error e -> failwith ("replay: " ^ e)
              in
              Option.iter
                (fun src ->
                  let tree = sp "pipeline.assembly_tree" (fun () -> gen_tree src) in
                  if Job.tree_digest tree <> Job.tree_digest (List.hd jobs).Job.tree then
                    errors := ("pipeline rebuild differs for " ^ s.entry) :: !errors)
                (gen_source s.entry);
              List.iter (fun j -> ignore (sp "engine.job_id" (fun () -> Job.id j))) jobs;
              ignore (sp "engine.run_batch" (fun () -> Ex.run_batch ex jobs));
              List.iter2
                (fun job (r : P.job_report) ->
                  if not r.cache_hit then Compute.replay ~spans ~parent ~req ex job)
                jobs reports;
              let resp =
                sp "protocol.encode" (fun () ->
                    P.encode_response { P.req_id = Some req; body = P.Results reports })
              in
              resp_bytes := !resp_bytes + String.length resp;
              ignore (sp "protocol.decode" (fun () -> P.decode_response resp))))
    samples;
  { request_bytes = !req_bytes; response_bytes = !resp_bytes; pipeline_errors = !errors }

(* --- checks ---------------------------------------------------------- *)

let ok_replies samples =
  List.filter_map (fun s -> match s.reply with Ok r -> Some (s, r) | Error _ -> None) samples

(* Returns (wrong replies, error messages, reply digest, reference digest). *)
let check samples =
  let ok = ok_replies samples in
  let table, ref_digest = Checks.reference ~domains:2 (List.map (fun (s, _) -> s.entry) ok) in
  let wrong = ref 0 and msgs = ref [] in
  List.iter
    (fun (s, reports) ->
      match Checks.reply_errors (Hashtbl.find table s.entry) reports with
      | [] -> ()
      | es ->
          incr wrong;
          msgs := List.map (fun e -> s.idem ^ ": " ^ e) es @ !msgs)
    ok;
  let got = if ok = [] then "none" else P.value_digest (List.concat_map snd ok) in
  (!wrong, List.rev !msgs, got, ref_digest)

(* --- the workload ---------------------------------------------------- *)

let latencies_ms samples =
  ok_replies samples |> List.map (fun (s, _) -> 1000. *. s.latency_s) |> Array.of_list

let run kind ~seed ~seconds ~trace ~spans_path =
  let name = match kind with Hot -> "cluster-hot" | Cold -> "cluster-cold" in
  let exe = Sys.executable_name in
  let conn_rngs, warm_rng = Streams.rngs ~seed ~connections in
  let corpus = match kind with Cold -> Streams.corpus ~seed | Hot -> [||] in
  let stream rng =
    match kind with Hot -> Streams.hot_stream rng | Cold -> Streams.cold_stream corpus rng
  in
  let input_digest = Streams.stream_digest ~seed ~connections ~k:digest_prefix stream in
  Printf.printf "workload %s seed %d: input digest %s (first %d requests per connection)\n%!"
    name seed input_digest digest_prefix;
  let warmup =
    match kind with
    | Hot -> Array.to_list Streams.hot_entries
    | Cold ->
        let next = stream warm_rng in
        List.init cold_warmup (fun _ -> next ())
  in
  let tag = Printf.sprintf "%s-%d" name seed in
  let cl, setup_times = boot ~exe ~tag ~warmup in
  let port = cl.Cluster_proc.router_port in
  let nexts = Array.map stream conn_rngs in
  let spans = Spans.create ~enabled:trace in
  let off = Spans.create ~enabled:false in
  let clients = Array.init connections (fun _ -> { port; conn = None }) in
  let finish () =
    Array.iter drop clients;
    Cluster_proc.stop cl
  in
  let part = ref 0 in
  (* One part of the measurement; a traced part is bracketed by stats
     snapshots. Every part has its own idempotency-key namespace. *)
  let measure ~traced seconds =
    incr part;
    let tag = Printf.sprintf "%s-p%d" tag !part in
    let until = Seconds seconds in
    if not traced then (window ~clients ~until ~nexts ~tag ~spans:off, None)
    else begin
      let before = snapshot cl in
      let w = window ~clients ~until ~nexts ~tag ~spans in
      (w, Some (before, snapshot cl))
    end
  in
  let settled, rss, ((samples, wall), deltas), untraced =
    Fun.protect ~finally:finish (fun () ->
        let settled, _ =
          window ~clients ~until:(Requests (settle_requests kind)) ~nexts ~tag:(tag ^ "-w") ~spans:off
        in
        let rss = Cluster_proc.peak_rss_mb cl in
        let measured, untraced = Spans.bracket ~trace ~seconds measure in
        (settled, rss, measured, List.concat_map (fun ((s, _), _) -> s) untraced))
  in
  (* Every answer is checked, the settling traffic's too. *)
  let all_samples = settled @ samples @ untraced in
  let wrong, msgs, got, want = check all_samples in
  let attempted = List.length all_samples in
  let ok = List.length (ok_replies all_samples) in
  let failed = attempted - ok + wrong in
  let lat = latencies_ms samples in
  let ok_window = Array.length lat in
  let digest_errors =
    (if ok > 0 && got <> want then [ Printf.sprintf "value digest %s <> reference %s" got want ]
     else [])
    @ if ok_window = 0 then [ "no OK reply in the timed window" ] else []
  in
  Printf.printf "value digest %s over %d OK replies; in-process reference %s\n" got ok want;
  let e2e =
    [ Output.metric "setup_s" "s" (Stats.median_value setup_times) ~samples:setups
        ~note:"cluster boot + warm-up, median";
      Output.metric "throughput_per_s" "1/s" (float_of_int ok_window /. wall) ~samples:ok_window
        ~note:"requests_per_s: OK replies / window wall";
      Output.metric "latency_p50_ms" "ms" (Stats.median_value lat) ~samples:ok_window
        ~note:"client-observed request latency";
      Output.metric "peak_rss_mb" "MB" rss ~samples:1
        ~note:(Printf.sprintf "VmHWM of the cluster process after %d settle requests"
                 (connections * settle_requests kind))
    ]
  in
  let extra =
    (match Stats.tail lat 0.99 with
    | Some t ->
        [ Output.metric "latency_p99_ms" "ms" t.value ~samples:t.samples
            ~note:(Printf.sprintf "%d samples beyond" t.beyond) ]
    | None -> [])
    @ [ Output.metric "error_ratio" "ratio"
          (float_of_int failed /. float_of_int (max 1 attempted))
          ~samples:attempted ~note:"refused + transport-failed + wrong / attempted" ]
  in
  let layers, replay_errors =
    if not trace then ([], [])
    else begin
      (* The replay executor starts from the cache state the cluster
         had: warm-up entries solved, untimed. *)
      let ex = Ex.create ~domains:1 () in
      List.iter
        (fun e -> match Tt_engine.Manifest.parse e with Ok js -> ignore (Ex.run_batch ex js) | Error _ -> ())
        warmup;
      let r = replay ~spans ~ex samples in
      let answered = List.length (List.filter (fun s -> Result.is_ok s.reply) samples) in
      let client_sum_s = Stats.sum (Array.map (fun s -> s.latency_s) (Array.of_list samples)) in
      let before, after = Option.get deltas in
      let d =
        Layers.derive
          { Layers.requests = answered;
            client_sum_s;
            window_s = wall;
            workers = Cluster_proc.shards * Cluster_proc.workers
          }
          ~shards_before:before.shard_stats ~shards_after:after.shard_stats
          ~router_before:before.router ~router_after:after.router
      in
      let total = Spans.total spans in
      let compute = Compute.busy spans in
      let run_batch = total "engine.run_batch" in
      let pipeline = total "pipeline.assembly_tree" in
      let hits, misses = (fst after.peer - fst before.peer, snd after.peer - snd before.peer) in
      let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
      let mean_bytes b = if answered = 0 then 0. else float_of_int b /. float_of_int answered in
      let p50 xs = Stats.median_value xs in
      let untraced_p50 = p50 (latencies_ms untraced) in
      Compute.metrics spans
      @ [ ("pipeline.trees", float_of_int (Spans.count spans "pipeline.assembly_tree"));
        ("pipeline.busy_s", pipeline);
        ("engine.parse_s", Float.max 0. (total "engine.manifest_parse" -. pipeline));
        ("engine.job_id_ms", 1000. *. p50 (Spans.durations spans "engine.job_id"));
        ("engine.overhead_s", Float.max 0. (run_batch -. compute));
        ("engine.cache_hits", float_of_int d.cache_hits);
        ("engine.cache_misses", float_of_int d.cache_misses);
        ("engine.cache_hit_ratio", ratio d.cache_hits d.cache_misses);
        ("engine.utilization", d.utilization);
        ("protocol.request_bytes", mean_bytes r.request_bytes);
        ("protocol.response_bytes", mean_bytes r.response_bytes);
        ("protocol.encode_s", total "protocol.encode");
        ("protocol.decode_s", total "protocol.decode");
        ("server.solve_p50_ms", d.solve_p50_ms);
        ("server.solve_p99_ms", d.solve_p99_ms);
        ("server.self_s", d.server_self_s);
        ("server.queue_depth_max", float_of_int d.queue_depth_max);
        ("server.errors", float_of_int d.server_errors);
        ("server.sheds", float_of_int d.server_sheds);
        ("server.worker_restarts", float_of_int d.worker_restarts);
        ("router.self_s", d.router_self_s);
        ("router.forwards", float_of_int d.forwards);
        ("router.failovers", float_of_int d.failovers);
        ("router.unrouted", float_of_int d.unrouted);
        ("router.hedges", float_of_int d.hedges);
        ("router.hedge_win_ratio", d.hedge_win_ratio);
        ("peer.hits", float_of_int hits);
        ("peer.misses", float_of_int misses);
        ("peer.hit_ratio", ratio hits misses);
        ("trace.unattributed_s", Float.max 0. (d.job_wall_s -. run_batch));
        ("trace.overhead_pct", 100. *. (p50 lat -. untraced_p50) /. untraced_p50)
      ],
      r.pipeline_errors
    end
  in
  if trace then Spans.write spans spans_path;
  { Output.e2e; extra; layers; attempted; failed; errors = msgs @ digest_errors @ replay_errors }

(* Tests of the benchmark's own logic: percentiles and the ten-beyond
   rule, the stats-delta derivations, input determinism, and the answer
   checks. *)

open Perfbench
module Json = Tt_engine.Telemetry.Json
module Job = Tt_engine.Job
module P = Tt_server.Protocol

let floats n = Array.init n (fun i -> float_of_int (i + 1))
let close = Alcotest.float 1e-9

(* --- percentiles ---------------------------------------------------- *)

let test_quantile () =
  match Stats.median [| 3.; 1.; 2. |] with
  | None -> Alcotest.fail "median of three samples"
  | Some m ->
      Alcotest.check close "value" 2. m.value;
      Alcotest.(check int) "samples" 3 m.samples;
      Alcotest.(check int) "beyond" 1 m.beyond;
      Alcotest.(check bool) "empty" true (Stats.median [||] = None)

let test_ten_beyond () =
  (* 100 samples leave one beyond p99: not a percentile. *)
  Alcotest.(check bool) "100 samples" true (Stats.tail (floats 100) 0.99 = None);
  match Stats.tail (floats 1000) 0.99 with
  | None -> Alcotest.fail "1000 samples must report p99"
  | Some t ->
      Alcotest.(check int) "samples" 1000 t.samples;
      Alcotest.(check bool) "at least ten beyond" true (t.beyond >= Stats.min_beyond);
      Alcotest.check close "value" 990.01 t.value

(* --- stats deltas --------------------------------------------------- *)

(* A shard's [stats] reply, rendered by the server's own metrics module. *)
let shard_json ~solves ~solve_s ~jobs ~job_s ~hits ~watermark =
  let m = Tt_server.Metrics.create () in
  for _ = 1 to solves do
    Tt_server.Metrics.observe_solve m ~latency_s:(solve_s /. float_of_int solves)
  done;
  for i = 1 to jobs do
    Tt_server.Metrics.job m ~cache_hit:(i <= hits) ~error:false ~wall_s:(job_s /. float_of_int jobs)
  done;
  Json.Obj
    [ ("admission", Json.Obj [ ("high_watermark", Json.Int watermark) ]);
      ("metrics", Tt_server.Metrics.to_json (Tt_server.Metrics.snapshot m))
    ]

let router_json ~forwards ~won ~lost =
  let m = Tt_shard.Metrics.create () in
  for _ = 1 to forwards do
    Tt_shard.Metrics.forward m ~shard:"s0"
  done;
  for _ = 1 to won do
    Tt_shard.Metrics.hedge m ~outcome:"won"
  done;
  for _ = 1 to lost do
    Tt_shard.Metrics.hedge m ~outcome:"lost"
  done;
  Json.Obj [ ("shard", Tt_shard.Metrics.to_json (Tt_shard.Metrics.snapshot m)) ]

let empty_shard = Layers.shard_of_json (shard_json ~solves:0 ~solve_s:0. ~jobs:0 ~job_s:0. ~hits:0 ~watermark:0)

(* 10 requests answered; the shards ran 12 legs because 2 were hedged.
   The client waited 1.1 s in all, less than the 1.2 s the shards spent,
   so unscaled shard time would drive the router's self time negative. *)
let test_hedged_deltas () =
  let after0 = shard_json ~solves:7 ~solve_s:0.7 ~jobs:14 ~job_s:0.35 ~hits:4 ~watermark:2 in
  let after1 = shard_json ~solves:5 ~solve_s:0.5 ~jobs:10 ~job_s:0.25 ~hits:6 ~watermark:1 in
  let d =
    Layers.derive
      { Layers.requests = 10; client_sum_s = 1.1; window_s = 2.; workers = 2 }
      ~shards_before:[ empty_shard; empty_shard ]
      ~shards_after:[ Layers.shard_of_json after0; Layers.shard_of_json after1 ]
      ~router_before:(Layers.router_of_json (router_json ~forwards:3 ~won:0 ~lost:0))
      ~router_after:(Layers.router_of_json (router_json ~forwards:15 ~won:1 ~lost:1))
  in
  Alcotest.(check int) "legs" 12 d.legs;
  Alcotest.check close "share" (10. /. 12.) d.leg_share;
  Alcotest.check close "shard time of answered legs" 1.0 d.shard_solve_s;
  Alcotest.check close "job time" 0.5 d.job_wall_s;
  Alcotest.check close "server self" 0.5 d.server_self_s;
  Alcotest.check close "router self" 0.1 d.router_self_s;
  Alcotest.(check bool) "router self not negative" true (d.router_self_s >= 0.);
  Alcotest.(check int) "forwards" 12 d.forwards;
  Alcotest.(check int) "hedges" 2 d.hedges;
  Alcotest.check close "hedge win ratio" 0.5 d.hedge_win_ratio;
  Alcotest.(check int) "hits" 10 d.cache_hits;
  Alcotest.(check int) "misses" 14 d.cache_misses;
  Alcotest.(check int) "queue depth" 2 d.queue_depth_max;
  Alcotest.check close "utilization" (0.6 /. 4.) d.utilization

let test_unhedged_deltas () =
  let before = Layers.shard_of_json (shard_json ~solves:4 ~solve_s:0.4 ~jobs:4 ~job_s:0.1 ~hits:0 ~watermark:1) in
  let after = Layers.shard_of_json (shard_json ~solves:8 ~solve_s:0.8 ~jobs:8 ~job_s:0.3 ~hits:0 ~watermark:1) in
  let r = Layers.router_of_json (router_json ~forwards:0 ~won:0 ~lost:0) in
  let d =
    Layers.derive
      { Layers.requests = 4; client_sum_s = 0.5; window_s = 1.; workers = 1 }
      ~shards_before:[ before ] ~shards_after:[ after ] ~router_before:r ~router_after:r
  in
  Alcotest.check close "share" 1. d.leg_share;
  Alcotest.check close "server self" 0.2 d.server_self_s;
  Alcotest.check close "router self" 0.1 d.router_self_s;
  Alcotest.check close "no hedges, ratio 0" 0. d.hedge_win_ratio

(* --- seeded inputs -------------------------------------------------- *)

let test_determinism () =
  let hot seed = Streams.stream_digest ~seed ~connections:2 ~k:50 Streams.hot_stream in
  Alcotest.(check string) "hot: same seed" (hot 7) (hot 7);
  Alcotest.(check bool) "hot: other seed" true (hot 7 <> hot 8);
  let corpus = Array.of_list (Tt_workloads.Dataset.small_corpus ~seed:3) in
  let cold seed = Streams.stream_digest ~seed ~connections:2 ~k:5 (Streams.cold_stream corpus) in
  Alcotest.(check string) "cold: same seed" (cold 7) (cold 7);
  Alcotest.(check bool) "cold: other seed" true (cold 7 <> cold 8);
  let batch seed = Streams.batch_digest (Array.of_list (Tt_workloads.Dataset.small_corpus ~seed)) in
  Alcotest.(check string) "batch: same seed" (batch 1) (batch 1);
  Alcotest.(check bool) "batch: other seed" true (batch 1 <> batch 2);
  let huge seed = Streams.huge_digest (Streams.huge_trees ~p:5_000 ~seed ()) in
  Alcotest.(check string) "huge: same seed" (huge 1) (huge 1);
  Alcotest.(check bool) "huge: other seed" true (huge 1 <> huge 2);
  Alcotest.(check int) "30 jobs per tree" 30 (List.length Streams.batch_specs)

(* --- answer checks -------------------------------------------------- *)

let entry = "gen grid2d size=8 :: minmem; liu; minio policy=first-fit budget=50%"

let correct_reply () =
  let table, _ = Checks.reference ~domains:1 [ entry ] in
  let jobs, results = Hashtbl.find table entry in
  let reports =
    List.map2
      (fun j r ->
        { P.job_id = Job.id j; label = j.Job.label; spec = Job.spec_to_string j.spec; result = r;
          cache_hit = false; wall_s = 0. })
      jobs results
  in
  ((jobs, results), reports)

let map_first_memory f reports =
  let first = ref true in
  List.map
    (fun (r : P.job_report) ->
      match r.result with
      | Ok (Job.Memory { peak; order }) when !first ->
          first := false;
          { r with result = Ok (f peak order) }
      | _ -> r)
    reports

let test_reply_checks () =
  let reference, reports = correct_reply () in
  Alcotest.(check (list string)) "correct reply passes" [] (Checks.reply_errors reference reports);
  let bad_peak = map_first_memory (fun peak order -> Job.Memory { peak = peak + 1; order }) reports in
  Alcotest.(check bool) "corrupted peak rejected" true (Checks.reply_errors reference bad_peak <> []);
  let bad_order =
    map_first_memory (fun peak order -> Job.Memory { peak; order = Array.of_list (List.rev (Array.to_list order)) }) reports
  in
  Alcotest.(check bool) "corrupted order rejected" true (Checks.reply_errors reference bad_order <> []);
  Alcotest.(check bool) "missing result rejected" true
    (Checks.reply_errors reference (List.tl reports) <> []);
  (* A reply whose value survives but whose traversal does not: even a
     reference-equal claim is re-simulated with Algorithm 1. *)
  let jobs, _ = reference in
  let forged = List.map (fun (r : P.job_report) -> r.result) bad_peak in
  Alcotest.(check bool) "Algorithm 1 catches a forged peak" true
    (Checks.reply_errors (jobs, forged) bad_peak <> [])

let test_huge_checks () =
  let tree =
    Tt_core.Instances.harpoon_nested ~branches:3 ~levels:2 ~m:40 ~eps:1 |> Tt_core.Flat_tree.of_tree
  in
  let b = Tt_core.Minmem_approx.run tree in
  Alcotest.(check (list string)) "correct bounds pass" [] (Checks.huge_errors "t" tree b);
  let wrong = { b with Tt_core.Minmem_approx.upper = b.upper + 1 } in
  Alcotest.(check bool) "upper not matching the order rejected" true (Checks.huge_errors "t" tree wrong <> []);
  let crossed = { b with Tt_core.Minmem_approx.lower = b.upper + 1 } in
  Alcotest.(check bool) "lower above upper rejected" true (Checks.huge_errors "t" tree crossed <> [])

(* --- BENCHMARK.json ---------------------------------------------------- *)

let test_listed_metrics () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let json = match Json.of_string text with Ok j -> j | Error e -> Alcotest.fail e in
  let listed key =
    match Json.member key json with
    | Some (Json.List ms) ->
        List.map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.String n), Some (Json.String u) -> (n, u)
            | _ -> Alcotest.fail ("malformed " ^ key ^ " entry"))
          ms
    | _ -> Alcotest.fail ("no " ^ key)
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Output.end_to_end (listed "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Output.per_layer (listed "per_layer")

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "quantile with counts" `Quick test_quantile;
          Alcotest.test_case "ten beyond" `Quick test_ten_beyond ] );
      ( "layers",
        [ Alcotest.test_case "hedged legs" `Quick test_hedged_deltas;
          Alcotest.test_case "no hedges" `Quick test_unhedged_deltas ] );
      ("streams", [ Alcotest.test_case "determinism" `Quick test_determinism ]);
      ( "checks",
        [ Alcotest.test_case "serving replies" `Quick test_reply_checks;
          Alcotest.test_case "huge bounds" `Quick test_huge_checks ] );
      ("benchmark", [ Alcotest.test_case "listed metrics" `Quick test_listed_metrics ])
    ]

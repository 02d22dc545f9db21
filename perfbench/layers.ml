(* Per-layer figures of the serving workloads, derived from the router's
   and the shards' [stats] replies read before and after the timed
   window. Everything here is pure so the derivations can be tested on
   synthetic before/after pairs. *)

module Json = Tt_engine.Telemetry.Json

let rec lookup j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun v -> lookup v rest)

let num j path =
  match lookup j path with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> nan

let int j path = match lookup j path with Some (Json.Int i) -> i | _ -> 0

(* Sum of an object of counters, e.g. errors by code. *)
let sum_obj j path =
  match lookup j path with
  | Some (Json.Obj kvs) ->
      List.fold_left (fun a (_, v) -> match v with Json.Int i -> a + i | _ -> a) 0 kvs
  | _ -> 0

let finite_or_zero x = if Float.is_finite x then x else 0.

(* One shard's [stats] reply. The solve-latency sum is rebuilt from the
   lifetime count and mean. *)
type shard = {
  solves : int;
  solve_sum_s : float;
  solve_p50_s : float;
  solve_p99_s : float;
  jobs : int;
  job_wall_s : float;
  cache_hits : int;
  errors : int;
  sheds : int;
  worker_restarts : int;
  high_watermark : int;
}

let shard_of_json j =
  let m k = "metrics" :: k in
  let solves = int j (m [ "latency"; "count" ]) in
  { solves;
    solve_sum_s = float_of_int solves *. finite_or_zero (num j (m [ "latency"; "mean_s" ]));
    solve_p50_s = finite_or_zero (num j (m [ "latency"; "p50_s" ]));
    solve_p99_s = finite_or_zero (num j (m [ "latency"; "p99_s" ]));
    jobs = int j (m [ "jobs"; "total" ]);
    job_wall_s = finite_or_zero (num j (m [ "jobs"; "wall_s" ]));
    cache_hits = int j (m [ "jobs"; "cache_hits" ]);
    errors = sum_obj j (m [ "responses"; "errors" ]);
    sheds = sum_obj j (m [ "overload"; "sheds" ]);
    worker_restarts = int j (m [ "resilience"; "worker_restarts" ]);
    high_watermark = int j [ "admission"; "high_watermark" ]
  }

(* The router's [stats] reply: its own counters sit under [shard]. *)
type router = {
  forwards : int;
  failovers : int;
  unrouted : int;
  hedges_won : int;
  hedges_lost : int;
  hedges_failed : int;
}

let router_of_json j =
  let r k = int j ("shard" :: k) in
  { forwards = r [ "forwards_total" ];
    failovers = r [ "failovers" ];
    unrouted = r [ "unrouted" ];
    hedges_won = r [ "hedges"; "won" ];
    hedges_lost = r [ "hedges"; "lost" ];
    hedges_failed = r [ "hedges"; "failed" ]
  }

let shard_map j =
  match lookup j [ "router"; "map" ] with Some (Json.String s) -> Some s | _ -> None

(* Window figures. [before]/[after] hold the shards in the same order.

   A request's client-observed latency splits into router self time
   (client and router hops, routing, forwarding) and the time a shard
   took to answer it; the shard time splits into server self time
   (reactor, parse, admission, queue wait, encode) and job time. Hedged
   duplicates and failover retries are extra shard legs nobody waited
   on, so the shard sums are scaled by [answered / legs] rather than
   allowed to exceed the client's time. *)
type window = {
  requests : int;  (** Client requests answered in the window. *)
  client_sum_s : float;  (** Sum of their client-observed latencies. *)
  window_s : float;
  workers : int;  (** Worker domains across all shards. *)
}

type derived = {
  legs : int;
  leg_share : float;
  shard_solve_s : float;
  job_wall_s : float;
  server_self_s : float;
  router_self_s : float;
  solve_p50_ms : float;
  solve_p99_ms : float;
  queue_depth_max : int;
  server_errors : int;
  server_sheds : int;
  worker_restarts : int;
  cache_hits : int;
  cache_misses : int;
  utilization : float;
  forwards : int;
  failovers : int;
  unrouted : int;
  hedges : int;
  hedge_win_ratio : float;
}

let derive w ~shards_before ~shards_after ~router_before ~router_after =
  let pairs = List.combine shards_before shards_after in
  let delta f = List.fold_left (fun a (b, x) -> a + (f x - f b)) 0 pairs in
  let fdelta f = List.fold_left (fun a (b, x) -> a +. (f x -. f b)) 0. pairs in
  let legs = delta (fun s -> s.solves) in
  let leg_share =
    if legs <= w.requests || legs = 0 then 1. else float_of_int w.requests /. float_of_int legs
  in
  let shard_solve_s = fdelta (fun s -> s.solve_sum_s) *. leg_share in
  let job_wall_s = fdelta (fun s -> s.job_wall_s) *. leg_share in
  (* Per-shard window percentiles, weighted by each shard's solves in
     the window; the p99 is the worse shard's. *)
  let weighted f =
    if legs = 0 then 0.
    else
      List.fold_left
        (fun a (b, x) -> a +. (f x *. float_of_int (x.solves - b.solves)))
        0. pairs
      /. float_of_int legs
  in
  let jobs = delta (fun s -> s.jobs) and hits = delta (fun s -> s.cache_hits) in
  let rd f = f router_after - f router_before in
  let hedges_won = rd (fun r -> r.hedges_won) in
  let hedges = hedges_won + rd (fun r -> r.hedges_lost) + rd (fun r -> r.hedges_failed) in
  { legs;
    leg_share;
    shard_solve_s;
    job_wall_s;
    server_self_s = Float.max 0. (shard_solve_s -. job_wall_s);
    router_self_s = Float.max 0. (w.client_sum_s -. shard_solve_s);
    solve_p50_ms = 1000. *. weighted (fun s -> s.solve_p50_s);
    solve_p99_ms =
      1000. *. List.fold_left (fun a (_, x) -> Float.max a x.solve_p99_s) 0. pairs;
    queue_depth_max = List.fold_left (fun a s -> max a s.high_watermark) 0 shards_after;
    server_errors = delta (fun s -> s.errors);
    server_sheds = delta (fun s -> s.sheds);
    worker_restarts = delta (fun s -> s.worker_restarts);
    cache_hits = hits;
    cache_misses = jobs - hits;
    utilization =
      (if w.window_s > 0. && w.workers > 0 then
         fdelta (fun s -> s.job_wall_s) /. (w.window_s *. float_of_int w.workers)
       else 0.);
    forwards = rd (fun r -> r.forwards);
    failovers = rd (fun r -> r.failovers);
    unrouted = rd (fun r -> r.unrouted);
    hedges;
    hedge_win_ratio = (if hedges = 0 then 0. else float_of_int hedges_won /. float_of_int hedges)
  }

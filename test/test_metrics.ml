(* Parity of the metrics registry: after any sequence of mutator
   calls, the registry-backed [Tt_server.Metrics] and [Tt_shard.Metrics]
   give the same [stats] JSON and Prometheus text as the hand-written
   modules they replaced, which are kept verbatim below as references. *)

module M = Tt_server.Metrics
module SM = Tt_shard.Metrics
module Json = Tt_engine.Telemetry.Json
module H = Helpers

(* ------------------------------------------------------------- references *)

(* The two metrics modules as they were before the registry, verbatim,
   each in a module named after its original. *)
module Ref = struct
  module Server_metrics = struct
    module Json = Tt_engine.Telemetry.Json

    type t = {
      mu : Mutex.t;
      ring : float array;  (* recent solve latencies, seconds *)
      mutable conns_opened : int;
      mutable conns_closed : int;
      mutable req_solve : int;
      mutable req_stats : int;
      mutable req_ping : int;
      mutable req_shutdown : int;
      mutable req_peek : int;
      mutable req_health : int;
      mutable ok : int;
      errors : (string, int) Hashtbl.t;
      mutable jobs : int;
      mutable job_errors : int;
      mutable job_cache_hits : int;
      mutable job_wall_s : float;
      mutable lat_count : int;
      mutable lat_sum : float;
      mutable lat_max : float;
      mutable worker_restarts : int;
      mutable idle_evictions : int;
      mutable replay_hits : int;
      mutable write_overflows : int;
      sheds : (string * string, int) Hashtbl.t;  (* (reason, priority) *)
      mutable deadline_exceeded : int;
      mutable admission_queue_depth : int;
      mutable admission_admitted : int;
      mutable admission_limit : int;
    }

    let create ?(latency_window = 4096) () =
      if latency_window < 1 then invalid_arg "Metrics.create: latency_window < 1";
      { mu = Mutex.create ();
        ring = Array.make latency_window 0.;
        conns_opened = 0;
        conns_closed = 0;
        req_solve = 0;
        req_stats = 0;
        req_ping = 0;
        req_shutdown = 0;
        req_peek = 0;
        req_health = 0;
        ok = 0;
        errors = Hashtbl.create 8;
        jobs = 0;
        job_errors = 0;
        job_cache_hits = 0;
        job_wall_s = 0.;
        lat_count = 0;
        lat_sum = 0.;
        lat_max = 0.;
        worker_restarts = 0;
        idle_evictions = 0;
        replay_hits = 0;
        write_overflows = 0;
        sheds = Hashtbl.create 8;
        deadline_exceeded = 0;
        admission_queue_depth = 0;
        admission_admitted = 0;
        admission_limit = 0
      }

    let locked t f =
      Mutex.lock t.mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

    let connection_opened t = locked t (fun () -> t.conns_opened <- t.conns_opened + 1)
    let connection_closed t = locked t (fun () -> t.conns_closed <- t.conns_closed + 1)

    let request t op =
      locked t (fun () ->
          match op with
          | `Solve -> t.req_solve <- t.req_solve + 1
          | `Stats -> t.req_stats <- t.req_stats + 1
          | `Ping -> t.req_ping <- t.req_ping + 1
          | `Shutdown -> t.req_shutdown <- t.req_shutdown + 1
          | `Peek -> t.req_peek <- t.req_peek + 1
          | `Health -> t.req_health <- t.req_health + 1)

    let response_ok t = locked t (fun () -> t.ok <- t.ok + 1)

    let response_error t ~code =
      locked t (fun () ->
          Hashtbl.replace t.errors code
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.errors code)))

    let observe_solve t ~latency_s =
      locked t (fun () ->
          t.ring.(t.lat_count mod Array.length t.ring) <- latency_s;
          t.lat_count <- t.lat_count + 1;
          t.lat_sum <- t.lat_sum +. latency_s;
          if latency_s > t.lat_max then t.lat_max <- latency_s)

    let shed t ~reason ~priority =
      locked t (fun () ->
          let k = (reason, priority) in
          Hashtbl.replace t.sheds k
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.sheds k)))

    let deadline_exceeded t =
      locked t (fun () -> t.deadline_exceeded <- t.deadline_exceeded + 1)

    let set_admission t ~queue_depth ~admitted ~limit =
      locked t (fun () ->
          t.admission_queue_depth <- queue_depth;
          t.admission_admitted <- admitted;
          t.admission_limit <- limit)

    let worker_restart t = locked t (fun () -> t.worker_restarts <- t.worker_restarts + 1)
    let idle_eviction t = locked t (fun () -> t.idle_evictions <- t.idle_evictions + 1)
    let replay_hit t = locked t (fun () -> t.replay_hits <- t.replay_hits + 1)
    let write_overflow t = locked t (fun () -> t.write_overflows <- t.write_overflows + 1)

    let job t ~cache_hit ~error ~wall_s =
      locked t (fun () ->
          t.jobs <- t.jobs + 1;
          if error then t.job_errors <- t.job_errors + 1;
          if cache_hit then t.job_cache_hits <- t.job_cache_hits + 1;
          t.job_wall_s <- t.job_wall_s +. wall_s)

    (* ----------------------------------------------------------- snapshot *)

    type latency_summary = {
      count : int;
      window : int;
      mean_s : float;
      p50_s : float;
      p90_s : float;
      p95_s : float;
      p99_s : float;
      max_s : float;
    }

    type snapshot = {
      connections_opened : int;
      connections_active : int;
      requests_solve : int;
      requests_stats : int;
      requests_ping : int;
      requests_shutdown : int;
      requests_peek : int;
      requests_health : int;
      responses_ok : int;
      errors : (string * int) list;
      jobs : int;
      job_errors : int;
      job_cache_hits : int;
      job_wall_s : float;
      worker_restarts : int;
      idle_evictions : int;
      replay_hits : int;
      write_overflows : int;
      sheds : ((string * string) * int) list;
      deadline_exceeded : int;
      admission_queue_depth : int;
      admission_admitted : int;
      admission_limit : int;
      latency : latency_summary;
    }

    let snapshot t =
      locked t (fun () ->
          let window = min t.lat_count (Array.length t.ring) in
          let samples = Array.sub t.ring 0 window in
          let q p =
            if window = 0 then nan else Tt_util.Statistics.quantile samples p
          in
          { connections_opened = t.conns_opened;
            connections_active = t.conns_opened - t.conns_closed;
            requests_solve = t.req_solve;
            requests_stats = t.req_stats;
            requests_ping = t.req_ping;
            requests_shutdown = t.req_shutdown;
            requests_peek = t.req_peek;
            requests_health = t.req_health;
            responses_ok = t.ok;
            errors =
              List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.errors []);
            jobs = t.jobs;
            job_errors = t.job_errors;
            job_cache_hits = t.job_cache_hits;
            job_wall_s = t.job_wall_s;
            worker_restarts = t.worker_restarts;
            idle_evictions = t.idle_evictions;
            replay_hits = t.replay_hits;
            write_overflows = t.write_overflows;
            sheds =
              List.sort compare
                (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sheds []);
            deadline_exceeded = t.deadline_exceeded;
            admission_queue_depth = t.admission_queue_depth;
            admission_admitted = t.admission_admitted;
            admission_limit = t.admission_limit;
            latency =
              { count = t.lat_count;
                window;
                mean_s = (if t.lat_count = 0 then nan else t.lat_sum /. float_of_int t.lat_count);
                p50_s = q 0.5;
                p90_s = q 0.9;
                p95_s = q 0.95;
                p99_s = q 0.99;
                max_s = t.lat_max
              }
          })

    let to_json s =
      Json.Obj
        [ ( "connections",
            Json.Obj
              [ ("opened", Json.Int s.connections_opened);
                ("active", Json.Int s.connections_active)
              ] );
          ( "requests",
            Json.Obj
              [ ("solve", Json.Int s.requests_solve);
                ("stats", Json.Int s.requests_stats);
                ("ping", Json.Int s.requests_ping);
                ("shutdown", Json.Int s.requests_shutdown);
                ("peek", Json.Int s.requests_peek);
                ("health", Json.Int s.requests_health)
              ] );
          ( "responses",
            Json.Obj
              [ ("ok", Json.Int s.responses_ok);
                ("errors", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.errors))
              ] );
          ( "jobs",
            Json.Obj
              [ ("total", Json.Int s.jobs);
                ("errors", Json.Int s.job_errors);
                ("cache_hits", Json.Int s.job_cache_hits);
                ("wall_s", Json.Float s.job_wall_s)
              ] );
          ( "resilience",
            Json.Obj
              [ ("worker_restarts", Json.Int s.worker_restarts);
                ("idle_evictions", Json.Int s.idle_evictions);
                ("replay_hits", Json.Int s.replay_hits);
                ("write_overflows", Json.Int s.write_overflows)
              ] );
          ( "overload",
            Json.Obj
              [ ( "sheds",
                  Json.Obj
                    (List.map
                       (fun ((reason, priority), v) ->
                         (reason ^ "/" ^ priority, Json.Int v))
                       s.sheds) );
                ("deadline_exceeded", Json.Int s.deadline_exceeded);
                ("queue_depth", Json.Int s.admission_queue_depth);
                ("admitted", Json.Int s.admission_admitted);
                ("limit", Json.Int s.admission_limit)
              ] );
          ( "latency",
            Json.Obj
              [ ("count", Json.Int s.latency.count);
                ("window", Json.Int s.latency.window);
                ("mean_s", Json.Float s.latency.mean_s);
                ("p50_s", Json.Float s.latency.p50_s);
                ("p90_s", Json.Float s.latency.p90_s);
                ("p95_s", Json.Float s.latency.p95_s);
                ("p99_s", Json.Float s.latency.p99_s);
                ("max_s", Json.Float s.latency.max_s)
              ] )
        ]

    let to_prometheus s =
      let b = Buffer.create 1024 in
      let counter name ?(labels = "") v =
        Buffer.add_string b (Printf.sprintf "tt_server_%s%s %d\n" name labels v)  in
      let gauge name ?(labels = "") v =
        Buffer.add_string b
          (Printf.sprintf "tt_server_%s%s %s\n" name labels
             (if Float.is_finite v then Printf.sprintf "%.9g" v else "NaN"))
      in
      let typ name kind =
        Buffer.add_string b (Printf.sprintf "# TYPE tt_server_%s %s\n" name kind)
      in
      typ "connections_opened_total" "counter";
      counter "connections_opened_total" s.connections_opened;
      typ "connections_active" "gauge";
      counter "connections_active" s.connections_active;
      typ "requests_total" "counter";
      counter "requests_total" ~labels:{|{op="solve"}|} s.requests_solve;
      counter "requests_total" ~labels:{|{op="stats"}|} s.requests_stats;
      counter "requests_total" ~labels:{|{op="ping"}|} s.requests_ping;
      counter "requests_total" ~labels:{|{op="shutdown"}|} s.requests_shutdown;
      counter "requests_total" ~labels:{|{op="peek"}|} s.requests_peek;
      counter "requests_total" ~labels:{|{op="health"}|} s.requests_health;
      typ "responses_ok_total" "counter";
      counter "responses_ok_total" s.responses_ok;
      typ "responses_error_total" "counter";
      List.iter
        (fun (code, v) ->
          counter "responses_error_total"
            ~labels:(Printf.sprintf {|{code=%S}|} code)
            v)
        s.errors;
      typ "jobs_total" "counter";
      counter "jobs_total" s.jobs;
      typ "job_errors_total" "counter";
      counter "job_errors_total" s.job_errors;
      typ "job_cache_hits_total" "counter";
      counter "job_cache_hits_total" s.job_cache_hits;
      typ "job_wall_seconds_total" "counter";
      gauge "job_wall_seconds_total" s.job_wall_s;
      typ "worker_restarts_total" "counter";
      counter "worker_restarts_total" s.worker_restarts;
      typ "idle_evictions_total" "counter";
      counter "idle_evictions_total" s.idle_evictions;
      typ "replay_hits_total" "counter";
      counter "replay_hits_total" s.replay_hits;
      typ "write_overflows_total" "counter";
      counter "write_overflows_total" s.write_overflows;
      typ "sheds_total" "counter";
      List.iter
        (fun ((reason, priority), v) ->
          counter "sheds_total"
            ~labels:(Printf.sprintf {|{reason=%S,priority=%S}|} reason priority)
            v)
        s.sheds;
      typ "deadline_exceeded_total" "counter";
      counter "deadline_exceeded_total" s.deadline_exceeded;
      typ "admission_queue_depth" "gauge";
      counter "admission_queue_depth" s.admission_queue_depth;
      typ "admission_admitted" "gauge";
      counter "admission_admitted" s.admission_admitted;
      typ "admission_limit" "gauge";
      counter "admission_limit" s.admission_limit;
      typ "solve_latency_seconds" "summary";
      List.iter
        (fun (q, v) ->
          gauge "solve_latency_seconds" ~labels:(Printf.sprintf {|{quantile="%s"}|} q) v)
        [ ("0.5", s.latency.p50_s);
          ("0.9", s.latency.p90_s);
          ("0.95", s.latency.p95_s);
          ("0.99", s.latency.p99_s)
        ];
      gauge "solve_latency_seconds_sum"
        (if s.latency.count = 0 then 0. else s.latency.mean_s *. float_of_int s.latency.count);
      counter "solve_latency_seconds_count" s.latency.count;
      Buffer.contents b
  end

  module Shard_metrics = struct
    module Json = Tt_engine.Telemetry.Json

    type breaker_state = Breaker_closed | Breaker_open | Breaker_half_open

    let breaker_state_to_int = function
      | Breaker_closed -> 0
      | Breaker_open -> 1
      | Breaker_half_open -> 2

    type t = {
      mu : Mutex.t;
      forwards : (string, int) Hashtbl.t;  (* shard name -> forwarded ops *)
      mutable forwards_total : int;
      mutable at_forward : (int * (unit -> unit)) option;  (* see [at_forward] *)
      mutable failovers : int;
      mutable rejects : int;
      mutable unrouted : int;
      mutable peer_hits : int;
      mutable peer_misses : int;
      mutable breaker_opens : int;
      mutable breaker_closes : int;
      breaker_states : (string, breaker_state) Hashtbl.t;
      restarts : (string, int) Hashtbl.t;  (* shard name -> supervised restarts *)
      hedges : (string, int) Hashtbl.t;  (* outcome -> count *)
      mutable deadline_rejects : int;
      mutable downtime_s : float;
      mutable ring_epoch : int;
    }

    let create () =
      { mu = Mutex.create ();
        forwards = Hashtbl.create 8;
        forwards_total = 0;
        at_forward = None;
        failovers = 0;
        rejects = 0;
        unrouted = 0;
        peer_hits = 0;
        peer_misses = 0;
        breaker_opens = 0;
        breaker_closes = 0;
        breaker_states = Hashtbl.create 8;
        restarts = Hashtbl.create 8;
        hedges = Hashtbl.create 4;
        deadline_rejects = 0;
        downtime_s = 0.;
        ring_epoch = 0
      }

    let locked t f =
      Mutex.lock t.mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

    (* The hook runs outside the lock, on the domain that counts the n-th
       forward, before that forward is sent. *)
    let forward t ~shard =
      locked t (fun () ->
          Hashtbl.replace t.forwards shard
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.forwards shard));
          t.forwards_total <- t.forwards_total + 1;
          match t.at_forward with
          | Some (n, f) when t.forwards_total >= n ->
              t.at_forward <- None;
              Some f
          | _ -> None)
      |> Option.iter (fun f -> f ())

    let at_forward t n f =
      locked t (fun () ->
          if t.forwards_total >= n then Some f
          else begin
            t.at_forward <- Some (n, f);
            None
          end)
      |> Option.iter (fun f -> f ())

    let failover t = locked t (fun () -> t.failovers <- t.failovers + 1)
    let reject t = locked t (fun () -> t.rejects <- t.rejects + 1)
    let unrouted t = locked t (fun () -> t.unrouted <- t.unrouted + 1)
    let peer_hit t = locked t (fun () -> t.peer_hits <- t.peer_hits + 1)
    let peer_miss t = locked t (fun () -> t.peer_misses <- t.peer_misses + 1)

    let breaker_transition t ~shard state =
      locked t (fun () ->
          (match (Hashtbl.find_opt t.breaker_states shard, state) with
          | (Some Breaker_closed | Some Breaker_half_open | None), Breaker_open ->
              t.breaker_opens <- t.breaker_opens + 1
          | (Some Breaker_open | Some Breaker_half_open), Breaker_closed ->
              t.breaker_closes <- t.breaker_closes + 1
          | _ -> ());
          Hashtbl.replace t.breaker_states shard state)

    let breaker_forget t ~shard =
      locked t (fun () -> Hashtbl.remove t.breaker_states shard)

    let restart t ~shard ~downtime_s =
      locked t (fun () ->
          Hashtbl.replace t.restarts shard
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.restarts shard));
          t.downtime_s <- t.downtime_s +. Float.max 0. downtime_s)

    let hedge t ~outcome =
      locked t (fun () ->
          Hashtbl.replace t.hedges outcome
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.hedges outcome)))

    let deadline_reject t =
      locked t (fun () -> t.deadline_rejects <- t.deadline_rejects + 1)

    let set_ring_epoch t epoch = locked t (fun () -> t.ring_epoch <- epoch)

    type snapshot = {
      forwards : (string * int) list;
      forwards_total : int;
      failovers : int;
      rejects : int;
      unrouted : int;
      peer_hits : int;
      peer_misses : int;
      breaker_opens : int;
      breaker_closes : int;
      breaker_states : (string * breaker_state) list;
      restarts : (string * int) list;
      restarts_total : int;
      hedges : (string * int) list;
      deadline_rejects : int;
      downtime_s : float;
      ring_epoch : int;
    }

    let snapshot t =
      locked t (fun () ->
          let sorted tbl =
            List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
          in
          let restarts = sorted t.restarts in
          { forwards = sorted t.forwards;
            forwards_total = t.forwards_total;
            failovers = t.failovers;
            rejects = t.rejects;
            unrouted = t.unrouted;
            peer_hits = t.peer_hits;
            peer_misses = t.peer_misses;
            breaker_opens = t.breaker_opens;
            breaker_closes = t.breaker_closes;
            breaker_states = sorted t.breaker_states;
            restarts;
            restarts_total = List.fold_left (fun a (_, v) -> a + v) 0 restarts;
            hedges = sorted t.hedges;
            deadline_rejects = t.deadline_rejects;
            downtime_s = t.downtime_s;
            ring_epoch = t.ring_epoch
          })

    let to_json s =
      Json.Obj
        [ ( "forwards",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.forwards) );
          ("forwards_total", Json.Int s.forwards_total);
          ("failovers", Json.Int s.failovers);
          ("rejects", Json.Int s.rejects);
          ("unrouted", Json.Int s.unrouted);
          ("peer_hits", Json.Int s.peer_hits);
          ("peer_misses", Json.Int s.peer_misses);
          ("breaker_opens", Json.Int s.breaker_opens);
          ("breaker_closes", Json.Int s.breaker_closes);
          ( "breaker_states",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.Int (breaker_state_to_int v)))
                 s.breaker_states) );
          ( "restarts",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.restarts) );
          ("restarts_total", Json.Int s.restarts_total);
          ( "hedges",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.hedges) );
          ("deadline_rejects", Json.Int s.deadline_rejects);
          ("downtime_s", Json.Float s.downtime_s);
          ("ring_epoch", Json.Int s.ring_epoch)
        ]

    (* Same exposition conventions as {!Tt_server.Metrics.to_prometheus}:
       one [# TYPE] line per family, [%d] counters, quoted label values. *)
    let to_prometheus s =
      let b = Buffer.create 512 in
      let counter name ?(labels = "") v =
        Buffer.add_string b (Printf.sprintf "tt_shard_%s%s %d\n" name labels v)
      in
      let typ name kind =
        Buffer.add_string b (Printf.sprintf "# TYPE tt_shard_%s %s\n" name kind)
      in
      typ "forwards_total" "counter";
      List.iter
        (fun (shard, v) ->
          counter "forwards_total" ~labels:(Printf.sprintf {|{shard=%S}|} shard) v)
        s.forwards;
      typ "failovers_total" "counter";
      counter "failovers_total" s.failovers;
      typ "rejects_total" "counter";
      counter "rejects_total" s.rejects;
      typ "unrouted_total" "counter";
      counter "unrouted_total" s.unrouted;
      typ "peer_hits_total" "counter";
      counter "peer_hits_total" s.peer_hits;
      typ "peer_misses_total" "counter";
      counter "peer_misses_total" s.peer_misses;
      typ "breaker_opens_total" "counter";
      counter "breaker_opens_total" s.breaker_opens;
      typ "breaker_closes_total" "counter";
      counter "breaker_closes_total" s.breaker_closes;
      if s.breaker_states <> [] then begin
        typ "breaker_state" "gauge";
        List.iter
          (fun (shard, st) ->
            counter "breaker_state"
              ~labels:(Printf.sprintf {|{shard=%S}|} shard)
              (breaker_state_to_int st))
          s.breaker_states
      end;
      typ "restarts_total" "counter";
      List.iter
        (fun (shard, v) ->
          counter "restarts_total" ~labels:(Printf.sprintf {|{shard=%S}|} shard) v)
        s.restarts;
      typ "hedges_total" "counter";
      List.iter
        (fun (outcome, v) ->
          counter "hedges_total"
            ~labels:(Printf.sprintf {|{outcome=%S}|} outcome)
            v)
        s.hedges;
      typ "deadline_exceeded_total" "counter";
      counter "deadline_exceeded_total" s.deadline_rejects;
      typ "downtime_seconds_total" "counter";
      Buffer.add_string b
        (Printf.sprintf "tt_shard_downtime_seconds_total %.9g\n"
           (if Float.is_finite s.downtime_s then s.downtime_s else 0.));
      typ "ring_epoch" "gauge";
      counter "ring_epoch" s.ring_epoch;
      Buffer.contents b
  end
end

(* ------------------------------------------------------------- draws *)

(* Label values: "a" and "a-b" sort one way as values and the other
   way once joined with "/" ("a-b/x" < "a/x"), and a quote exercises
   the [%S] quoting of both dumps. *)
let labels = [| "a"; "a-b"; "x"; "q\"uote"; "batch" |]
let shards = [| "s0"; "s1"; "s2" |]
let label = QCheck.Gen.oneofa labels
let shard = QCheck.Gen.oneofa shards
let seconds = QCheck.Gen.float_bound_inclusive 2.

type server_op =
  | Opened
  | Closed
  | Request of [ `Solve | `Stats | `Ping | `Shutdown | `Peek | `Health ]
  | Response_ok
  | Response_error of string
  | Solves of int * float  (* that many latencies, spread from this one *)
  | Job of bool * bool * float
  | Worker_restart
  | Idle_eviction
  | Replay_hit
  | Write_overflow
  | Shed of string * string
  | Deadline_exceeded
  | Admission of int * int * int

let server_op =
  let open QCheck.Gen in
  frequency
    [ (2, return Opened);
      (2, return Closed);
      (3, map (fun op -> Request op) (oneofl [ `Solve; `Stats; `Ping; `Shutdown; `Peek; `Health ]));
      (2, return Response_ok);
      (2, map (fun c -> Response_error c) label);
      (3, map2 (fun n x -> Solves (n, x)) (int_range 1 3000) seconds);
      (2, map3 (fun h e w -> Job (h, e, w)) bool bool seconds);
      (1, return Worker_restart);
      (1, return Idle_eviction);
      (1, return Replay_hit);
      (1, return Write_overflow);
      (3, map2 (fun r p -> Shed (r, p)) label label);
      (1, return Deadline_exceeded);
      (1, map3 (fun d a l -> Admission (d, a, l)) small_nat small_nat small_nat)
    ]

let print_server_op = function
  | Solves (n, _) -> Printf.sprintf "solves %d" n
  | Response_error c -> "error " ^ c
  | Shed (r, p) -> Printf.sprintf "shed %s/%s" r p
  | _ -> "op"

type breaker_draw = Into of Ref.Shard_metrics.breaker_state | Forget

type shard_op =
  | Forward of string
  | At_forward of int
  | Failover
  | Reject
  | Unrouted
  | Peer_hit
  | Peer_miss
  | Breaker of string * breaker_draw
  | Restart of string * float
  | Hedge of string
  | Deadline_reject
  | Ring_epoch of int

let shard_op =
  let open QCheck.Gen in
  frequency
    [ (4, map (fun s -> Forward s) shard);
      (1, map (fun n -> At_forward n) (int_range 0 20));
      (1, return Failover);
      (1, return Reject);
      (1, return Unrouted);
      (2, return Peer_hit);
      (2, return Peer_miss);
      ( 6,
        map2
          (fun s d -> Breaker (s, d))
          shard
          (oneofl
             Ref.Shard_metrics.
               [ Into Breaker_open; Into Breaker_half_open; Into Breaker_closed; Forget ]) );
      (1, map2 (fun s d -> Restart (s, d)) shard seconds);
      (2, map (fun o -> Hedge o) label);
      (1, return Deadline_reject);
      (1, map (fun e -> Ring_epoch e) small_nat)
    ]

let print_shard_op = function
  | Forward s -> "forward " ^ s
  | Breaker (s, Into st) ->
      Printf.sprintf "breaker %s %d" s (Ref.Shard_metrics.breaker_state_to_int st)
  | Breaker (s, Forget) -> "forget " ^ s
  | Hedge o -> "hedge " ^ o
  | _ -> "op"

(* ------------------------------------------------------------ parity *)

let print_ops f ops = String.concat "; " (List.map f ops)

let arb_server =
  QCheck.make ~print:(print_ops print_server_op) QCheck.Gen.(list_size (int_bound 40) server_op)

let server_step r m = function
  | Opened ->
      Ref.Server_metrics.connection_opened r;
      M.connection_opened m
  | Closed ->
      Ref.Server_metrics.connection_closed r;
      M.connection_closed m
  | Request op ->
      Ref.Server_metrics.request r op;
      M.request m op
  | Response_ok ->
      Ref.Server_metrics.response_ok r;
      M.response_ok m
  | Response_error code ->
      Ref.Server_metrics.response_error r ~code;
      M.response_error m ~code
  | Solves (n, x) ->
      for i = 1 to n do
        let latency_s = x *. float_of_int (i mod 97) /. 61. in
        Ref.Server_metrics.observe_solve r ~latency_s;
        M.observe_solve m ~latency_s
      done
  | Job (cache_hit, error, wall_s) ->
      Ref.Server_metrics.job r ~cache_hit ~error ~wall_s;
      M.job m ~cache_hit ~error ~wall_s
  | Worker_restart ->
      Ref.Server_metrics.worker_restart r;
      M.worker_restart m
  | Idle_eviction ->
      Ref.Server_metrics.idle_eviction r;
      M.idle_eviction m
  | Replay_hit ->
      Ref.Server_metrics.replay_hit r;
      M.replay_hit m
  | Write_overflow ->
      Ref.Server_metrics.write_overflow r;
      M.write_overflow m
  | Shed (reason, priority) ->
      Ref.Server_metrics.shed r ~reason ~priority;
      M.shed m ~reason ~priority
  | Deadline_exceeded ->
      Ref.Server_metrics.deadline_exceeded r;
      M.deadline_exceeded m
  | Admission (queue_depth, admitted, limit) ->
      Ref.Server_metrics.set_admission r ~queue_depth ~admitted ~limit;
      M.set_admission m ~queue_depth ~admitted ~limit

let prop_server ops =
  let r = Ref.Server_metrics.create () and m = M.create () in
  List.iter (server_step r m) ops;
  let rs = Ref.Server_metrics.snapshot r and s = M.snapshot m in
  Json.to_string (Ref.Server_metrics.to_json rs) = Json.to_string (M.to_json s)
  && Ref.Server_metrics.to_prometheus rs = M.to_prometheus s

(* A breaker draw is made only where {!Tt_shard.Health} could make it:
   into open from closed or half-open, into half-open from open, into
   closed from open or half-open. [states] follows the draws. *)
let legal states shard target =
  let open Ref.Shard_metrics in
  match (Hashtbl.find_opt states shard, target) with
  | (None | Some Breaker_closed | Some Breaker_half_open), Breaker_open
  | Some Breaker_open, Breaker_half_open
  | Some (Breaker_open | Breaker_half_open), Breaker_closed ->
      true
  | _ -> false

(* The same ops on a reference and a new instance; [fired] counts the
   [at_forward] hooks that ran, reference first. *)
let shard_run ops =
  let r = Ref.Shard_metrics.create () and m = SM.create () in
  let states = Hashtbl.create 4 and fired = (ref 0, ref 0) in
  let step = function
    | Forward shard ->
        Ref.Shard_metrics.forward r ~shard;
        SM.forward m ~shard
    | At_forward n ->
        Ref.Shard_metrics.at_forward r n (fun () -> incr (fst fired));
        SM.at_forward m n (fun () -> incr (snd fired))
    | Failover ->
        Ref.Shard_metrics.failover r;
        SM.failover m
    | Reject ->
        Ref.Shard_metrics.reject r;
        SM.reject m
    | Unrouted ->
        Ref.Shard_metrics.unrouted r;
        SM.unrouted m
    | Peer_hit ->
        Ref.Shard_metrics.peer_hit r;
        SM.peer_hit m
    | Peer_miss ->
        Ref.Shard_metrics.peer_miss r;
        SM.peer_miss m
    | Breaker (shard, Into st) ->
        if legal states shard st then begin
          Hashtbl.replace states shard st;
          Ref.Shard_metrics.breaker_transition r ~shard st;
          SM.breaker m ~shard
            (match st with
            | Breaker_open -> SM.Breaker_open
            | Breaker_half_open -> SM.Breaker_half_open
            | Breaker_closed -> SM.Breaker_closed)
        end
    | Breaker (shard, Forget) ->
        Hashtbl.remove states shard;
        Ref.Shard_metrics.breaker_forget r ~shard;
        SM.breaker_forget m ~shard
    | Restart (shard, downtime_s) ->
        Ref.Shard_metrics.restart r ~shard ~downtime_s;
        SM.restart m ~shard ~downtime_s
    | Hedge outcome ->
        Ref.Shard_metrics.hedge r ~outcome;
        SM.hedge m ~outcome
    | Deadline_reject ->
        Ref.Shard_metrics.deadline_reject r;
        SM.deadline_reject m
    | Ring_epoch e ->
        Ref.Shard_metrics.set_ring_epoch r e;
        SM.set_ring_epoch m e
  in
  List.iter step ops;
  (r, m, !(fst fired) = !(snd fired))

let same_shard_dumps rs s =
  Json.to_string (Ref.Shard_metrics.to_json rs) = Json.to_string (SM.to_json s)
  && Ref.Shard_metrics.to_prometheus rs = SM.to_prometheus s

(* A router and two shards' peer sides, merged as [Cluster.snapshot]
   merges them: the parent replaced the router's peer counters by the
   shards' sums, [add_peers] adds them, which is the same for a router
   that makes no peeks of its own. *)
let arb_shard =
  let ops = QCheck.Gen.(list_size (int_bound 40) shard_op) in
  QCheck.make
    ~print:(fun (a, b, c) -> String.concat " | " (List.map (print_ops print_shard_op) [ a; b; c ]))
    QCheck.Gen.(triple ops ops ops)

let prop_shard (router, p1, p2) =
  let router = List.filter (function Peer_hit | Peer_miss -> false | _ -> true) router in
  let (rr, rm, fired), peers = (shard_run router, List.map shard_run [ p1; p2 ]) in
  let rs = Ref.Shard_metrics.snapshot rr in
  let sum f = List.fold_left (fun a (r, _, _) -> a + f (Ref.Shard_metrics.snapshot r)) 0 peers in
  let merged =
    { rs with
      Ref.Shard_metrics.peer_hits = sum (fun s -> s.Ref.Shard_metrics.peer_hits);
      peer_misses = sum (fun s -> s.Ref.Shard_metrics.peer_misses)
    }
  in
  fired
  && List.for_all (fun (_, _, f) -> f) peers
  && same_shard_dumps rs (SM.snapshot rm)
  && List.for_all
       (fun (r, m, _) -> same_shard_dumps (Ref.Shard_metrics.snapshot r) (SM.snapshot m))
       peers
  && same_shard_dumps merged
       (List.fold_left (fun s (_, m, _) -> SM.add_peers s m) (SM.snapshot rm) peers)

(* One scripted draw of each case the random ones must cover: label
   values whose order changes once joined, more solve latencies than
   the window, empty families, and a forgotten breaker. *)
let test_scripted () =
  Alcotest.(check bool) "server" true
    (prop_server
       [ Shed ("a-b", "x"); Shed ("a", "x"); Solves (3000, 0.7); Solves (2000, 1.3); Opened ]);
  Alcotest.(check bool) "empty server families" true (prop_server []);
  Alcotest.(check bool) "shard" true
    (prop_shard
       ( [ Breaker ("s1", Into Breaker_open);
           Breaker ("s0", Into Breaker_open);
           Breaker ("s1", Forget);
           Breaker ("s0", Into Breaker_half_open)
         ],
         [ Peer_hit; Peer_miss; Peer_hit ],
         [] ))

let () =
  H.run "metrics"
    [ ( "parity",
        [ H.qcheck ~count:150 "server dumps equal the reference module's" arb_server prop_server;
          H.qcheck ~count:300 "shard dumps equal the reference module's" arb_shard prop_shard;
          H.case "scripted edge cases" test_scripted
        ] )
    ]

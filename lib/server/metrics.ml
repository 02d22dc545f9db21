module R = Registry

let s = R.schema ~prefix:"tt_server_"
let conns_opened = R.counter s "connections_opened_total" [ "connections"; "opened" ]
let conns_active = R.gauge s "connections_active" [ "connections"; "active" ]
let op name =
  R.counter s (Printf.sprintf "requests_total{op=%S}" name) [ "requests"; name ]

let req_solve = op "solve"
let req_stats = op "stats"
let req_ping = op "ping"
let req_shutdown = op "shutdown"
let req_peek = op "peek"
let req_health = op "health"
let ok = R.counter s "responses_ok_total" [ "responses"; "ok" ]

let errors =
  R.family s R.Counter "responses_error_total" ~labels:[ "code" ]
    [ "responses"; "errors" ]

let jobs = R.counter s "jobs_total" [ "jobs"; "total" ]
let job_errors = R.counter s "job_errors_total" [ "jobs"; "errors" ]
let job_cache_hits = R.counter s "job_cache_hits_total" [ "jobs"; "cache_hits" ]
let job_wall = R.seconds s "job_wall_seconds_total" [ "jobs"; "wall_s" ]
let resilience key = R.counter s (key ^ "_total") [ "resilience"; key ]
let worker_restarts = resilience "worker_restarts"
let idle_evictions = resilience "idle_evictions"
let replay_hits = resilience "replay_hits"
let write_overflows = resilience "write_overflows"

let sheds =
  R.family s R.Counter "sheds_total" ~labels:[ "reason"; "priority" ]
    [ "overload"; "sheds" ]

let deadlines = R.counter s "deadline_exceeded_total" [ "overload"; "deadline_exceeded" ]
let queue_depth = R.gauge s "admission_queue_depth" [ "overload"; "queue_depth" ]
let admitted = R.gauge s "admission_admitted" [ "overload"; "admitted" ]
let limit = R.gauge s "admission_limit" [ "overload"; "limit" ]
let latency = R.summary s "solve_latency_seconds" ~window:4096 [ "latency" ]

type t = R.t

let create () = R.create s
let bump t cell = R.locked t (fun () -> R.add t cell 1)

let connection_opened t =
  R.locked t (fun () ->
      R.add t conns_opened 1;
      R.add t conns_active 1)

let connection_closed t = R.locked t (fun () -> R.add t conns_active (-1))

let request t op =
  bump t
    (match op with
    | `Solve -> req_solve
    | `Stats -> req_stats
    | `Ping -> req_ping
    | `Shutdown -> req_shutdown
    | `Peek -> req_peek
    | `Health -> req_health)

let response_ok t = bump t ok
let response_error t ~code = R.locked t (fun () -> R.incr_at t errors [ code ])
let observe_solve t ~latency_s = R.locked t (fun () -> R.observe t latency latency_s)

let job t ~cache_hit ~error ~wall_s =
  R.locked t (fun () ->
      R.add t jobs 1;
      if error then R.add t job_errors 1;
      if cache_hit then R.add t job_cache_hits 1;
      R.add_seconds t job_wall wall_s)

let worker_restart t = bump t worker_restarts
let idle_eviction t = bump t idle_evictions
let replay_hit t = bump t replay_hits
let write_overflow t = bump t write_overflows
let shed t ~reason ~priority =
  R.locked t (fun () -> R.incr_at t sheds [ reason; priority ])
let deadline_exceeded t = bump t deadlines

let set_admission t ~queue_depth:d ~admitted:a ~limit:l =
  R.locked t (fun () ->
      R.set t queue_depth d;
      R.set t admitted a;
      R.set t limit l)

type snapshot = R.snapshot

let snapshot = R.snapshot
let to_json = R.to_json
let to_prometheus = R.to_prometheus

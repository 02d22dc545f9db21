module P = Tt_server.Protocol
module Reactor = Tt_server.Reactor
module Line_reader = Tt_server.Line_reader
module Retry = Tt_engine.Retry
module Json = Tt_engine.Telemetry.Json

type config = {
  host : string;
  port : int;
  connect_timeout_s : float;
  read_timeout_s : float;
  retry : Retry.policy;
  probe_interval_s : float;
  probe_seed : int;
  breaker_threshold : int;
  breaker_retry : Retry.policy;
  hedge_seed : int;
  hedge_ratio : float;
  hedge_quantile : float;
}

let default_config =
  { host = "127.0.0.1";
    port = 0;
    connect_timeout_s = Forward.default_connect_timeout_s;
    read_timeout_s = Tt_server.Client.default_read_timeout_s;
    retry = Retry.create ~retries:3 ~seed:11 ()
  ; probe_interval_s = 0.25;
    probe_seed = 43;
    breaker_threshold = Health.default_threshold;
    breaker_retry = Health.default_retry;
    hedge_seed = 29;
    hedge_ratio = 1.;
    hedge_quantile = 0.95
  }

(* A client connection's domain; the accept loop joins it, and closes
   the connection, once [finished] is set. *)
type conn = { dom : unit Domain.t; finished : bool Atomic.t }

type t = {
  cfg : config;
  mutable ring : Ring.t;
  mutable epoch : int;
  ring_mu : Mutex.t;
  reactor : Reactor.t;
  metrics : Metrics.t;
  health : Health.t;
  hedge : Forward.hedge_state;
  idem_seq : int Atomic.t;
  (* entry digest -> routing key, bounded ({!Tt_engine.Entry_memo}). *)
  route_memo : Tt_engine.Entry_memo.t;
  mutable probe_domain : unit Domain.t option;
  conns_mu : Mutex.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;  (* live client connections *)
}

let create ?(config = default_config) ~ring () =
  let reactor = Reactor.create ~host:config.host ~port:config.port in
  let metrics = Metrics.create () in
  { cfg = config;
    ring;
    epoch = 0;
    ring_mu = Mutex.create ();
    reactor;
    metrics;
    health =
      Health.create ~threshold:config.breaker_threshold
        ~retry:config.breaker_retry ~metrics ();
    hedge =
      Forward.create_hedge ~ratio:config.hedge_ratio
        ~quantile:config.hedge_quantile ~seed:config.hedge_seed ();
    idem_seq = Atomic.make 0;
    route_memo = Tt_engine.Entry_memo.create ();
    probe_domain = None;
    conns_mu = Mutex.create ();
    conns = Hashtbl.create 16
  }

let port t = Reactor.port t.reactor
let metrics t = t.metrics
let health t = t.health

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let ring t = locked t.ring_mu (fun () -> t.ring)
let epoch t = locked t.ring_mu (fun () -> t.epoch)

let ring_with_epoch t = locked t.ring_mu (fun () -> (t.ring, t.epoch))

let reconfigure t ring' =
  let removed =
    locked t.ring_mu (fun () ->
        let before = List.map (fun n -> n.Ring.name) (Ring.nodes t.ring) in
        let after = List.map (fun n -> n.Ring.name) (Ring.nodes ring') in
        t.ring <- ring';
        t.epoch <- t.epoch + 1;
        Metrics.set_ring_epoch t.metrics t.epoch;
        List.filter (fun n -> not (List.mem n after)) before)
  in
  (* A departed shard must not keep a breaker-state gauge (or worse, a
     half-open trial slot) alive forever. *)
  List.iter (fun name -> Health.forget t.health name) removed

(* ------------------------------------------------------------- routing *)

(* The failover sweep order for [key] against the {e current} ring —
   the [route] planner every per-connection {!Forward} pool shares, so
   no request routes on a ring that no longer exists. *)
let plan t key = Ring.successors (ring t) key

let fresh_idem t =
  Printf.sprintf "rt%d-%d-%d" (Unix.getpid ()) (port t)
    (Atomic.fetch_and_add t.idem_seq 1)

let health_json t =
  let r, e = ring_with_epoch t in
  Json.Obj
    [ ("role", Json.String "router");
      ("ring_epoch", Json.Int e);
      ("shards", Json.Int (List.length (Ring.nodes r)));
      ("breakers", Health.to_json t.health)
    ]

let stats_json t =
  let r, e = ring_with_epoch t in
  Json.Obj
    [ ( "router",
        Json.Obj
          [ ("shards", Json.Int (List.length (Ring.nodes r)));
            ("vnodes", Json.Int (Ring.vnodes r));
            ("map", Json.String (Ring.to_string r));
            ("ring_epoch", Json.Int e);
            ("breakers", Health.to_json t.health)
          ] );
      ("shard", Metrics.to_json (Metrics.snapshot t.metrics))
    ]

(* ------------------------------------------------------------- probing *)

(* One probe pass: every shard the breaker lets us touch gets a cheap
   [peek] op (answered inline from the shard's cache — never queued,
   never computed) on a fresh bounded-timeout connection. This is what
   detects death on an idle cluster and — because {!Health.allow}
   hands the prober the half-open trial — what closes a breaker again
   after the shard comes back, within a bounded number of intervals.
   The probe key is a pure function of (seed, tick): deterministic,
   and recognizable as a probe in shard-side peek counters. *)
let probe_once t ~tick =
  let nodes = Ring.nodes (ring t) in
  List.iter
    (fun (node : Ring.node) ->
      if (not (Reactor.stopping t.reactor)) && Health.allow t.health node.Ring.name
      then begin
        let key = Printf.sprintf "probe-%d-%d" t.cfg.probe_seed tick in
        let timeout = t.cfg.connect_timeout_s in
        match
          Tt_server.Client.with_connection ~host:node.Ring.host
            ~connect_timeout_s:timeout ~read_timeout_s:timeout
            ~port:node.Ring.port (fun c ->
              Tt_server.Client.call c (P.Peek { key }))
        with
        | Ok _ -> Health.success t.health node.Ring.name
        | Error _ -> Health.failure t.health node.Ring.name
        | exception (Unix.Unix_error _ | Failure _ | Sys_error _) ->
            Health.failure t.health node.Ring.name
      end)
    nodes

let probe_loop t =
  let tick = ref 0 in
  while not (Reactor.stopping t.reactor) do
    probe_once t ~tick:!tick;
    incr tick;
    (* Sleep in small slices so shutdown is never held up by a long
       probe interval. *)
    let remaining = ref t.cfg.probe_interval_s in
    while !remaining > 0. && not (Reactor.stopping t.reactor) do
      let slice = Float.min 0.05 !remaining in
      Unix.sleepf slice;
      remaining := !remaining -. slice
    done
  done

(* ---------------------------------------------------------- connection *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let reply fd req_id body =
  match write_all fd (P.encode_response { P.req_id; body } ^ "\n") with
  | () -> true
  | exception (Unix.Unix_error _ | Sys_error _) -> false

let handle_line t fwd fd line =
  match P.decode_request line with
  | Error (req_id, code, msg) ->
      Metrics.reject t.metrics;
      reply fd req_id (P.Refused { code; msg })
  | Ok { P.id; op } -> (
      let req_id = Some id in
      match op with
      | P.Ping -> reply fd req_id P.Pong
      | P.Stats -> reply fd req_id (P.Stats_reply (stats_json t))
      | P.Health -> reply fd req_id (P.Health_reply (health_json t))
      | P.Shutdown ->
          let ok = reply fd req_id P.Draining in
          Reactor.request_stop t.reactor;
          ok
      | P.Peek { key } -> (
          match Forward.call fwd ~key op with
          | Ok body -> reply fd req_id body
          | Error (code, msg) -> reply fd req_id (P.Refused { code; msg }))
      | P.Solve { entry; timeout_s; idem; priority } -> (
          (* The wire carries {e relative} budget; pin it to an
             absolute deadline at receipt, before the (potentially
             slow) route-key parse spends any of it. An already-spent
             budget is refused here — forwarding could only produce a
             deadline_exceeded after wasted shard work. *)
          let deadline =
            Option.map (fun b -> Unix.gettimeofday () +. b) timeout_s
          in
          match timeout_s with
          | Some b when b <= 0. ->
              Metrics.deadline_reject t.metrics;
              reply fd req_id
                (P.Refused
                   { code = P.Deadline_exceeded;
                     msg = "deadline budget exhausted at router"
                   })
          | _ -> (
              match Tt_engine.Entry_memo.route_key t.route_memo entry with
              | Error msg ->
                  Metrics.reject t.metrics;
                  reply fd req_id (P.Refused { code = P.Bad_request; msg })
              | Ok key -> (
                  (* Guarantee an idempotency key before forwarding: it
                     is what makes the failover sweep — and the hedged
                     duplicate — safe to re-send. Chosen once per
                     logical request, so every attempt carries the same
                     key. *)
                  let idem =
                    Some (match idem with Some k -> k | None -> fresh_idem t)
                  in
                  let op = P.Solve { entry; timeout_s; idem; priority } in
                  match Forward.call fwd ~key ?deadline op with
                  | Ok body -> reply fd req_id body
                  | Error (code, msg) ->
                      reply fd req_id (P.Refused { code; msg })))))

let serve_conn t fd =
  let fwd =
    Forward.create ~connect_timeout_s:t.cfg.connect_timeout_s
      ~read_timeout_s:t.cfg.read_timeout_s ~retry:t.cfg.retry
      ~health:t.health ~hedge:t.hedge ~route:(plan t) ~metrics:t.metrics
      (ring t)
  in
  (* Not the domain's {!Tt_server.Client} read buffer: forwarding the
     lines of one read reads shard replies into that one. *)
  let buf = Bytes.create 65536 in
  let reader = Line_reader.create ~limit:P.max_frame_bytes in
  let alive = ref true in
  let on_line line = if !alive && line <> "" then alive := handle_line t fwd fd line in
  Fun.protect
    ~finally:(fun () -> Forward.close fwd)
    (fun () ->
      while !alive && not (Reactor.stopping t.reactor) do
        match Unix.select [ fd ] [] [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> alive := false
            | n -> (
                match Line_reader.feed reader buf n on_line with
                | Ok () -> ()
                | Error Line_reader.Too_long ->
                    (* The server's frame cap, so a client that never
                       sends a newline cannot grow the router without
                       bound. *)
                    if !alive then begin
                      Metrics.reject t.metrics;
                      ignore
                        (reply fd None
                           (P.Refused { code = P.Bad_frame; msg = "frame exceeds 1 MiB" }));
                      alive := false
                    end)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception (Unix.Unix_error _ | Sys_error _) -> alive := false)
      done)

let accept t fd =
  let finished = Atomic.make false in
  let body () =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set finished true;
        Reactor.wake t.reactor)
      (fun () -> serve_conn t fd)
  in
  match Domain.spawn body with
  | dom -> locked t.conns_mu (fun () -> Hashtbl.replace t.conns fd { dom; finished })
  | exception Failure _ ->
      (* OCaml 5 caps a process at 128 domains. Past the cap, refuse
         this client with one typed frame and keep accepting: the slots
         free up as connections close. *)
      Metrics.reject t.metrics;
      ignore
        (reply fd None
           (P.Refused { code = P.Overloaded; msg = "router at its connection limit" }));
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* Join the domains of ended connections (all of them once the router
   stops: each sees the stop within its 0.25 s poll) and close their
   sockets, so [conns] holds live connections only. *)
let tick t () =
  let stopping = Reactor.stopping t.reactor in
  let ended =
    locked t.conns_mu (fun () ->
        Hashtbl.fold
          (fun fd c ended -> if stopping || Atomic.get c.finished then (fd, c) :: ended else ended)
          t.conns [])
  in
  List.iter
    (fun (fd, c) ->
      (* A connection an exception ended must not end the accept loop. *)
      (try Domain.join c.dom
       with e -> Printf.eprintf "router: connection failed: %s\n%!" (Printexc.to_string e));
      (try Unix.close fd with Unix.Unix_error _ -> ());
      locked t.conns_mu (fun () -> Hashtbl.remove t.conns fd))
    ended;
  if stopping then None else Some ([], [])

let connections t = locked t.conns_mu (fun () -> Hashtbl.length t.conns)

let start t =
  Reactor.start t.reactor
    { Reactor.tick = tick t; accept = accept t; read = (fun _ _ _ -> ()); write = ignore };
  if t.cfg.probe_interval_s > 0. then
    t.probe_domain <- Some (Domain.spawn (fun () -> probe_loop t))

let request_shutdown t = Reactor.request_stop t.reactor
let stopped t = Reactor.stopping t.reactor

let shutdown t =
  Reactor.shutdown t.reactor;
  Option.iter Domain.join t.probe_domain;
  t.probe_domain <- None

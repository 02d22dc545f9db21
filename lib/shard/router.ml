module P = Tt_server.Protocol
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

type t = {
  cfg : config;
  mutable ring : Ring.t;
  mutable epoch : int;
  ring_mu : Mutex.t;
  lfd : Unix.file_descr;
  bound_port : int;
  metrics : Metrics.t;
  health : Health.t;
  hedge : Forward.hedge_state;
  stop : bool Atomic.t;
  idem_seq : int Atomic.t;
  (* entry digest -> routing key, bounded ({!Tt_engine.Entry_memo}). *)
  route_memo : Tt_engine.Entry_memo.t;
  (* key -> (epoch, failover sweep order). This one {e does} depend on
     the ring: every entry is stamped with the epoch that computed it
     and ignored — lazily replaced — after any reconfiguration. *)
  sweep_mu : Mutex.t;
  sweep_memo : (string, int * Ring.node list) Hashtbl.t;
  mutable accept_domain : unit Domain.t option;
  mutable probe_domain : unit Domain.t option;
  conns_mu : Mutex.t;
  mutable conns : unit Domain.t list;
}

let max_sweep_memo = 4096

let create ?(config = default_config) ~ring () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     Unix.bind lfd
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen lfd 64
   with e ->
     Unix.close lfd;
     raise e);
  let bound_port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let metrics = Metrics.create () in
  { cfg = config;
    ring;
    epoch = 0;
    ring_mu = Mutex.create ();
    lfd;
    bound_port;
    metrics;
    health =
      Health.create ~threshold:config.breaker_threshold
        ~retry:config.breaker_retry ~metrics ();
    hedge =
      Forward.create_hedge ~ratio:config.hedge_ratio
        ~quantile:config.hedge_quantile ~seed:config.hedge_seed ();
    stop = Atomic.make false;
    idem_seq = Atomic.make 0;
    route_memo = Tt_engine.Entry_memo.create ();
    sweep_mu = Mutex.create ();
    sweep_memo = Hashtbl.create 64;
    accept_domain = None;
    probe_domain = None;
    conns_mu = Mutex.create ();
    conns = []
  }

let port t = t.bound_port
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
   the [route] planner every per-connection {!Forward} pool shares.
   Epoch-checked: an entry memoized before a reconfiguration is stale
   and recomputed, so no request routes on a ring that no longer
   exists. *)
let plan t key =
  let current_ring, current_epoch = ring_with_epoch t in
  let memoized =
    locked t.sweep_mu (fun () ->
        match Hashtbl.find_opt t.sweep_memo key with
        | Some (e, order) when e = current_epoch -> Some order
        | Some _ | None -> None)
  in
  match memoized with
  | Some order -> order
  | None ->
      let order = Ring.successors current_ring key in
      locked t.sweep_mu (fun () ->
          if Hashtbl.mem t.sweep_memo key then
            (* Stale-epoch entry: replace in place (no growth). *)
            Hashtbl.replace t.sweep_memo key (current_epoch, order)
          else if Hashtbl.length t.sweep_memo < max_sweep_memo then
            Hashtbl.replace t.sweep_memo key (current_epoch, order));
      order

let fresh_idem t =
  Printf.sprintf "rt%d-%d-%d" (Unix.getpid ()) t.bound_port
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
      if (not (Atomic.get t.stop)) && Health.allow t.health node.Ring.name
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
  while not (Atomic.get t.stop) do
    probe_once t ~tick:!tick;
    incr tick;
    (* Sleep in small slices so shutdown is never held up by a long
       probe interval. *)
    let remaining = ref t.cfg.probe_interval_s in
    while !remaining > 0. && not (Atomic.get t.stop) do
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
          Atomic.set t.stop true;
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
  let rbuf = ref "" in
  let buf = Bytes.create 65536 in
  let alive = ref true in
  let rec drain_lines () =
    if !alive then
      match String.index_opt !rbuf '\n' with
      | None -> ()
      | Some i ->
          let line = String.sub !rbuf 0 i in
          rbuf := String.sub !rbuf (i + 1) (String.length !rbuf - i - 1);
          let line =
            (* tolerate CRLF like the server does *)
            if line <> "" && line.[String.length line - 1] = '\r' then
              String.sub line 0 (String.length line - 1)
            else line
          in
          if line <> "" then alive := handle_line t fwd fd line;
          drain_lines ()
  in
  (* The server's frame cap: a partial line past it is refused with a
     typed [bad_frame] and the connection closed, so a client that
     never sends a newline cannot grow the router without bound. *)
  let check_frame_cap () =
    if !alive && String.length !rbuf > P.max_frame_bytes then begin
      Metrics.reject t.metrics;
      ignore
        (reply fd None (P.Refused { code = P.Bad_frame; msg = "frame exceeds 1 MiB" }));
      alive := false
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Forward.close fwd;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      while !alive && not (Atomic.get t.stop) do
        match Unix.select [ fd ] [] [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> alive := false
            | n ->
                rbuf := !rbuf ^ Bytes.sub_string buf 0 n;
                drain_lines ();
                check_frame_cap ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception (Unix.Unix_error _ | Sys_error _) -> alive := false)
      done)

let accept_loop t =
  while not (Atomic.get t.stop) do
    match Unix.select [ t.lfd ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> Atomic.set t.stop true
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept t.lfd with
        | fd, _ ->
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            (match Domain.spawn (fun () -> serve_conn t fd) with
            | d ->
                Mutex.lock t.conns_mu;
                t.conns <- d :: t.conns;
                Mutex.unlock t.conns_mu
            | exception Failure _ ->
                (* OCaml 5 caps a process at 128 domains. Past the cap,
                   refuse this client with one typed frame and keep
                   accepting: the slots free up as connections close. *)
                Metrics.reject t.metrics;
                ignore
                  (reply fd None
                     (P.Refused
                        { code = P.Overloaded; msg = "router at its connection limit" }));
                (try Unix.close fd with Unix.Unix_error _ -> ()))
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error _ -> Atomic.set t.stop true)
  done

let start t =
  match t.accept_domain with
  | Some _ -> invalid_arg "Router.start: already started"
  | None ->
      t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
      if t.cfg.probe_interval_s > 0. then
        t.probe_domain <- Some (Domain.spawn (fun () -> probe_loop t))

let request_shutdown t = Atomic.set t.stop true
let stopped t = Atomic.get t.stop

let shutdown t =
  request_shutdown t;
  Option.iter Domain.join t.accept_domain;
  t.accept_domain <- None;
  Option.iter Domain.join t.probe_domain;
  t.probe_domain <- None;
  (try Unix.close t.lfd with Unix.Unix_error _ -> ());
  let conns =
    Mutex.lock t.conns_mu;
    let c = t.conns in
    t.conns <- [];
    Mutex.unlock t.conns_mu;
    c
  in
  List.iter Domain.join conns

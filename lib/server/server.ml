module P = Protocol
module Json = Tt_engine.Telemetry.Json
module Job = Tt_engine.Job
module Executor = Tt_engine.Executor
module Fault = Tt_engine.Fault

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  max_deadline_s : float;
  idle_timeout_s : float;
  max_inflight : int;
  replay_capacity : int;
  wedge_grace_s : float;
  worker_faults : Fault.t option;
}

let default_config =
  { host = "127.0.0.1";
    port = 0;
    workers = 2;
    queue_capacity = 64;
    max_deadline_s = 30.;
    idle_timeout_s = 300.;
    max_inflight = 32;
    replay_capacity = 1024;
    wedge_grace_s = 5.;
    worker_faults = None
  }

(* Per-connection write-buffer cap: a connection whose reader lets this
   many bytes pile up is dropped, counted as [write_overflows]. *)
let max_write_buf = 8 * 1024 * 1024

(* Brownout threshold: a batch solve is shed once in-flight admitted
   work reaches this fraction of the AIMD limit, which reserves the top
   quarter of the window for interactive traffic. *)
let batch_headroom = 0.75

(* One accepted connection. The I/O domain owns the read side ([reader]
   is only touched there); replies may come from any domain and are
   serialized by [wmu], which also guards the write buffer
   ([outq]/[out_off]/[out_len]). The socket is non-blocking: writers
   append to [outq] and flush opportunistically, the I/O domain flushes
   the rest when [select] reports writability — so a slow or stalled
   reader can never block a worker domain, only grow its own buffer up
   to [max_write_buf] (past which the connection is declared [dead]).

   [inflight] counts admitted-but-unreplied solve requests; the fd is
   closed only by the I/O domain, and only once [inflight = 0] — so no
   domain ever writes to a closed (and possibly reused) descriptor.
   [eof] and [dead] only ever flip to [true] (benign monotonic races
   between reader and writers). *)
type conn = {
  fd : Unix.file_descr;
  wmu : Mutex.t;
  outq : string Queue.t;
  mutable out_off : int;  (* bytes of [Queue.peek outq] already written *)
  mutable out_len : int;  (* total unwritten bytes across [outq] *)
  reader : Line_reader.t;
  mutable inflight : int;
  mutable eof : bool;
  mutable dead : bool;
  mutable last_active : float;
}

type work = {
  wconn : conn;
  req_id : string;
  jobs : Job.t list;
  deadline : float;  (* absolute, seconds *)
  received : float;
  priority : P.priority;
  idem : string option;
  seq : int;  (* admission sequence number; the worker-fault roll key *)
  replied : bool Atomic.t;
      (* The exactly-one-reply guard: the worker, the wedge supervisor
         and the crash handler all funnel through a CAS on this flag,
         so whoever wins writes the one reply and decrements
         [inflight]; everyone else no-ops. *)
}

(* One worker domain's supervision cell. The I/O domain replaces the
   whole slot when it retires a wedged worker, so [abandon] tells the
   old domain (which still holds the old slot) to exit, while the
   replacement starts from a fresh slot. *)
type slot = {
  current : work option Atomic.t;
  crashed : bool Atomic.t;
  abandon : bool Atomic.t;
  mutable dom : unit Domain.t option;
}

let fresh_slot () =
  { current = Atomic.make None;
    crashed = Atomic.make false;
    abandon = Atomic.make false;
    dom = None
  }

type t = {
  config : config;
  cache : Job.outcome Tt_engine.Cache.t;
  retry : Tt_engine.Retry.policy;
  telemetry : Tt_engine.Telemetry.t option;
  job_timeout : float option;
  metrics : Metrics.t;
  queue : work Admission.t;
  replay : Replay.t;
  entries : Tt_engine.Entry_memo.t;  (* parsed solve entries, by digest *)
  limiter : Overload.Limiter.t;
  admitted : int Atomic.t;  (* queued + executing, not yet replied *)
  mutable ema_service_s : float option;  (* guarded by [mu] *)
  admit_seq : int Atomic.t;
  reactor : Reactor.t;
  started : float;
  mu : Mutex.t;
  slots : slot array;  (* a slot with no domain yet is staffed by [supervise] *)
  mutable zombies : unit Domain.t list;  (* retired wedged workers *)
  conns : (Unix.file_descr, conn) Hashtbl.t;  (* the I/O domain's *)
}

let create ?(config = default_config) ?cache ?(retry = Tt_engine.Retry.none)
    ?telemetry ?job_timeout () =
  let reactor = Reactor.create ~host:config.host ~port:config.port in
  let config = { config with workers = max 1 config.workers } in
  { config;
    cache = (match cache with Some c -> c | None -> Tt_engine.Cache.create ());
    retry;
    telemetry;
    job_timeout;
    metrics = Metrics.create ();
    queue = Admission.create ~capacity:config.queue_capacity;
    replay = Replay.create ~capacity:(max 1 config.replay_capacity);
    entries = Tt_engine.Entry_memo.create ();
    (* The AIMD window starts (and is capped) at queued + executing
       capacity, so an unloaded server behaves exactly like the static
       ring did; only loss signals (blown deadlines, wedges) shrink it
       below that, moving rejection from queue-full to admission
       time. *)
    limiter =
      (let cap = float_of_int (config.queue_capacity + config.workers) in
       Overload.Limiter.create ~initial:cap ~max_limit:cap ());
    admitted = Atomic.make 0;
    ema_service_s = None;
    admit_seq = Atomic.make 0;
    reactor;
    started = Unix.gettimeofday ();
    mu = Mutex.create ();
    slots = Array.init config.workers (fun _ -> fresh_slot ());
    zombies = [];
    conns = Hashtbl.create 64
  }

let port t = Reactor.port t.reactor
let metrics t = t.metrics

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let stopped t = Reactor.stopped t.reactor
let wake t = Reactor.wake t.reactor
let request_shutdown t = Reactor.request_stop t.reactor
let draining t = Reactor.stopping t.reactor

let stats_json t =
  let astats = Admission.stats t.queue in
  (* Freshen the admission gauges so the [metrics.overload] object a
     client reads is current, not last-reply-time. *)
  Metrics.set_admission t.metrics ~queue_depth:(Admission.length t.queue)
    ~admitted:(Atomic.get t.admitted)
    ~limit:(Overload.Limiter.limit t.limiter);
  Json.Obj
    [ ( "server",
        Json.Obj
          [ ("proto_version", Json.Int P.version);
            ("workers", Json.Int t.config.workers);
            ("queue_capacity", Json.Int (Admission.capacity t.queue));
            ("queue_depth", Json.Int (Admission.length t.queue));
            ("admission_limit", Json.Int (Overload.Limiter.limit t.limiter));
            ("draining", Json.Bool (draining t));
            ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started))
          ] );
      ( "admission",
        Json.Obj
          [ ("pushed", Json.Int astats.Admission.pushed);
            ("rejected", Json.Int astats.Admission.rejected);
            ("high_watermark", Json.Int astats.Admission.high_watermark)
          ] );
      ( "replay",
        Json.Obj
          [ ("capacity", Json.Int (Replay.capacity t.replay));
            ("entries", Json.Int (Replay.length t.replay));
            ("evictions", Json.Int (Replay.evictions t.replay))
          ] );
      ("metrics", Metrics.to_json (Metrics.snapshot t.metrics))
    ]

(* A health reply must stay cheap — it is the probe op the shard tier's
   breaker sends on every tick, so it reads two flags and the queue
   depth, never the full metrics snapshot. *)
let health_json t =
  Json.Obj
    [ ("role", Json.String "server");
      ("draining", Json.Bool (draining t));
      ("queue_depth", Json.Int (Admission.length t.queue));
      ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started))
    ]

(* ----------------------------------------------------------- replies *)

let conn_kill_locked conn =
  conn.dead <- true;
  Queue.clear conn.outq;
  conn.out_off <- 0;
  conn.out_len <- 0

(* Flush as much buffered output as the socket will take without
   blocking. Call with [wmu] held. *)
let try_flush_locked conn =
  let progress = ref true in
  while (not conn.dead) && !progress && not (Queue.is_empty conn.outq) do
    let head = Queue.peek conn.outq in
    let len = String.length head in
    match Unix.write_substring conn.fd head conn.out_off (len - conn.out_off) with
    | n ->
        conn.out_off <- conn.out_off + n;
        conn.out_len <- conn.out_len - n;
        if conn.out_off >= len then begin
          ignore (Queue.pop conn.outq);
          conn.out_off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        progress := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* Peer went away mid-reply; the I/O domain reaps the
           connection once its inflight count drains. *)
        conn_kill_locked conn
  done

let conn_send t conn line =
  Mutex.lock conn.wmu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wmu)
    (fun () ->
      if not conn.dead then begin
        Queue.push line conn.outq;
        conn.out_len <- conn.out_len + String.length line;
        try_flush_locked conn;
        if conn.out_len > max_write_buf then begin
          (* The reader stopped reading and let [max_write_buf] pile
             up: cut it loose rather than hold the memory. *)
          conn_kill_locked conn;
          Metrics.write_overflow t.metrics
        end
      end);
  (* Leftover bytes (or a fresh corpse) need the I/O domain's
     attention — cheap enough to ping unconditionally. *)
  wake t

let reply t conn req_id body =
  (match body with
  | P.Refused { code; _ } ->
      Metrics.response_error t.metrics ~code:(P.error_code_to_string code)
  | _ -> Metrics.response_ok t.metrics);
  conn_send t conn (P.encode_response { P.req_id; body } ^ "\n")

(* The single exit for admitted work: whoever wins the [replied] CAS
   writes the one reply, feeds the replay cache, and releases the
   inflight slot. Losers (a wedged worker finishing after the
   supervisor already answered, a crash handler racing a wedge
   detector) no-op, so an admitted request gets exactly one reply and
   exactly one decrement. *)
let reply_work ?(loss = false) t w body =
  if Atomic.compare_and_set w.replied false true then begin
    let sojourn = Unix.gettimeofday () -. w.received in
    (* Record the latency before the reply hits the wire: a client may
       issue STATS the instant it reads this response, and the snapshot
       it gets back must already account for it. *)
    Metrics.observe_solve t.metrics ~latency_s:sojourn;
    (* AIMD signals: a blown deadline (refused here or detected by the
       wedge supervisor, which passes [~loss:true]) shrinks the window;
       a served result grows it and feeds the sojourn-time EMA behind
       the queue-wait estimate. Plain crashes are {e not} losses — they
       say nothing about load, and chaos runs inject them freely. *)
    (match body with
    | P.Refused { code = P.Deadline_exceeded; _ } ->
        Metrics.deadline_exceeded t.metrics;
        Overload.Limiter.on_loss t.limiter
    | P.Results _ ->
        if loss then Overload.Limiter.on_loss t.limiter
        else begin
          Overload.Limiter.on_success t.limiter;
          locked t (fun () ->
              t.ema_service_s <-
                Some (Overload.ema ~alpha:0.2 ~prev:t.ema_service_s sojourn))
        end
    | _ -> if loss then Overload.Limiter.on_loss t.limiter);
    (match (body, w.idem) with
    | P.Results _, Some key -> Replay.put t.replay key body
    | _ -> ());
    reply t w.wconn (Some w.req_id) body;
    ignore (Atomic.fetch_and_add t.admitted (-1));
    Metrics.set_admission t.metrics ~queue_depth:(Admission.length t.queue)
      ~admitted:(Atomic.get t.admitted)
      ~limit:(Overload.Limiter.limit t.limiter);
    locked t (fun () -> w.wconn.inflight <- w.wconn.inflight - 1);
    wake t
  end

(* ------------------------------------------------------------ workers *)

let job_reports reports =
  Array.to_list
    (Array.map
       (fun (r : Executor.report) ->
         { P.job_id = r.id;
           label = r.job.Job.label;
           spec = Job.spec_to_string r.job.Job.spec;
           result = r.result;
           cache_hit = r.cache_hit;
           wall_s = r.wall
         })
       reports)

let process t w =
  (* Chaos hook: a seeded roll per admitted request, keyed by the
     admission sequence number so a client retry (new admission) rolls
     fresh. [Crash]/[Io_error] escape the worker loop — a simulated
     domain death the supervisor must handle; [Delay] simulates a
     wedge. *)
  (match t.config.worker_faults with
  | None -> ()
  | Some f -> (
      match Fault.roll f ~key:(Printf.sprintf "srv:%d" w.seq) ~attempt:1 with
      | Some ((Fault.Crash | Fault.Io_error) as a) ->
          raise (Fault.Injected (Fault.describe a))
      | Some (Fault.Delay d) -> Unix.sleepf d
      | None -> ()));
  let now = Unix.gettimeofday () in
  let body =
    if now >= w.deadline then
      P.Refused
        { code = P.Deadline_exceeded; msg = "deadline passed while queued" }
    else
      (* Per-request executor over the shared cache/retry stack: one
         domain (this one), ambient cancel = the request deadline. *)
      let cancel =
        Tt_util.Cancel.create ~deadline_after:(w.deadline -. now) ()
      in
      let exec =
        Executor.create ~domains:1 ~cache:t.cache ~retry:t.retry
          ?telemetry:t.telemetry ?timeout:t.job_timeout ~cancel
          ~on_job:(fun ~job:_ ~result ~wall ~cache_hit ->
            Metrics.job t.metrics ~cache_hit
              ~error:(Result.is_error result) ~wall_s:wall)
          ()
      in
      match Executor.run_batch exec w.jobs with
      | reports, _ -> P.Results (job_reports reports)
      | exception e ->
          P.Refused { code = P.Internal; msg = Printexc.to_string e }
  in
  reply_work t w body

let rec worker_loop t slot =
  if Atomic.get slot.abandon then ()
  else
    match Admission.pop t.queue with
    | None -> ()
    | Some w ->
        Atomic.set slot.current (Some w);
        process t w;
        Atomic.set slot.current None;
        worker_loop t slot

let worker_body t slot =
  match worker_loop t slot with
  | () -> ()  (* queue closed, or this slot was abandoned *)
  | exception e ->
      (* The domain is dying (injected crash, or a genuine bug escaping
         [process]); answer its request so the invariant holds, flag
         the slot, and let the I/O domain respawn it. *)
      (match Atomic.get slot.current with
      | Some w ->
          reply_work t w
            (P.Refused
               { code = P.Internal;
                 msg = "worker crashed (" ^ Printexc.to_string e ^ "); restarted"
               });
          Atomic.set slot.current None
      | None -> ());
      Atomic.set slot.crashed true;
      wake t

(* Called from the I/O loop each tick: staff empty slots, respawn
   crashed workers, retire wedged ones. A {e wedged} worker is one
   whose current request blew through its deadline plus
   [wedge_grace_s] without replying — the supervisor answers [Internal]
   on its behalf (the CAS suppresses the worker's own reply if it ever
   finishes), abandons the old domain to the zombie list, and staffs a
   fresh slot so capacity is restored. Respawning keeps running during
   drain: queued work still needs workers to drain it. *)
let supervise t =
  let now = Unix.gettimeofday () in
  let replace i =
    let fresh = fresh_slot () in
    t.slots.(i) <- fresh;
    fresh.dom <- Some (Domain.spawn (fun () -> worker_body t fresh));
    Metrics.worker_restart t.metrics
  in
  Array.iteri
    (fun i slot ->
      if Option.is_none slot.dom then
        slot.dom <- Some (Domain.spawn (fun () -> worker_body t slot))
      else if Atomic.get slot.crashed then begin
        Option.iter Domain.join slot.dom;
        replace i
      end
      else
        match Atomic.get slot.current with
        | Some w
          when (not (Atomic.get w.replied))
               && now > w.deadline +. t.config.wedge_grace_s ->
            reply_work ~loss:true t w
              (P.Refused
                 { code = P.Internal; msg = "worker wedged; replaced" });
            Atomic.set slot.abandon true;
            Option.iter (fun d -> t.zombies <- d :: t.zombies) slot.dom;
            replace i
        | _ -> ())
    t.slots

(* ----------------------------------------------------------- frames *)

let handle_solve t conn ~id ~entry ~timeout_s ~idem ~priority ~received =
  let refuse code msg =
    Metrics.observe_solve t.metrics
      ~latency_s:(Unix.gettimeofday () -. received);
    reply t conn (Some id) (P.Refused { code; msg })
  in
  if draining t then refuse P.Shutting_down "server is draining"
  else
    (* Idempotent replay: a retry of an already-completed solve is
       answered from the cache — no admission, no execution. *)
    match Option.bind idem (Replay.find t.replay) with
    | Some body ->
        Metrics.replay_hit t.metrics;
        Metrics.observe_solve t.metrics
          ~latency_s:(Unix.gettimeofday () -. received);
        reply t conn (Some id) body
    | None -> (
        let budget =
          match timeout_s with
          | Some s -> Float.max 0. (Float.min s t.config.max_deadline_s)
          | None -> t.config.max_deadline_s
        in
        (* The adaptive admission decision, before any parsing, queue or
           per-connection bookkeeping: a pure function of the AIMD
           window, the in-flight count, the queue-wait estimate and the
           request's remaining budget. Shedding must be the cheapest
           path through the server — entry parsing (matrix generation,
           ordering, etree) costs real CPU, and an overloaded server
           that parses before refusing collapses under the very traffic
           it is trying to turn away. *)
        let limit = Overload.Limiter.limit t.limiter in
        let depth = Admission.length t.queue in
        let est_wait_s =
          Overload.queue_wait_estimate ~depth
            ~ema_service_s:
              (locked t (fun () ->
                   Option.value ~default:0. t.ema_service_s))
            ~workers:t.config.workers
        in
        Metrics.set_admission t.metrics ~queue_depth:depth
          ~admitted:(Atomic.get t.admitted) ~limit;
        match
          Overload.shed_decision ~limit
            ~admitted:(Atomic.get t.admitted)
            ~batch_headroom ~est_wait_s
            ~remaining_s:(Some budget) ~priority
        with
        | Some reason -> (
            Metrics.shed t.metrics
              ~reason:(Overload.shed_reason_to_string reason)
              ~priority:(P.priority_to_string priority);
            match reason with
            | Overload.Queue_wait ->
                Metrics.deadline_exceeded t.metrics;
                refuse P.Deadline_exceeded
                  (Printf.sprintf
                     "queue-wait estimate %.3fs exceeds remaining budget %.3fs"
                     est_wait_s budget)
            | Overload.Brownout ->
                refuse P.Overloaded "shedding batch traffic (brownout)"
            | Overload.Limit ->
                refuse P.Overloaded
                  (Printf.sprintf "concurrency limit (%d) reached" limit))
        | None -> (
            (* A repeated entry's jobs come from the memo, unparsed. *)
            match Tt_engine.Entry_memo.find t.entries entry with
            | Error e -> refuse P.Bad_request e
            | Ok [] -> refuse P.Bad_request "entry contains no jobs"
            | Ok jobs ->
                let w =
                  { wconn = conn;
                    req_id = id;
                    jobs;
                    deadline = received +. budget;
                    received;
                    priority;
                    idem;
                    seq = Atomic.fetch_and_add t.admit_seq 1;
                    replied = Atomic.make false
                  }
                in
                (* Count the request in-flight before exposing it to
                   workers — a worker may pop, reply and decrement before
                   try_push even returns. The same locked section enforces
                   the per-connection cap, so one pipelining client cannot
                   monopolize the queue. *)
                let admitted =
                  locked t (fun () ->
                      if conn.inflight >= t.config.max_inflight then false
                      else begin
                        conn.inflight <- conn.inflight + 1;
                        true
                      end)
                in
                if not admitted then
                  refuse P.Overloaded
                    (Printf.sprintf
                       "per-connection in-flight limit (%d) reached"
                       t.config.max_inflight)
                else begin
                  ignore (Atomic.fetch_and_add t.admitted 1);
                  if
                    not
                      (Admission.try_push t.queue
                         ~batch:(priority = P.Batch) w)
                  then begin
                    (* Roll back through the normal exit so the reply and
                       the decrement stay paired. *)
                    Metrics.shed t.metrics
                      ~reason:
                        (Overload.shed_reason_to_string Overload.Limit)
                      ~priority:(P.priority_to_string priority);
                    reply_work t w
                      (P.Refused
                         { code = P.Overloaded;
                           msg =
                             Printf.sprintf
                               "admission queue full (capacity %d)"
                               (Admission.capacity t.queue)
                         })
                  end
                end))

let handle_line t conn line =
  if line <> "" then begin
    let received = Unix.gettimeofday () in
    match P.decode_request line with
    | Error (id, code, msg) -> reply t conn id (P.Refused { code; msg })
    | Ok { P.id; op = P.Ping } ->
        Metrics.request t.metrics `Ping;
        reply t conn (Some id) P.Pong
    | Ok { P.id; op = P.Peek { key } } ->
        (* Cache peering: answered inline from the local cache levels
           (memory + disk) — [Cache.find] never consults the cache's
           own peer hook, so a peek cannot cascade across the ring. *)
        Metrics.request t.metrics `Peek;
        reply t conn (Some id) (P.Peeked (Tt_engine.Cache.find t.cache key))
    | Ok { P.id; op = P.Stats } ->
        Metrics.request t.metrics `Stats;
        reply t conn (Some id) (P.Stats_reply (stats_json t))
    | Ok { P.id; op = P.Health } ->
        Metrics.request t.metrics `Health;
        reply t conn (Some id) (P.Health_reply (health_json t))
    | Ok { P.id; op = P.Shutdown } ->
        Metrics.request t.metrics `Shutdown;
        reply t conn (Some id) P.Draining;
        request_shutdown t
    | Ok { P.id; op = P.Solve { entry; timeout_s; idem; priority } } ->
        Metrics.request t.metrics `Solve;
        handle_solve t conn ~id ~entry ~timeout_s ~idem ~priority ~received
  end

(* Frames the [len] bytes just read into [buf], the I/O loop's one read
   buffer: each complete line is handled, a partial tail waits in the
   connection's reader. *)
let feed t conn buf len =
  match Line_reader.feed conn.reader buf len (handle_line t conn) with
  | Ok () -> ()
  | Error Line_reader.Too_long ->
      reply t conn None (P.Refused { code = P.Bad_frame; msg = "frame exceeds 1 MiB" });
      conn.eof <- true

(* ---------------------------------------------------------- I/O loop *)

let conn_out_pending c =
  Mutex.lock c.wmu;
  let n = if c.dead then 0 else c.out_len in
  Mutex.unlock c.wmu;
  n

(* The start of each reactor turn: supervise the workers, evict
   connections idle past the timeout (nothing in flight, nothing
   buffered, no bytes either way for idle_timeout_s), then reap
   connections that are done: dead, or read side closed with no
   admitted request still owed a reply and no unflushed output. While
   draining, idle connections are done by definition, and the loop ends
   once none is left. *)
let tick t () =
  let draining = draining t in
  supervise t;
  let now = Unix.gettimeofday () in
  let reapable, reads, writes =
    locked t (fun () ->
        Hashtbl.fold
          (fun fd c (reap, reads, writes) ->
            let pending = conn_out_pending c in
            if
              t.config.idle_timeout_s > 0. && (not c.dead) && (not c.eof)
              && c.inflight = 0 && pending = 0
              && now -. c.last_active > t.config.idle_timeout_s
            then begin
              c.dead <- true;
              Metrics.idle_eviction t.metrics
            end;
            if c.inflight = 0 && (c.dead || ((c.eof || draining) && pending = 0)) then
              (c :: reap, reads, writes)
            else
              ( reap,
                (if c.eof || c.dead then reads else fd :: reads),
                if pending > 0 then fd :: writes else writes ))
          t.conns ([], [], []))
  in
  List.iter
    (fun c ->
      Hashtbl.remove t.conns c.fd;
      (try Unix.close c.fd with Unix.Unix_error _ -> ());
      Metrics.connection_closed t.metrics)
    reapable;
  if draining && Hashtbl.length t.conns = 0 && Admission.length t.queue = 0 then begin
    (* Queue closed only now: everything admitted has been replied
       to, so workers drain their Nones and exit. Zombies (retired
       wedged workers) already had their requests answered; joining
       them just waits out their bounded sleeps. *)
    Admission.close t.queue;
    Array.iter (fun slot -> Option.iter Domain.join slot.dom) t.slots;
    List.iter Domain.join (locked t (fun () -> t.zombies));
    None
  end
  else Some (reads, writes)

let accept t fd =
  Unix.set_nonblock fd;
  Hashtbl.replace t.conns fd
    { fd;
      wmu = Mutex.create ();
      outq = Queue.create ();
      out_off = 0;
      out_len = 0;
      reader = Line_reader.create ~limit:P.max_frame_bytes;
      inflight = 0;
      eof = false;
      dead = false;
      last_active = Unix.gettimeofday ()
    };
  Metrics.connection_opened t.metrics

let read t fd buf n =
  match Hashtbl.find_opt t.conns fd with
  | Some c when not (c.eof || c.dead) ->
      if n = 0 then c.eof <- true
      else begin
        c.last_active <- Unix.gettimeofday ();
        feed t c buf n
      end
  | _ -> ()

let write t fd =
  Option.iter
    (fun c ->
      Mutex.lock c.wmu;
      try_flush_locked c;
      Mutex.unlock c.wmu)
    (Hashtbl.find_opt t.conns fd)

let handler t = { Reactor.tick = tick t; accept = accept t; read = read t; write = write t }
let run t = Reactor.run t.reactor (handler t)
let start t = Reactor.start t.reactor (handler t)
let shutdown t = Reactor.shutdown t.reactor

(** The TCP front end: accept loop + supervised worker domains over the
    batch engine.

    Architecture (stdlib [Unix] only — no Lwt/Eio):

    - one {e I/O domain} (the caller of {!run}) owns the listening
      socket and every connection's read side, multiplexed by a
      {!Reactor}; it frames ({!Line_reader}) and parses requests,
      answers [ping]/[stats] instantly, and admits [solve] work into a
      bounded {!Admission} queue — or rejects it with [overloaded] when
      the queue (or the per-connection in-flight cap) is full, so
      offered load can never grow the resident set;
    - [workers] {e worker domains} pop admitted requests and run their
      jobs through a per-request {!Tt_engine.Executor} sharing one
      {!Tt_engine.Cache} / {!Tt_engine.Retry} stack, under a
      per-request {!Tt_util.Cancel} deadline token (a request whose
      deadline passes while queued is refused with
      [deadline_exceeded]; one that is already running degrades its
      remaining jobs to [Timed_out]);
    - responses are buffered per connection and written with
      non-blocking sockets — workers append and flush
      opportunistically, the I/O domain drains the rest on
      writability — so a slow or stalled reader can never block a
      worker, only grow its own write buffer, up to 8 MiB: past it
      the connection is dropped and counted as [write_overflows];
    - a [priority=batch] solve is shed [overloaded] once in-flight
      admitted work reaches 0.75 of the AIMD limit, which reserves the
      rest of the window for interactive traffic ({!Overload}).

    {b Supervision.} The I/O domain doubles as the worker supervisor:
    a worker domain that dies (an escaped exception — e.g. an injected
    {!Tt_engine.Fault} crash via [worker_faults]) or {e wedges} (its
    current request exceeds deadline + [wedge_grace_s] without a
    reply) is detected each tick; its in-flight request is answered
    with a typed [internal] error, a replacement domain is staffed,
    and [worker_restarts] is counted. A per-request CAS guarantees
    that whoever answers first — worker, crash handler, or wedge
    supervisor — is the only one that does: {e every admitted request
    gets exactly one reply}, under faults and restarts included.

    {b Idempotent replay.} A [solve] carrying an [idem] key whose
    reply was already computed is answered from a bounded {!Replay}
    cache without re-execution, so client retries after lost replies
    cannot double-execute.

    Graceful drain: {!request_shutdown} (or a [shutdown] frame, or the
    CLI's SIGINT/SIGTERM handler) closes the listener, refuses new
    [solve]s with [shutting_down], lets queued and in-flight requests
    finish (respawning crashed workers as needed so the queue always
    has staff), joins the workers, then closes every connection — so
    every admitted request gets exactly one reply and
    journals/telemetry flush per job as usual. *)

type config = {
  host : string;  (** Bind address (default ["127.0.0.1"]). *)
  port : int;  (** 0 picks an ephemeral port — read it back with {!port}. *)
  workers : int;  (** Worker domains (default 2; clamped to ≥ 1). *)
  queue_capacity : int;  (** Admission queue bound (default 64). *)
  max_deadline_s : float;
      (** Per-request deadline ceiling and default (seconds, default
          30): a request's [timeout_s] is clamped below it. *)
  idle_timeout_s : float;
      (** Evict a connection after this long with no traffic, nothing
          in flight and nothing buffered (default 300; [<= 0]
          disables). Counted as [idle_evictions]. *)
  max_inflight : int;
      (** Per-connection cap on admitted-but-unreplied solves (default
          32); past it, solves are refused [overloaded] — one
          pipelining client cannot monopolize the queue. *)
  replay_capacity : int;
      (** Bound on the idempotency {!Replay} cache (default 1024,
          clamped to ≥ 1; FIFO eviction). *)
  wedge_grace_s : float;
      (** Grace beyond a request's deadline before its worker is
          declared wedged and replaced (default 5). *)
  worker_faults : Tt_engine.Fault.t option;
      (** Chaos hook (default [None]): roll this fault spec once per
          admitted request on the worker about to run it — [Crash] /
          [Io_error] kill the worker domain (exercising crash
          supervision), [Delay] sleeps (exercising wedge detection
          when it outlasts deadline + grace). Seeded and keyed by
          admission sequence, so runs replay deterministically. *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?cache:Tt_engine.Job.outcome Tt_engine.Cache.t ->
  ?retry:Tt_engine.Retry.policy ->
  ?telemetry:Tt_engine.Telemetry.t ->
  ?job_timeout:float ->
  unit ->
  t
(** Binds and listens immediately (so {!port} is valid before {!run}).
    [cache] defaults to a fresh unbounded in-memory cache — a
    long-lived server should pass [Cache.create ~max_entries ()].
    [job_timeout] is the engine's per-job cooperative timeout,
    independent of request deadlines.
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The actually bound port (resolves [port = 0]). *)

val metrics : t -> Metrics.t

val stats_json : t -> Tt_engine.Telemetry.Json.t
(** The [STATS] payload: a ["server"] section (workers, queue depth and
    capacity, draining flag, uptime), an ["admission"] section
    (pushed/rejected/high-watermark), a ["replay"] section
    (capacity/entries/evictions), plus {!Metrics.to_json}. *)

val run : t -> unit
(** Run accept loop and workers; blocks until drain completes. *)

val start : t -> unit
(** {!run} on a background domain; returns once the server accepts
    connections. Use {!shutdown} to stop and join it. *)

val request_shutdown : t -> unit
(** Begin graceful drain; returns immediately. Safe from any domain and
    from signal handlers. Idempotent. *)

val shutdown : t -> unit
(** {!request_shutdown}, then block until the server has fully stopped
    (all replies written, workers joined, sockets closed). *)

val stopped : t -> bool
(** Has this server's {!run} loop fully exited (after drain or crash)?
    Safe from any domain — the shard tier's supervisor polls it to
    tell a dead backend from a merely slow one. *)

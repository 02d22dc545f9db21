(** The shard router: one v1-protocol endpoint in front of N shards,
    with live membership and per-shard circuit breakers.

    Speaks {!Tt_server.Protocol} on both sides, so every existing
    client — `treetrav request`, {!Tt_server.Client} sessions, the
    load generator — points at a cluster by changing only the port.

    Per request:
    - [solve]: the entry's {e first job id} (from
      {!Tt_engine.Manifest.parse}, memoized per entry) is the routing
      key; the request is forwarded along the key's failover sweep
      ({!Forward.call}) against the {e current} ring, carrying the
      client's idempotency key or a router-generated one — chosen once
      per logical request, so every re-send of the sweep deduplicates.
      Entries that fail to parse are refused [bad_request] at the
      router without contacting a shard. Multi-job entries run whole
      on the routed shard; their non-first jobs still benefit from
      peering ({!Peer}), which pulls cached results from the shards
      owning {e their} ids.
    - [peek]: forwarded along the key's sweep.
    - [ping] / [stats] / [health]: answered locally ([stats] returns
      the router's view — ring map, epoch, breaker states,
      {!Metrics} counters — not a shard's; [health] a compact subset).
    - [shutdown]: acknowledged with [draining], then the router stops
      (shards are not told; stop them via {!Cluster} or directly).

    {b Health monitoring.} A background prober ticks every
    [probe_interval_s], sending each shard a cheap seeded [peek]
    (key [probe-<seed>-<tick>], answered inline from the shard's
    cache) on a bounded-timeout connection, reporting the outcome to
    the shared {!Health} breakers. Requests consult the breakers
    before every attempt, so a dead shard costs each request a hash
    lookup instead of a connect timeout — and an idle cluster still
    notices death and recovery within a few probe intervals.

    {b Live membership.} {!reconfigure} swaps the ring atomically and
    bumps the {e ring epoch}. Per-key failover sweep orders are
    memoized ({!plan}) stamped with the epoch that computed them, so
    every memo entry from before the change is stale-checked away —
    no request routes on a ring that no longer exists. Per-connection
    {!Forward} pools re-consult {!plan} on every sweep, so even
    long-lived client connections follow joins and leaves.

    Concurrency: one accept domain, one prober domain, one domain per
    client connection, each connection with a private {!Forward} pool
    sharing the router's breakers and planner. Requests on one
    connection are handled in order (no pipelining across a failover
    sweep); concurrency comes from multiple connections, matching how
    the load generator drives it. *)

type config = {
  host : string;  (** Bind address (default ["127.0.0.1"]). *)
  port : int;  (** 0 picks an ephemeral port — read it with {!port}. *)
  connect_timeout_s : float;
      (** Per-shard connect bound, also the probe timeout (default
          {!Forward.default_connect_timeout_s}). *)
  read_timeout_s : float;
      (** Per-shard reply deadline (default
          {!Tt_server.Client.default_read_timeout_s}). *)
  retry : Tt_engine.Retry.policy;
      (** Failover sweep schedule (default 3 retries, capped
          exponential backoff): how many times the whole ring is
          re-swept, and the sleeps between sweeps, before a solve is
          refused. *)
  probe_interval_s : float;
      (** Health-probe period (default 0.25 s; [<= 0] disables the
          prober — breakers then learn only from request traffic). *)
  probe_seed : int;
      (** Probe keys are [probe-<seed>-<tick>] (default 43). *)
  breaker_threshold : int;
      (** Consecutive transport failures before a shard's breaker
          opens (default {!Health.default_threshold}). *)
  breaker_retry : Tt_engine.Retry.policy;
      (** Breaker open-duration schedule (default
          {!Health.default_retry}). *)
  hedge_seed : int;
      (** Seed of the pure per-key hedge gate (default 29): a seeded
          run hedges the same requests on every replay. *)
  hedge_ratio : float;
      (** Fraction of keys eligible for hedging (default 1.0; 0
          disables hedging entirely). *)
  hedge_quantile : float;
      (** RTT quantile that arms the hedge trigger (default 0.95): a
          solve hedges to the ring successor only after its owner has
          been silent this long). *)
}

val default_config : config

type t

val create : ?config:config -> ring:Ring.t -> unit -> t
(** Binds and listens immediately (so {!port} is valid before
    {!start}).
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
val ring : t -> Ring.t
(** The current ring (changes across {!reconfigure}). *)

val epoch : t -> int
(** The ring epoch: 0 at creation, +1 per {!reconfigure}. *)

val metrics : t -> Metrics.t
val health : t -> Health.t

val reconfigure : t -> Ring.t -> unit
(** Atomically replace the ring and bump the epoch. Safe while
    serving: in-flight sweeps finish their current attempt against the
    old order, then re-plan. Breaker state of departed shards is
    forgotten. The caller ({!Cluster.join} / {!Cluster.leave})
    owns draining and cache warming — this only switches routing. *)

val plan : t -> string -> Ring.node list
(** The failover sweep order for a key against the current ring,
    memoized per key and stamped with the ring epoch (stale entries
    recomputed on first use after {!reconfigure}). This is the
    [route] planner every per-connection forward pool shares; exposed
    for tests. *)

val stats_json : t -> Tt_engine.Telemetry.Json.t
(** The [stats] reply payload: a ["router"] section (shard count,
    vnodes, cluster map, ring epoch, breaker states) plus ["shard"]
    ({!Metrics.to_json}). *)

val health_json : t -> Tt_engine.Telemetry.Json.t
(** The [health] reply payload: role, ring epoch, shard count,
    per-shard breaker views ({!Health.to_json}). *)

val start : t -> unit
(** Run the accept loop and the health prober on background domains;
    returns immediately. Each client gets a domain of its own; a client
    accepted when OCaml's per-process domain cap is reached gets one
    typed [overloaded] refusal and is closed, and accepting goes on.
    @raise Invalid_argument when already started. *)

val request_shutdown : t -> unit
(** Ask the router to stop; returns immediately. Idempotent, safe
    from any domain. *)

val stopped : t -> bool
(** Whether a stop was requested (by {!request_shutdown} or a client
    [shutdown] frame). *)

val shutdown : t -> unit
(** {!request_shutdown}, then join the accept, prober and connection
    domains and close every socket. Connection domains notice the
    stop flag within their 0.25 s poll tick. *)

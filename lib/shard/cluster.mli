(** An in-process cluster: N shard servers, peered caches, one router.

    This is the shard tier's harness — the `treetrav cluster`
    subcommand, the chaos gates and the benchmarks all drive it. Each
    shard is a full {!Tt_server.Server} on an ephemeral port whose
    engine cache carries a {!Peer} fetch hook; the {!Router} fronts
    them with one v1-protocol endpoint.

    Shard caches are owned by the cluster, not the server, so
    {!kill_shard} + {!restart_shard} brings a shard back on the same
    port {e with its cache intact} — like a process restart over a
    persisted cache.

    {b Self-healing.} {!start_supervisor} runs a background domain that
    detects dead shards and restarts them after [restart_delay_s],
    emitting {!event}s and restart/downtime telemetry. Supervision is
    opt-in: without it, a killed shard stays dead (which failover tests
    rely on).

    {b Membership.} {!join} and {!leave} reconfigure the ring live —
    every change bumps the router's ring epoch, and every later sweep
    routes on the new ring. A joined shard warms its cache from each
    key's pre-join owner via {!Peer.fetch}'s [warm_from_successor].

    {b Partitions.} With [~proxied:true] every shard sits behind a
    {!Tt_server.Netfault} ingress proxy and {!set_partition} flips its
    gate — the nemesis harness's symmetric-partition primitive. *)

type t

type event =
  | Shard_down of string  (** Supervisor spotted a dead shard. *)
  | Shard_restarted of string * float  (** Name and downtime seconds. *)
  | Shard_joined of string
  | Shard_left of string

val event_to_string : event -> string

val start :
  ?shards:int ->
  ?workers:int ->
  ?vnodes:int ->
  ?peering:bool ->
  ?proxied:bool ->
  ?supervise:bool ->
  ?restart_delay_s:float ->
  ?on_event:(event -> unit) ->
  ?router_config:Router.config ->
  ?server_config:Tt_server.Server.config ->
  ?kill_after:int * int ->
  unit ->
  t
(** Boot [shards] (default 3) servers with [workers] (default 2)
    domains each, build the ring (names [s0]…, [?vnodes]) over their
    bound ports, start the router. [peering] (default [true]) installs
    the cross-shard cache hook. [proxied] (default [false]) puts a
    {!Tt_server.Netfault} ingress proxy in front of every shard and
    builds the ring over the {e proxy} ports, enabling
    {!set_partition}. [supervise] (default [false]) calls
    {!start_supervisor}; [restart_delay_s] (default 0.3) is how long a
    shard must be down before the supervisor restarts it — long enough
    for breakers to open and failover to engage. [on_event] observes
    supervision and membership transitions (called from the acting
    domain; must not block). [server_config] seeds every shard's
    config (host/port/workers overridden). [kill_after:(i, n)]
    gracefully shuts shard [i] down ({!kill_shard}) at the router's
    [n]-th forwarded op, on the forwarding domain and before that op is
    sent — a deterministic mid-run kill for failover tests, counted in
    forwards rather than wall time.
    @raise Invalid_argument on [shards < 1], [restart_delay_s < 0], or
    an out-of-range [kill_after] index. *)

val router_port : t -> int
(** Point any v1-protocol client here. *)

val stopped : t -> bool
(** Whether the router has been asked to stop (e.g. by a client
    [shutdown] frame) — the CLI's cue to tear the cluster down. *)

val request_stop : t -> unit
(** Flag the router to stop; returns immediately. Safe from signal
    handlers and any domain (it only flips an atomic) — follow with
    {!stop} for the actual teardown. *)

val ring : t -> Ring.t
(** The router's {e current} ring — for shard-aware clients
    ({!Shard_client}) and peer lookups. Changes on {!join}/{!leave}. *)

val ring_epoch : t -> int
(** Starts at 0; +1 per {!join}/{!leave}. *)

val size : t -> int
(** Number of shard slots ever created (including ones that {!leave}d
    — their indices stay valid). *)

val shard_port : t -> int -> int
val shard_alive : t -> int -> bool

val shard_in_ring : t -> int -> bool
(** [false] once the shard has {!leave}d. *)

val kill_shard : t -> int -> unit
(** Graceful drain (queued work finishes; new solves there are refused
    [shutting_down], which the router fails over). Idempotent. Under
    supervision the shard comes back after [restart_delay_s]. *)

val restart_shard : t -> int -> unit
(** Re-bind the same port with the shard's original cache. No-op when
    alive. *)

val start_supervisor : t -> unit
(** Spawn the supervisor domain (idempotent): every 50 ms it scans for
    dead, non-removed shards — killed ones and gracefully self-stopped
    ones alike — and restarts each on its original port with its cache
    once it has been down [restart_delay_s]. Each restart emits
    {!Shard_restarted} and records {!Metrics.restart} (count +
    downtime) on the router's metrics. Restart failures (a dying
    server still holding the port) are retried on the next scan. *)

val join : t -> int
(** Boot one new shard (next [s<i>] name, fresh empty cache, proxied
    iff the cluster is), add it to the ring with {!Ring.add}, and
    reconfigure the router — bumping the ring epoch. Returns the new
    shard's index. The new shard's peer hook runs in
    [warm_from_successor] mode: keys it now owns are lazily pulled
    from their pre-join owner as traffic touches them. *)

val leave : t -> int -> unit
(** Graceful departure: remove the shard from the ring {e first}
    (reconfiguring the router, so no new request routes to it), then
    drain it with {!kill_shard} and mark it removed — the supervisor
    will not resurrect it. Idempotent.
    @raise Invalid_argument when it is the last ring node. *)

val set_partition : t -> int -> Tt_server.Netfault.gate -> unit
(** Flip shard [i]'s ingress gate: [Gate_severed] is a symmetric
    partition (router {e and} peers lose it at once), [Gate_stalled]
    freezes its link, [Gate_open] heals.
    @raise Invalid_argument when the cluster was not started
    [~proxied:true]. *)

val partition : t -> int -> unit
(** [set_partition t i Gate_severed]. *)

val heal : t -> int -> unit
(** [set_partition t i Gate_open]. *)

val health : t -> Health.t
(** The router's breakers. *)

val snapshot : t -> Metrics.snapshot
(** Router counters, with [peer_hits]/[peer_misses] summed across
    shards. *)

val prometheus : t -> string
(** {!Metrics.to_prometheus} of {!snapshot} — the cluster-wide
    [tt_shard_*] exposition. *)

val stop : t -> unit
(** Supervisor, router, then every live shard — graceful
    throughout. *)

(** Shard-tier counters — one instance per router (forward/failover
    side) or per shard (peer side); a {!Cluster} holds both kinds.
    Each metric is declared once in a {!Tt_server.Registry}.

    All operations are thread-safe, each taking the registry's lock
    once; {!snapshot} is consistent (taken under that same lock). *)

type t

type breaker_state = Breaker_closed | Breaker_open | Breaker_half_open
(** Exposition values 0 / 1 / 2 of the [tt_shard_breaker_state]
    gauge. *)

val breaker_state_to_int : breaker_state -> int

val create : unit -> t

val forward : t -> shard:string -> unit
(** An op was handed to [shard] (counted per attempt: a solve that
    fails over counts once per shard tried). *)

val at_forward : t -> int -> (unit -> unit) -> unit
(** [at_forward t n f] runs [f] once, on the domain that counts the
    [n]-th {!forward}, before that op is handed over — or at once when
    [n] forwards were already counted. One hook at a time: a later call
    replaces a pending one. *)

val failover : t -> unit
(** The preferred shard failed and the sweep moved to a successor. *)

val reject : t -> unit
(** The router refused a request itself (bad frame, unparseable
    entry) without contacting any shard. *)

val unrouted : t -> unit
(** A full failover sweep (all shards, all backoff rounds) failed;
    the client got a retryable [internal] refusal. *)

val peer_hit : t -> unit
val peer_miss : t -> unit
(** Outcome of one cross-shard cache peek made by this shard's
    {!Peer} fetch hook ({e outgoing} peeks; the receiving side counts
    the same event under its server metrics' [op="peek"]). *)

val breaker : t -> shard:string -> breaker_state -> unit
(** [shard]'s breaker entered a state: sets its state gauge, and
    counts an entry into open as an open and into closed as a close.
    {!Health} calls it at each transition, where it counts its own
    opens and closes. *)

val breaker_forget : t -> shard:string -> unit
(** Drop [shard]'s breaker-state gauge (the shard left the ring). *)

val restart : t -> shard:string -> downtime_s:float -> unit
(** One supervised restart of [shard], down for [downtime_s] (clamped
    to ≥ 0) between death detection and the restart. *)

val hedge : t -> outcome:string -> unit
(** One hedged attempt resolved with [outcome] — ["won"] (the hedge's
    reply was used), ["lost"] (the primary answered first after the
    hedge fired), or ["failed"] (both legs failed and the sweep moved
    on). *)

val deadline_reject : t -> unit
(** A request was refused with [deadline_exceeded] by this tier — its
    budget ran out before (or while) forwarding, so no further shard
    work was attempted. *)

val set_ring_epoch : t -> int -> unit
(** Current ring epoch (bumped by every join/leave reconfiguration). *)

type snapshot = private {
  forwards_total : int;
  failovers : int;
  unrouted : int;
  peer_hits : int;
  peer_misses : int;
  breaker_opens : int;
  breaker_closes : int;
  restarts_total : int;
  downtime_s : float;
  hedges : (string * int) list;  (** per outcome, sorted *)
  deadline_rejects : int;
  values : Tt_server.Registry.snapshot;  (** what the dumps render *)
}

val snapshot : t -> snapshot

val add_peers : snapshot -> t -> snapshot
(** [add_peers s p] is [s] with [p]'s peer hits and misses added. *)

val to_json : snapshot -> Tt_engine.Telemetry.Json.t

val to_prometheus : snapshot -> string
(** Text exposition, families prefixed [tt_shard_]:
    [tt_shard_forwards_total{shard="…"}], [tt_shard_failovers_total],
    [tt_shard_rejects_total], [tt_shard_unrouted_total],
    [tt_shard_peer_hits_total], [tt_shard_peer_misses_total],
    [tt_shard_breaker_opens_total], [tt_shard_breaker_closes_total],
    [tt_shard_breaker_state{shard="…"}] (gauge 0/1/2),
    [tt_shard_restarts_total{shard="…"}],
    [tt_shard_hedges_total{outcome="…"}],
    [tt_shard_deadline_exceeded_total],
    [tt_shard_downtime_seconds_total], [tt_shard_ring_epoch]. *)

(** Shard-aware client: route directly from the client given a cluster
    map, skipping the router hop.

    Uses the same routing key as {!Router} (first job id of the parsed
    entry) over the same {!Forward} failover sweep, so direct and
    routed traffic agree on placement and share shard caches. Like a
    {!Tt_server.Client.session}, an instance is single-domain; run one
    per domain ({!loadgen_solver} does). *)

type t

val create :
  ?connect_timeout_s:float ->
  ?read_timeout_s:float ->
  ?retry:Tt_engine.Retry.policy ->
  ?tag:string ->
  ?metrics:Metrics.t ->
  Ring.t ->
  t
(** [retry] schedules failover ring sweeps (see {!Forward.create});
    [tag] (default ["sc"]) namespaces generated idempotency keys;
    [metrics] (fresh by default) may be shared across clients to
    aggregate forward/failover counts. *)

val solve :
  t ->
  ?timeout_s:float ->
  ?idem:string ->
  ?priority:Tt_server.Protocol.priority ->
  string ->
  (Tt_server.Protocol.job_report list, Tt_server.Client.failure) result
(** Route one manifest entry to its owner shard, failing over along
    the ring. Every solve carries an idempotency key ([idem] or
    ["<tag>-<seq>"]) and forwards [priority] (default interactive).
    Unparseable entries are [Refused Bad_request] without touching the
    network; an exhausted sweep surfaces as [Transport] (retryable by
    the caller — re-solving is idempotent). *)

val peek : t -> string -> Tt_engine.Job.outcome option
(** Best-effort cache peek for a job id at its owner (with failover);
    [None] on miss or any error. *)

val close : t -> unit

val loadgen_solver :
  ?connect_timeout_s:float ->
  ?read_timeout_s:float ->
  ?retry:Tt_engine.Retry.policy ->
  ?metrics:Metrics.t ->
  Ring.t ->
  tag:string ->
  conn:int ->
  Tt_server.Loadgen.solver
(** Plug cluster routing into {!Tt_server.Loadgen}: pass
    [Some (loadgen_solver … ring)] as [config.solver] and each load
    connection drives its own Shard_client (tagged ["<tag>-c<conn>"],
    sharing [metrics]). *)

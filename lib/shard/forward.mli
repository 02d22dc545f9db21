(** Failover forwarding: one pooled connection per shard, swept in
    ring order, consulting the shared circuit breakers, propagating
    deadline budgets, and (optionally) hedging the owner attempt
    against the ring successor.

    Not thread-safe — the router gives each client connection its own
    pool (connections are cheap; contention on a shared pool is not).
    The optional {!Health} breaker set, the routing planner, and the
    {!hedge_state} {e are} shared across pools, so one connection
    discovering a dead (or slow) shard informs every other connection.

    {b Safety of failover and hedging.} A transport failure — or a
    hedge whose loser was already executing — leaves it unknown whether
    the op ran. Re-sending (or double-sending) is safe because the
    router guarantees every forwarded solve carries an idempotency key:
    a duplicate that lands on the {e same} shard is answered from its
    replay cache, and one that lands on a successor recomputes a
    content-addressed job whose result is deterministic — the value
    digest cannot diverge, the cost is at most one redundant compute. *)

type t

val default_connect_timeout_s : float
(** 1 s — failover must move to a successor in about a second, not sit
    out the kernel's SYN-retry budget. *)

(** {2 Hedge state} *)

type hedge_state
(** Shared (thread-safe) hedging state: per-shard RTT windows
    ({!Tt_server.Overload.Rtt}) plus the seeded gate parameters. Create
    one per router and pass it to every pool. *)

val create_hedge :
  ?ratio:float ->
  ?quantile:float ->
  ?min_trigger_s:float ->
  seed:int ->
  unit ->
  hedge_state
(** [ratio] (default 1.0) bounds hedge volume via the pure
    {!Tt_server.Overload.hedge_gate} — a fraction of keys, the same
    keys every seeded replay. [quantile] (default 0.95) sets the
    trigger: a hedge fires only after the owner has been silent for its
    observed p95. [min_trigger_s] (default 2 ms) floors the trigger so
    cache-hot shards don't hedge on scheduler jitter.
    @raise Invalid_argument when [ratio < 0] or [quantile] outside
    (0, 1]. *)

val hedge_observe : hedge_state -> shard:string -> float -> unit
(** Record one observed RTT (seconds) for [shard]. Pools do this
    automatically on every parsed reply; exposed for tests and
    calibration. *)

val hedge_trigger : hedge_state -> shard:string -> float option
(** [shard]'s current trigger — the configured quantile of its RTT
    window, floored at [min_trigger_s] — or [None] while the window
    has too few samples for the quantile to be meaningful. *)

val create :
  ?connect_timeout_s:float ->
  ?read_timeout_s:float ->
  ?retry:Tt_engine.Retry.policy ->
  ?health:Health.t ->
  ?hedge:hedge_state ->
  ?route:(string -> Ring.node list) ->
  metrics:Metrics.t ->
  Ring.t ->
  t
(** [retry] (default {!Tt_engine.Retry.none}) schedules {e whole-ring}
    sweeps: one sweep per remaining delay after the first, sleeping
    the delay between sweeps, keyed by the routed key.

    [health] (default none): per-shard breakers consulted before every
    attempt — a breaker-open shard is skipped without touching the
    network, and every attempt's outcome is reported back
    ({!Health.success} on {e any} parsed reply, refusals included;
    {!Health.failure} on transport failure).

    [hedge] (default none): enables hedged solves — see {!call}.

    [route] (default [Ring.successors ring]) supplies the sweep order
    per key. The router passes its live-ring planner here,
    so a pool created before a [join]/[leave] still routes against the
    {e current} ring; [route] is re-consulted on every sweep. *)

val ring : t -> Ring.t
(** The ring passed at creation. Static — a router's live ring is
    behind [route], not this accessor. *)

val close : t -> unit

val call :
  t ->
  key:string ->
  ?deadline:float ->
  Tt_server.Protocol.op ->
  (Tt_server.Protocol.body, Tt_server.Protocol.error_code * string) result
(** Sweep [route key] owner-first. Per node: skip breaker-open shards;
    otherwise connect (bounded) if not pooled, send [op], read the
    reply. Transport failures and routable refusals ([shutting_down],
    [overloaded], [internal], [unavailable] — the shard is useless
    right now but a successor can compute any key) drop that node's
    pooled connection and move on, counting a failover; any other
    reply — success {e or} a deterministic refusal like [bad_request]
    — is returned verbatim.

    {b Deadlines.} [deadline] is {e absolute} ([Unix.gettimeofday]
    clock). Every solve attempt rewrites the op's [timeout_s] to the
    remaining budget, so each hop downstream sees only what is left; a
    sweep stops — and a backoff sleep that would land past the deadline
    is never taken — with [Error (Deadline_exceeded, _)] (counted as a
    deadline reject) the moment the budget runs out.

    {b Hedging.} With a {!hedge_state} and a solve op, the first
    attempted node races the ring successor: after the owner has been
    silent for its observed p95 trigger (and the seeded gate admits the
    key, and the remaining budget covers the successor's observed RTT
    per {!Tt_server.Overload.should_hedge}), the same op — same
    idempotency key — is sent to the successor and the first parsed
    reply wins. The loser's pooled connection is dropped (its reply is
    abandoned; the pool reconnects on next use). Outcomes are counted
    as [tt_shard_hedges_total{outcome="won"|"lost"|"failed"}].

    When every sweep of every backoff round fails, returns — counting
    it as unrouted — [Error (Overloaded, _)] when the last routable
    refusal seen was [overloaded] (the cluster is shedding, not dead),
    a retryable [Error (Unavailable, _)] if the final sweep skipped any
    breaker-open shard, and [Error (Internal, _)] when every shard was
    genuinely tried. *)

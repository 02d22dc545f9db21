(** The domain pool: batch execution of {!Job.t}s with caching,
    isolation, retries, fault injection and telemetry.

    {!run_batch} distributes the jobs over a fixed pool of [domains]
    OCaml 5 domains (the calling domain is one of them, so [domains = 1]
    spawns nothing and degenerates to a plain sequential loop). Jobs are
    claimed from an atomic counter; results land in a slot array indexed
    by submission position, so the returned reports are {e always} in
    submission order regardless of completion order, and the result
    list is bit-for-bit independent of the domain count — solvers are
    pure, so only scheduling, never values, varies with parallelism.

    Isolation: an exception escaping a job is caught and recorded as
    [Error (Crashed _)] for that job only; the batch continues. A
    [timeout] is enforced {e cooperatively}: each attempt runs under a
    {!Tt_util.Cancel} deadline token that the long-running solvers poll,
    so an overlong job now aborts close to the limit instead of holding
    its domain to completion; jobs that slip past the polls are still
    caught by the post-hoc wall check. Either way the result degrades to
    [Error (Timed_out wall)], which is {e terminal} — never retried.
    Cache hits are never timed out.

    Resilience: with [retry], a retryable failure (a crash, or an
    injected fault from [faults]) is re-attempted up to
    [retry.retries] times, sleeping the deterministic
    {!Retry.delays} backoff between attempts. With [faults], each
    attempt first consults {!Fault.roll} — a pure function of
    (seed, job id, attempt), so chaos runs are reproducible and, because
    solvers are pure and injected failures strike {e before} the
    computation, a chaos run that retries to completion yields a
    {!results_digest} bit-identical to the fault-free run. With
    [journal], every finished job is appended (and flushed) to a
    write-ahead {!Journal}; with [completed] (typically the table
    returned by {!Journal.load_or_create}), jobs already present are
    returned without recomputation and marked [resumed].

    Caching: results are memoized in a shared {!Cache} keyed by
    {!Job.id}. Jobs that need the MinMem traversal as preprocessing
    ([Min_io], [Schedule]) fetch it through the cache under the id of
    the corresponding [Min_memory Minmem] job, so the six MinIO
    policies on one tree share a single MinMem run — and a later
    explicit MinMem job on that tree is a hit, too. A worker writes a
    tree's encoding once for a run of consecutive jobs on it, into a
    {!Job.id_buffer} it owns for the batch (keyed by the physical tree,
    dropped when the batch returns). From that buffer it derives each
    job's id with {!Job.id_in}, once per job, and the tree's
    preprocessing id once per such run, when its first job that needs
    it starts. *)

type t

type on_job =
  job:Job.t -> result:Job.result -> wall:float -> cache_hit:bool -> unit
(** Observation hook, called once per finished job (computed, cached or
    resumed alike) {e on the worker domain that finished it} — the
    callback must be domain-safe and cheap (it sits on the job hot
    path). This is how the service layer feeds its latency/queue-depth
    metrics without the engine knowing about them. *)

val create :
  ?domains:int ->
  ?timeout:float ->
  ?cache:Job.outcome Cache.t ->
  ?telemetry:Telemetry.t ->
  ?faults:Fault.t ->
  ?retry:Retry.policy ->
  ?journal:Journal.t ->
  ?completed:(string, Job.result) Hashtbl.t ->
  ?cancel:Tt_util.Cancel.t ->
  ?on_job:on_job ->
  unit ->
  t
(** [domains] defaults to 1; it is clamped to at least 1. [cache]
    defaults to a fresh in-memory cache; pass your own to share it
    across batches or persist it (pass [faults] to {!Cache.create} as
    well to chaos-test the disk level). [telemetry], when given,
    receives a ["job"] event per job and a ["batch"] event per
    {!run_batch}. [retry] defaults to {!Retry.none}.

    [cancel] is an ambient {!Tt_util.Cancel} token: every job attempt
    runs under a per-attempt token {e linked} to it, so expiring the
    ambient token (e.g. a service request's deadline passing) degrades
    the in-flight job to [Error (Timed_out _)] at its next poll and
    skips the rest of the batch's computations the same way. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count ()], capped at 8 — the engine's
    jobs are memory-bandwidth-hungry, and beyond that the pool mostly
    adds contention. *)

val domains : t -> int

val cache : t -> Job.outcome Cache.t

type report = {
  job : Job.t;
  id : string;
      (** {!Job.id} of [job], computed once by the worker that ran it
          (from one encoding of the tree per run of same-tree jobs).
          Consumers of reports — {!results_digest}, the telemetry
          ["job"] event, the server's replies — read it here rather
          than re-deriving it. *)
  result : Job.result;
  wall : float;  (** Seconds spent computing, incl. retries and backoff
                     (≈0 on a cache hit or resumed job). *)
  cache_hit : bool;  (** The job's own result came from the cache. *)
  domain : int;  (** Worker slot in [0, domains). *)
  attempts : int;  (** Attempts actually run (1 normally, 0 if resumed). *)
  resumed : bool;  (** Result came from the [completed] table. *)
}

type summary = {
  jobs : int;
  errors : int;
  wall : float;  (** Whole-batch wall clock. *)
  cache_hits : int;  (** Cache hits during this batch (incl. preprocessing). *)
  cache_misses : int;
  busy : float array;  (** Per-slot busy seconds, length [domains]. *)
  retries : int;  (** Total extra attempts across the batch. *)
  resumed : int;  (** Jobs answered from the [completed] table. *)
}

val utilization : summary -> float
(** Mean busy fraction over the slots, in [0, 1]. *)

val results_digest : report array -> string
(** Hex digest fingerprinting (job id, result value) pairs in report
    order — no timings, so it is stable across runs, domain counts,
    cache states, and injected-fault/retry histories. This is the value
    the chaos target compares between faulty and fault-free runs. *)

val value_digest : report array -> string
(** Like {!results_digest} but order-insensitive and duplicate-free
    ({!Job.value_digest_of_results}): the digest a concurrent service
    run — where request interleaving scrambles completion order — is
    compared against a sequential [treetrav batch] of the same jobs. *)

val run_batch : t -> Job.t list -> report array * summary
(** Reports are in submission order. *)

val run : t -> Job.t list -> Job.result list
(** Just the results of {!run_batch}, in submission order. *)

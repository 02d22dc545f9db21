(** Seeded overload nemesis: drive a proxied cluster past its capacity
    with one shard stalled, and prove the overload-control stack —
    deadline propagation, AIMD admission, brownout, hedged requests —
    degrades {e in the typed, bounded way it promises} rather than by
    losing work.

    The run has three phases:

    + {b Calibrate.} A closed-loop load measures the healthy cluster's
      sustainable throughput and warms every shard's RTT window, so
      the hedge triggers are armed before anything goes wrong.
    + {b Overload.} One shard's ingress gate goes silent
      ({!Tt_server.Netfault.Gate_stalled}); an open-loop load offers
      [overdrive] times the measured capacity, every request carrying
      a [deadline_s] budget and a [batch_share] slice of batch
      traffic. A client-side ledger buckets every request: ok (on time
      or late), typed shed ([overloaded] / [deadline_exceeded]), or
      untyped loss.
    + {b Oracle.} Every issued entry is re-solved on a pristine
      1-shard cluster; any completed reply that disagrees is a
      contradiction, and the full-set value digest is the
      run-invariant identity two runs of the same seed must share.

    Entries are synthesized per request from the loadgen's
    deterministic idempotency keys ([gen random seed=<hash(idem)>]),
    so the issued set is a pure function of the seed — diffable across
    runs — while distinct per-request seeds defeat the
    content-addressed cache and force real work under overdrive.

    {!check} is the [make chaos-overload] gate: zero untyped losses,
    zero late completions, zero contradictions, evidence the run
    actually overloaded (sheds happened, batch shed first, a hedge won
    its race), and interactive goodput above [interactive_floor]. The
    [overload-summary] lines of {!report_to_string} carry only
    run-invariant facts and are diffed byte-for-byte between two runs
    of the same seed. *)

type config = {
  seed : int;  (** Drives loadgen idems, priorities, and hedge gate. *)
  shards : int;  (** Ring size (≥ 2; default 3). *)
  workers : int;  (** Worker domains per shard (default 1). *)
  queue_capacity : int;
      (** Per-shard admission queue (default 1 — tiny, so the AIMD
          window binds at modest concurrency). *)
  cal_requests : int;  (** Calibration volume (default 48). *)
  cal_connections : int;  (** Calibration concurrency (default 3). *)
  requests : int;  (** Overload-phase volume (default 200). *)
  connections : int;
      (** Overload concurrency (default 12) — must exceed the
          cluster-wide admission window for shedding to engage. Each
          connection has one request in flight, and with one shard
          stalled the two live shards admit 4 at once (queue 1 plus 1
          worker each), so 12 connections triple that window; at 6, a
          2-vCPU host absorbed nearly all the offered load and often
          shed no batch request. *)
  batch_share : float;  (** Fraction sent [priority=batch] (default 0.3). *)
  deadline_s : float;  (** Per-request budget (default 1.0). *)
  overdrive : float;
      (** Offered rate as a multiple of measured capacity (default 4). *)
  stall_shard : int;  (** Which shard's ingress stalls (default 0). *)
  entry_size : int;  (** Generated problem size (default 40). *)
  interactive_floor : float;
      (** Minimum interactive ok/issued fraction (default 0.15). *)
  late_slack_s : float;
      (** Grace over [deadline_s] before an ok reply counts as late
          (default 0.5) — absorbs the final reply's write/read hop. *)
}

val default_config : config

type class_report = { cr_issued : int; cr_ok : int; cr_shed : int }

type report = {
  config : config;
  measured_rps : float;  (** Clean closed-loop capacity. *)
  offered_rps : float;  (** [overdrive * measured_rps]. *)
  issued : int;
  ok : int;
  sheds : int;  (** Typed [overloaded] / [deadline_exceeded] refusals. *)
  late : int;  (** Ok replies past [deadline_s + late_slack_s]. *)
  untyped : int;  (** Everything else — must be zero. *)
  untyped_example : string option;
  interactive : class_report;
  batch : class_report;
  contradicted : int;
      (** Completed replies whose value digest disagrees with the
          pristine oracle. *)
  hedge_won : int;  (** Router hedges whose duplicate reply was used. *)
  hedge_lost : int;
  hedge_failed : int;
  router_deadline_rejects : int;
  reference_digest : string;
      (** Oracle {!Tt_server.Protocol.value_digest} over {e all} issued
          entries — run-invariant for a fixed seed. *)
  load : Tt_server.Loadgen.summary;
  wall_s : float;
}

val goodput : class_report -> float
(** [ok / max 1 issued]. *)

val run : config -> report
(** Boot, calibrate, stall + overload, heal, oracle-check, stop.
    @raise Invalid_argument on [shards < 2], an out-of-range
    [stall_shard], non-positive volumes, [overdrive <= 0] or
    [deadline_s <= 0].
    @raise Failure when the {e calibration} phase (healthy cluster, no
    deadline) loses a request, or the oracle cannot solve an entry. *)

val check : report -> (unit, string) result
(** The acceptance predicate described above. *)

val report_to_string : report -> string
(** Human-readable report followed by the machine-diffable
    [overload-summary] lines (config, invariant verdicts, oracle
    digest — nothing wall-clock-dependent). *)

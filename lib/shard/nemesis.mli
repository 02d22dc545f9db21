(** Deterministic nemesis: a seeded fault schedule driven against a
    live, supervised, proxied {!Cluster} under load.

    {b Determinism.} The schedule is a pure function of the config —
    each step's decision derives from [Digest.string] of
    [(seed, step)] folded over a model of the cluster (ring members,
    open disturbance, coverage debt), mirroring how
    {!Tt_engine.Fault} and {!Tt_server.Netfault} make injection
    decisions. Same seed, same plan, byte for byte — which is what
    [make chaos-nemesis] asserts by diffing two [--plan-only] runs.

    {b Shape of a schedule.} One disturbance in flight at a time: any
    open partition/stall is healed before the next fault fires (two
    overlapping faults could take out every replica of a key for a
    whole step in a quorum-less tier). The first steps pay off a
    {e coverage debt} — at least one kill (exercising the supervisor
    and a breaker open/close cycle), one partition or stall
    (exercising the {!Tt_server.Netfault} gate), and one membership
    change (exercising ring epochs) — then free play, seeded, over
    every feasible fault.

    {b Invariants checked} ({!check}): after the schedule completes
    and the cluster quiesces, a full sweep of the workload yields the
    {e same value digest as a pristine single-shard cluster}; no reply
    admitted during chaos contradicted the clean values; every
    in-ring shard is back up with its breaker closed; and the run
    actually exercised ≥1 supervised restart, ≥1 breaker open and
    close, and ≥1 ring reconfiguration. *)

type fault =
  | Kill of int  (** Graceful shard kill; the supervisor restarts it. *)
  | Stall of int  (** Freeze the shard's ingress ([Gate_stalled]). *)
  | Partition of int  (** Sever it symmetrically ([Gate_severed]). *)
  | Heal of int  (** Reopen its gate. *)
  | Join  (** Boot and ring-add a fresh shard. *)
  | Leave of int  (** Graceful ring departure. *)

val fault_to_string : fault -> string
(** ["kill s1"], ["partition s0"], ["join"], … *)

val plan_to_string : fault list -> string
(** One fault per line — the [--plan-only] output diffed for
    determinism. *)

type config = {
  seed : int;
  steps : int;
  shards : int;  (** Initial ring size (≥ 1; the gate runs with 3). *)
  max_shards : int;  (** [Join] is only scheduled below this. *)
  requests : int;  (** Load issued while the schedule runs. *)
  connections : int;
  step_gap_s : float;  (** Wall-clock gap between schedule steps. *)
  restart_delay_s : float;
      (** Supervisor restart delay — long enough for breakers to open
          while the shard is down, so every kill also exercises a
          breaker cycle. *)
  workers : int;  (** Worker domains per shard. *)
  quiesce_timeout_s : float;
      (** Recovery bound: how long {!run} waits after the schedule for
          all shards up + all breakers closed before declaring the
          run unrecovered. *)
}

val default_config : config
(** Seed 11, 8 steps, 3 shards (max 5), 400 requests on 4
    connections, 0.4 s gap, 0.5 s restart delay. *)

val plan : config -> fault list
(** The schedule alone — pure, no I/O. On a ring too small to shrink
    with joins exhausted (e.g. a 1-shard bench baseline), membership
    steps degrade to kills.
    @raise Invalid_argument on [shards < 1], [max_shards < shards], or
    [steps < 1]. *)

type report = {
  faults : fault list;  (** The plan that ran. *)
  events : Cluster.event list;  (** Runtime observations, in order. *)
  load : Tt_server.Loadgen.summary;
  timeline : (int * int * int) list;
      (** Availability per second of load: (second, ok, errors) — the
          error-rate timeline the bench section reports per shard
          count. *)
  clean_digest : string;  (** Pristine 1-shard reference. *)
  final_digest : string;  (** Post-quiescence full sweep. *)
  digest_match : bool;
  lost_admitted : int;
      (** Ok replies during chaos whose per-entry value digest
          disagreed with the clean reference. *)
  restarts : int;
  breaker_opens : int;
  breaker_closes : int;
  ring_epoch : int;
  recovered : bool;
}

val reference_digests :
  workers:int -> string list -> (string, string) Hashtbl.t * string
(** The clean-cluster oracle: solve each entry once on a pristine
    1-shard cluster with [workers] workers and no peering. Returns each
    entry's {!Tt_server.Protocol.value_digest} and the value digest of
    all their reports together.
    @raise Failure when an entry cannot be solved. *)

val run : config -> report
(** Build the reference digests on a pristine single-shard cluster,
    then boot a [~proxied ~supervise] cluster, drive {!plan} against
    it while a load generator issues [requests] through resilient
    retrying sessions, heal, wait for quiescence, and sweep. Several
    seconds of wall clock ([steps × step_gap_s] plus recovery).
    @raise Failure when the reference or final sweep itself cannot
    solve (nothing to measure against). *)

val check : report -> (unit, string) result
(** The acceptance gate: digest parity, zero contradicted replies,
    recovery within bound, and ≥1 restart / breaker open / breaker
    close / ring reconfiguration. *)

val report_to_string : report -> string
(** Multi-line rendering (the [treetrav nemesis] output). *)

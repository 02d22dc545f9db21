(** Typed descriptions of one solver run over one tree.

    A job pairs a {!Tt_core.Tree.t} with a {!spec} saying which solver to
    run and with which parameters. Jobs are pure data — no closures — so
    every job has a deterministic {!id}: the digest of the tree's
    canonical serialization ({!Tt_core.Tree.to_string}) and the spec's
    canonical rendering. Two jobs with the same id denote the same
    computation, which is what makes the {!Cache} content-addressed and
    lets results persist across processes.

    The spec families cover the repo's solver collection:

    - {!spec.Min_memory} — one of the exact/heuristic MinMemory solvers
      ([MinMem], Liu's algorithm, best postorder);
    - {!spec.Min_io} — a MinIO eviction policy under a memory budget,
      along the MinMem-optimal traversal (the traversal is the shared
      preprocessing that the executor caches once per tree);
    - {!spec.Schedule} — the memory-constrained parallel list scheduler
      with [procs] workers and a budget relative to the sequential
      optimum. Task durations are derived deterministically from the
      tree weights ([work i = 1 + n_i / 8] = {!Tt_sched.Work.default});
    - {!spec.Par_schedule} — one scheduler of the [tt_sched] tier
      (greedy, memory-booking, or tree splitting), its schedule checked
      by the independent {!Tt_sched.Validate} before the outcome is
      reported;
    - {!spec.Pareto_sweep} — the full memory/makespan sweep of
      {!Tt_sched.Pareto} over all three schedulers;
    - {!spec.Approx_memory} — certified MinMemory bounds from the
      bounded-profile pass ({!Tt_core.Minmem_approx}), the near-linear
      tier for huge trees where the exact solvers are impractical. *)

type algo = Minmem | Liu | Postorder

type par_algo = Greedy | Booking | Split
(** The [tt_sched] scheduler families: greedy list scheduling
    ({!Tt_core.Parallel.list_schedule}), memory-booking activation-order
    scheduling ({!Tt_sched.Booking}), postorder-based tree splitting
    ({!Tt_sched.Split}). *)

type budget =
  | Fraction of float
      (** Position in the gap between the working-set floor
          [Tree.max_mem_req] (0.0) and the MinMem in-core optimum
          (1.0). *)
  | Words of int  (** Absolute budget in words. *)

type spec =
  | Min_memory of algo
  | Min_io of { policy : Tt_core.Minio.policy; budget : budget }
  | Schedule of { procs : int; mem_factor : float }
      (** Budget is [mem_factor ×] the MinMem in-core optimum. *)
  | Par_schedule of { algo : par_algo; procs : int; mem_factor : float }
      (** One [tt_sched] scheduler under the same budget convention as
          [Schedule]. [Booking] never deadlocks for
          [mem_factor >= 1.0]; [Split] ignores the budget and is
          reported infeasible when its peak overshoots it. *)
  | Pareto_sweep of { procs : int; steps : int }
      (** {!Tt_sched.Pareto.sweep} with [steps] budget points. *)
  | Approx_memory of { seg_cap : int; tol : float }
      (** {!Tt_core.Minmem_approx.run} with the given initial
          segment cap and relative gap tolerance (the remaining
          refinement parameters keep their library defaults). *)

type t = {
  label : string;  (** Display only — not part of the job identity. *)
  tree : Tt_core.Tree.t;
  spec : spec;
}

val make : ?label:string -> Tt_core.Tree.t -> spec -> t
(** [label] defaults to {!spec_to_string}. *)

val spec_to_string : spec -> string
(** Canonical one-token rendering, e.g. ["min-memory:liu"],
    ["min-io:First Fit:frac=0.5"], ["schedule:procs=4:mem=1.5"],
    ["par-schedule:booking:procs=4:mem=1.5"],
    ["pareto:procs=4:steps=8"], ["minmem-approx:cap=8:tol=0.01"]. *)

val algo_name : algo -> string

val par_algo_name : par_algo -> string
(** ["greedy"], ["booking"], ["split"]. *)

val par_algo_of_string : string -> par_algo option
(** Inverse of {!par_algo_name}. *)

val tree_digest : Tt_core.Tree.t -> string
(** Hex digest of the tree's canonical serialization. *)

val id_of_encoding : string -> spec -> string
(** [id_of_encoding encoding spec] is the content address of a job
    whose tree has the canonical serialization [encoding]
    ({!Tt_core.Tree.to_string}): the hex MD5 of
    [encoding ^ "|" ^ spec_to_string spec]. This is the only id formula;
    it costs one MD5 over the encoding, so a caller that runs several
    jobs on one tree encodes the tree once and passes the encoding to
    each (the {!Executor} does). *)

val id : t -> string
(** Content address: hex digest of tree + spec (label excluded),
    [id_of_encoding (Tt_core.Tree.to_string job.tree) job.spec]. Ids are
    stable across revisions — persisted caches, journals and shard
    routes are keyed by them — and the engine tests pin literal values. *)

(* ----------------------------------------------------------- outcomes *)

type outcome =
  | Memory of { peak : int; order : int array }
      (** MinMemory result: optimal/best peak and a traversal
          achieving it. *)
  | Io of { in_core : int; memory : int; io : int option }
      (** MinIO result: the MinMem in-core optimum the budget was
          derived from, the concrete budget in words, and the I/O
          volume ([None] when the instance is infeasible, i.e.
          [memory < max_mem_req]). *)
  | Sched of { memory : int; makespan : int option; peak : int option }
      (** Parallel schedule: budget in words, then makespan and peak
          memory, [None] when the greedy scheduler deadlocks. *)
  | Par_sched of {
      algo : string;  (** {!par_algo_name} of the scheduler that ran. *)
      memory : int;  (** Budget in words. *)
      makespan : int option;  (** [None] when infeasible at the budget. *)
      peak : int option;
          (** Measured peak; for [split] reported even when the
              schedule overshoots the budget. *)
    }
  | Pareto of { procs : int; steps : int; points : Tt_sched.Pareto.point list }
      (** The validated points of a {!Tt_sched.Pareto.sweep}. *)
  | Approx of {
      lower : int;  (** Certified lower bound on the optimal peak. *)
      upper : int;  (** Simulated peak of [order]. *)
      rounds : int;  (** Refinement rounds actually run. *)
      exact : bool;  (** [lower = upper = opt] provably. *)
      order : int array;  (** A valid traversal achieving [upper]. *)
    }
      (** Certified MinMemory bounds ({!Tt_core.Minmem_approx.bounds}),
          with [lower <= opt <= upper] guaranteed. *)

type error =
  | Timed_out of float  (** Wall seconds actually spent. *)
  | Crashed of string  (** Exception rendered by [Printexc]. *)

type result = (outcome, error) Stdlib.result

val compute :
  ?cancel:Tt_util.Cancel.t -> ?minmem:int * int array -> t -> outcome
(** Run the job directly (no cache, no isolation — the {!Executor} adds
    both). [minmem], when given, is a previously computed
    [(peak, order)] of {!Tt_core.Minmem.run} on the same tree; [Min_io]
    and [Schedule] jobs use it instead of recomputing. [cancel] is
    polled cooperatively inside the long-running solvers (the executor
    passes a deadline token to enforce its per-job timeout).
    @raise Tt_util.Cancel.Cancelled when [cancel] fires.
    @raise whatever the underlying solver raises. *)

val needs_minmem : t -> bool
(** Whether {!compute} would run [Minmem.run] as preprocessing — true
    for [Min_io], [Schedule] and [Par_schedule] jobs ([Par_schedule]
    reuses the order as the booking activation order). *)

val equal_outcome : outcome -> outcome -> bool
val equal_result : result -> result -> bool

val result_to_string : result -> string
(** Compact human-readable summary, e.g. ["peak=120"] or
    ["io=34 (budget 96)"]. *)

val outcome_fields : outcome -> (string * Telemetry.Json.t) list
(** Telemetry rendering of an outcome (traversal orders are digested,
    not inlined). *)

val result_fields : result -> (string * Telemetry.Json.t) list

val result_to_json : result -> Telemetry.Json.t
(** Lossless rendering for the {!Journal} — unlike {!result_fields},
    [Memory] orders are inlined in full so a resumed run reproduces the
    exact result. *)

val result_of_json : Telemetry.Json.t -> (result, string) Stdlib.result
(** Inverse of {!result_to_json}. *)

val result_digest_token : result -> string
(** The canonical digest token for one result: [Ok] is the
    {!result_to_json} line, errors are ["timeout"] / ["crash:<msg>"]
    (run-dependent wall measurements dropped). Because
    {!result_to_json} round-trips exactly through
    [Telemetry.Json.of_string], a token recomputed from a decoded wire
    response is byte-identical to the original. *)

val digest_of_results : (string * result) list -> string
(** Hex digest over [(job id, result)] pairs {e in order} — the format
    behind {!Executor.results_digest}, reusable client-side. *)

val value_digest_of_results : (string * result) list -> string
(** Order-insensitive variant: lines are sorted and deduplicated before
    digesting, so two runs that execute the same set of jobs in
    different orders (or with duplicates) compare equal. This is the
    digest the load generator checks against a [treetrav batch] run. *)

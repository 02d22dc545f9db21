(** Out-of-core multifrontal execution.

    Plans the I/O with the {!Tt_core.Minio} heuristics on the raw
    assembly tree (the planner works in the out-tree orientation, so the
    bottom-up numeric schedule is reversed for planning) and then runs the
    {e numeric} factorization within the memory budget, moving evicted
    contribution blocks to a simulated secondary store (their words
    count as I/O, not as live memory) and reading them back just before
    the parent's front is allocated. The measured write volume equals the
    planner's I/O volume by construction — asserted in the tests — because
    the raw assembly-tree edge weight [(µ-1)²] is exactly the word size of
    the contribution block. *)

type result = {
  factor : Factor.result;  (** The numeric factorization output. *)
  planned_io : int;  (** I/O volume promised by the eviction plan. *)
  measured_io : int;  (** Words actually written to the secondary store. *)
  peak_in_core : int;  (** Measured peak of in-core live words. *)
}

val plan :
  Tt_etree.Symbolic.t ->
  memory_words:int ->
  policy:Tt_core.Minio.policy ->
  schedule:int array ->
  Tt_core.Io_schedule.t option
(** The eviction plan for a bottom-up numeric [schedule], or [None] when
    the budget is below the largest frontal working set. *)

val run :
  Tt_sparse.Csr.t ->
  Tt_etree.Symbolic.t ->
  memory_words:int ->
  policy:Tt_core.Minio.policy ->
  schedule:int array ->
  (result, string) Stdlib.result
(** Factor within [memory_words]. [Error] describes an invalid schedule
    (checked before planning, with the messages of {!Factor.run}), an
    infeasible budget or a non-positive pivot. *)

val run_supernodal :
  Tt_sparse.Csr.t ->
  Tt_etree.Symbolic.t ->
  Tt_etree.Amalgamation.t ->
  memory_words:int ->
  policy:Tt_core.Minio.policy ->
  schedule:int array ->
  (result, string) Stdlib.result
(** Out-of-core {e supernodal} factorization: the eviction plan is
    computed on the amalgamated assembly tree (whose weights are the
    exact supernodal front/CB sizes) and executed with one front per
    supernode; [schedule] is a bottom-up order over supernode indices.
    Planned and measured I/O coincide, and errors are reported, as in
    {!run}. *)

val min_in_core_words : Tt_etree.Symbolic.t -> int
(** The multifrontal working-set lower bound
    [max_j (µ_j² + Σ over children c of (µ_c - 1)²)] — below this, no
    eviction plan exists. *)

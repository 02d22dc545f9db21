(** Memory/makespan Pareto sweep — the performance-profile methodology
    of the 2014 paper on the Equation (1) corpus.

    For one tree and processor count, sweep memory budgets from the
    sequential optimum {!Tt_core.Minmem.min_memory} (below which no
    algorithm is guaranteed anything) up to {!Tt_core.Tree.total_f}
    (ample for any traversal of an [n = 0] tree), run every scheduler at
    every budget, validate each schedule with {!Validate.check}, and
    report [(budget, makespan, peak)] points. The non-dominated subset
    is the instance's memory/makespan frontier. Everything is
    deterministic; {!digest} fingerprints a sweep for the smoke gates. *)

type point = {
  algo : string;  (** ["greedy"], ["booking"] or ["split"]. *)
  budget : int;  (** Memory budget the scheduler ran under. *)
  makespan : int;
  peak : int;  (** Measured peak — at most [budget]. *)
}

val budgets : Tt_core.Tree.t -> steps:int -> int array
(** [steps] budgets linearly spaced over
    [[min_memory t, max (min_memory t) (total_f t)]], duplicates
    removed (strictly increasing). The grid is computed without
    overflow for any weights, and it takes
    [min steps (hi - lo + 1)] words, whatever [steps] is.
    @raise Invalid_argument if [steps < 1], or if [hi - lo] overflows
    (a negative [min_memory] far below zero). *)

val sweep :
  ?cancel:Tt_util.Cancel.t ->
  ?steps:int ->
  Tt_core.Tree.t ->
  procs:int ->
  work:(int -> int) ->
  point list
(** All points of a sweep (default 8 budget steps): greedy and booking
    at every budget — both always feasible here since budgets start at
    the sequential optimum — plus one budget-free [split] point at its
    own peak. Points appear in deterministic order (budget-major).
    [cancel] (default {!Tt_util.Cancel.never}) is passed to the sweep's
    {!Tt_core.Minmem.run} and to {!Split.run}.
    @raise Invalid_argument if any schedule fails validation — a
    scheduler bug must not produce a plot.
    @raise Tt_util.Cancel.Cancelled when [cancel] fires during a MinMem
    run. *)

val frontier : point list -> point list
(** The non-dominated points by [(peak, makespan)], sorted by
    increasing peak (hence strictly decreasing makespan). *)

val point_to_string : point -> string
val render : point list -> string
(** Canonical one-line-per-point rendering (digest input). *)

val digest : point list -> string
(** MD5 hex of {!render} — the seeded-sweep fingerprint checked by
    [make sched-smoke]. *)

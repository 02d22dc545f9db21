(** The `treetrav batch` manifest: a line-based description of a job
    batch, resolved to {!Job.t}s.

    Grammar (one entry per line; [#] starts a comment, blank lines are
    ignored):

    {v
    <source> :: <job> [; <job>]*

    <source> ::= file PATH [ordering=ORD] [amalgamation=K]
               | gen KIND [size=N] [seed=N] [ordering=ORD] [amalgamation=K]
               | tree "<Tree.to_string form>"
    <job>    ::= minmem | liu | postorder
               | minio policy=POL budget=B
               | schedule procs=N mem=F
               | par-schedule [algo=A] procs=N [mem=F]
               | pareto procs=N [steps=K]
               | minmem-approx [cap=N] [tol=F]
    v}

    [ORD] is [natural], [rcm], [mindeg] or [nd] (default [mindeg]);
    [amalgamation] is at least 1 (default 4). [KIND] is any of
    `treetrav generate`'s families ([grid2d], [grid9], [grid3d],
    [banded], [random], [arrow], [powerlaw], [tridiagonal]); [size]
    defaults to 20 and is at least 0 ([arrow]: at least 3), [seed]
    defaults to 42.
    [POL] is [lsnf], [first-fit], [best-fit], [first-fill], [best-fill]
    or an integer K for Best-K (default [first-fit]). [B] is either
    [P%] — position P/100 in the gap between the working-set floor and
    the in-core optimum — or an absolute word count (default [50%]).
    [A] is a [tt_sched] scheduler: [greedy], [booking] (default) or
    [split]; [mem] is the budget as a multiple of the MinMem in-core
    optimum (default 1.5). [P] and [mem] are finite and not negative, a
    word count is not negative, and a budget past the int range
    saturates at [max_int]. [pareto] runs the full memory/makespan sweep
    with [steps] budget points, from 1 to {!max_steps} (default 8).
    [minmem-approx] computes certified MinMemory bounds via
    {!Tt_core.Minmem_approx} with initial segment cap [cap >= 2]
    (default 8) and relative gap tolerance [tol] (default 0.01) — the
    near-linear tier for trees too large for the exact solvers.

    Example:

    {v
    # sweep two sources through the whole solver collection
    gen grid2d size=24 :: minmem; liu; postorder
    gen grid2d size=24 :: minio policy=first-fit budget=50%; minio policy=lsnf budget=50%
    file data/pores_1.mtx ordering=rcm :: minmem; schedule procs=4 mem=1.5
    v}

    Each matrix source is materialized once per line via the standard
    pipeline; the engine's cache then deduplicates identical solver
    work across lines (the two [grid2d] lines above share one tree
    digest, so their MinMem runs coincide). *)

val max_steps : int
(** The most [pareto] budget steps an entry may ask for, 1024. Every
    step can run two schedulers and their validations. *)

val parse : string -> (Job.t list, string) Stdlib.result
(** Parse manifest text. On failure the error reports {e every}
    malformed line, one ["line N: message"] entry per line, joined by
    newlines — one fix round trip, not one per bad line. *)

val parse_wire : string -> (Job.t list, string) Stdlib.result
(** {!parse} for an entry that arrived over the network: [gen] and
    [tree] sources only. A [file] source is a parse error, raised before
    its path is opened, so no client can make a server read a file it
    names. [treetrav batch] reads manifests with {!load}, which keeps
    [file] sources. *)

val load : string -> (Job.t list, string) Stdlib.result
(** {!parse} the contents of a file. *)

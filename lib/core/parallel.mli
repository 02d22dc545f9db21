(** Memory-constrained parallel tree traversal — the direction the
    paper's conclusion sketches ("multicore platforms … call for
    memory-aware computational kernels at every level"), built on the
    same Equation (1) model.

    Tasks now carry a duration; [procs] workers execute ready tasks
    concurrently under a shared memory budget. While task [i] runs it
    holds its whole working set [MemReq i]; a produced-but-unstarted file
    holds [f i], exactly as in the sequential model — a parallel schedule
    with one processor and the sequential peak of memory degenerates to a
    traversal.

    {!list_schedule} is a greedy event-driven list scheduler: at every
    completion time it starts ready tasks in priority order (longest
    critical path first by default) as long as a processor and the memory
    both allow. The serving path re-checks the result with
    [Tt_sched.Validate]; the bench's [parallel] section sweeps
    processors × memory over the corpus and shows the memory-bound
    speedup saturation.

    {!booking_schedule} is the deadlock-free variant from the
    successor papers (Marchal–Sinnen–Vivien 2012): tasks start strictly
    in the order of a memory-feasible sequential traversal, each booking
    its whole working set against the budget. The [tt_sched] library
    builds the splitting scheduler and the memory/makespan Pareto sweep
    on top of these two primitives.

    {b Cost.} Given [order], both schedulers run in O(p log p) time and
    O(p) words for a [p]-node tree, whatever [procs] is. (Without it,
    booking and greedy's fallback first run {!Minmem.run}, O(p²) in the
    worst case, with no cancel token; the served jobs always pass the
    order they computed under the job's token.) At most [p] tasks run
    at once, so they keep [min procs p] processor slots, and since a finished task's
    processor is the next one handed out, a processor is first used
    only when every lower-numbered one is busy — the schedule is the
    same as with [procs] slots. Working sets are computed once per
    call, and the priority ranking and the (start, node) event order are
    index sorts on int keys ({!Tt_util.Int_sort}).

    {b Weights.} Both schedulers refuse a tree whose [|f i|] and
    [|n i|] sum to [max_int] or more. Below that bound every memory
    figure they compute is exact, so both test a start against the
    budget the same way, and without wrapping, for any budget from
    [min_int] to [max_int]. *)

type event = {
  node : int;  (** The task. *)
  proc : int;  (** Worker index in [0, procs). *)
  start : int;  (** Start time. *)
  finish : int;  (** Completion time ([start + work node]). *)
}

type schedule = {
  events : event array;  (** One event per task, in start order. *)
  makespan : int;  (** Completion time of the last task. *)
  peak_memory : int;  (** Maximum memory in use at any instant. *)
}

val list_schedule :
  ?priority:(int -> int) ->
  ?order:int array ->
  Tree.t ->
  procs:int ->
  memory:int ->
  work:(int -> int) ->
  schedule option
(** Greedy schedule of the out-tree with [procs] workers within [memory]
    words. [work i >= 1] is task [i]'s duration; [priority] defaults to
    the critical-path (bottom) level (higher runs first, ties to the
    smaller id).

    At every completion instant the scheduler starts, while a processor
    is free, the first ready task in priority order whose working set
    fits the memory left; tasks passed over for memory are not looked at
    again until the next instant. The tasks are ranked once, and the
    ready ones sit in a {!Tt_util.Min_tree} over ranks keyed by working
    set, so each start is one O(log p) search however many ready tasks
    it passes over.

    {b Guarantee.} When the greedy start rule deadlocks — a greedy
    prefix strands too many open files, just as greedy sequential
    traversals can (the MinMemory phenomenon) — the scheduler falls back
    to {!booking_schedule} along [order], by default the MinMem-optimal
    traversal of {!Minmem.run}. A caller that already holds that
    traversal passes it to save the MinMem run. With the default, [None]
    is only possible when [memory < Minmem.min_memory tree]: for any
    budget at least the sequential optimum a schedule is always
    returned.
    @raise Invalid_argument if [procs < 1], some [work i < 1], the
    weights reach [max_int] (see {b Weights} above), or the fallback
    runs and [order] is not a valid traversal. *)

val booking_schedule :
  ?order:int array ->
  Tree.t ->
  procs:int ->
  memory:int ->
  work:(int -> int) ->
  schedule option
(** Memory-booking list scheduler. Tasks {e start} strictly in the
    activation order [order] (a valid traversal; defaults to the
    MinMem-optimal order of {!Minmem.run}): position [k] starts as soon
    as its parent has finished, a processor is free, and its whole
    working set fits the budget — the booking discipline. Concurrency
    comes from positions [k, k+1, …] starting at the same instant.

    {b Deadlock-freedom.} Whenever the loop quiesces, the started tasks
    form a finished prefix of [order], so memory in use equals the
    sequential traversal's alive-file state and the next activation
    needs exactly the sequential step's footprint — at most
    [Traversal.peak t order]. Hence the result is [Some] for every
    [memory >= Traversal.peak t order] (with the default order, every
    [memory >= Minmem.min_memory t]); one processor and that budget
    degenerate to the sequential traversal itself.
    @raise Invalid_argument if [procs < 1], some [work i < 1], the
    weights reach [max_int], or [order] is not a valid traversal of the
    tree. *)

val of_runs :
  proc:int array -> start:int array -> finish:int array -> peak_memory:int -> schedule
(** The schedule in which task [i] ran on [proc.(i)] from [start.(i)]
    to [finish.(i)], for every task: events in (start, node) order,
    makespan the last finish. *)

val critical_path : Tree.t -> work:(int -> int) -> int
(** Length of the heaviest root-to-leaf chain — a makespan lower bound
    with unlimited processors and memory. *)

val sequential_makespan : Tree.t -> work:(int -> int) -> int
(** Sum of all durations — the single-processor makespan. *)

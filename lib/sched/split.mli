(** Postorder-based tree splitting (the SplitSubtrees scheduler of
    Eyraud-Dubois–Marchal–Sinnen–Vivien 2014, read on the out-tree).

    The tree is cut into a sequential {e tail} — the top part containing
    the root — and at most a few × [procs] frontier subtrees. Out-tree
    semantics run the tail first (top-down, one processor), then every
    subtree independently in parallel, each in its own MinMem-optimal
    sequential order, packed onto processors longest-processing-time
    first. The split point is chosen by iterating "move the heaviest
    frontier subtree's root into the tail" and keeping the iteration
    with the best makespan estimate
    [tail_work + max(heaviest subtree, average load)].

    Splitting ignores any memory budget: it trades memory for makespan
    (up to [procs] sequential peaks coexist). The schedule reports its
    honest peak ({!Validate.peak_usage}); callers compare that against
    their budget — the Pareto sweep plots exactly this trade-off.

    {b Cost.} Apart from the per-subtree MinMem runs, O(p log p) time
    and O(p) words whatever [procs] is. Those runs are O(q²) in the
    worst case for a q-node subtree ({!Tt_core.Minmem}); they poll the
    caller's cancel token, so a served split stops near its deadline.
    A frontier never holds more than [p] subtrees, so [procs] is
    clamped to [p]: the split estimate does not change (the
    heaviest subtree already bounds it), and the longest-processing-time
    assignment keeps its loads in a heap over only the processors it
    can reach. The subtrees' MinMem inputs are indexed through one
    array shared by all of them. *)

val run :
  ?cancel:Tt_util.Cancel.t ->
  Tt_core.Tree.t ->
  procs:int ->
  work:(int -> int) ->
  Tt_core.Parallel.schedule
(** Deterministic split of the tree for [procs] processors, materialized
    as a schedule. Always succeeds — with one processor it degenerates
    to a sequential traversal. [peak_memory] is the measured
    {!Validate.peak_usage} of the events. [cancel] (default
    {!Tt_util.Cancel.never}) is passed to every subtree's
    {!Tt_core.Minmem.run}.
    @raise Invalid_argument if [procs < 1] or some [work i < 1].
    @raise Tt_util.Cancel.Cancelled when [cancel] fires during a
    subtree's MinMem run. *)

(** Heuristics for the MinIO problem — §V-B of the paper.

    MinIO is NP-complete even when the traversal is fixed (Theorem 2), so
    the paper proposes greedy eviction policies: when the next node [j] of
    a given traversal does not fit, a volume
    [IOReq j = (MemReq j - f j) - available] (plus [f j] if [j]'s own
    input file was evicted earlier) must be freed by writing some resident
    input files to secondary memory. Candidates are the files already
    produced and not yet consumed, ordered by {e latest next use first}
    (descending execution step); each policy selects from that ordered
    set [S]:

    - {e LSNF} (Last Scheduled Node First): take files from the front of
      [S] until the freed volume suffices — optimal for the divisible
      relaxation;
    - {e First Fit}: the first file of [S] at least as large as the
      deficit (fallback LSNF);
    - {e Best Fit}: repeatedly the file with size closest to the
      remaining deficit;
    - {e First Fill}: repeatedly the first file strictly smaller than the
      remaining deficit (fallback LSNF);
    - {e Best Fill}: repeatedly the largest file strictly smaller than
      the remaining deficit (fallback LSNF);
    - {e Best-K Combination}: repeatedly the subset of the first [K]
      files of [S] whose total size is closest to the remaining deficit
      (the paper uses K = 5).

    All policies are guarded against zero-progress rounds (possible with
    zero-size files) by falling back to LSNF, so they terminate whenever
    the instance is feasible, i.e. [memory >= max_mem_req].

    {b Cost.} A policy acts only at a deficit step, and a traversal
    whose in-core peak is at most [memory] has none. So {!run} first
    makes one O(p) Algorithm 1 pass ({!Traversal.check}); a traversal
    that fits returns {!Io_schedule.in_core} at once, for the cost of
    that pass and the [tau] array, about one word per node. Only a
    traversal that overflows builds the candidate index and simulates
    the policy. That run takes O(p) words for a [p]-node tree, whatever
    the file sizes: the candidate files are indexed by position (and,
    for Best Fit and Best Fill, by rank in (size, position) order), never
    by size value. Each eviction choice costs O(log p), or O(2^K) for
    Best-K. *)

type policy =
  | Lsnf
  | First_fit
  | Best_fit
  | First_fill
  | Best_fill
  | Best_k of int  (** [Best_k 5] in the paper's experiments. *)

val all_policies : (string * policy) list
(** The paper's six heuristics with display names, [Best_k 5] included. *)

val policy_name : policy -> string
(** Display name, e.g. ["First Fit"]. *)

val run : Tree.t -> memory:int -> order:int array -> policy -> Io_schedule.t option
(** Simulate the traversal with the given policy. Returns the full
    out-of-core schedule (feasible by construction, checkable with
    {!Io_schedule.check}), or [None] when the instance is infeasible
    ([memory < max_mem_req] along this traversal). When the traversal
    fits in [memory] ({!Traversal.check} gives [Feasible]), the result is
    [Some (Io_schedule.in_core order)], for every policy: no file is
    ever evicted.
    @raise Invalid_argument if [order] is not a valid traversal, at any
    [memory]. *)

val io_volume : Tree.t -> memory:int -> order:int array -> policy -> int option
(** I/O volume of {!run}'s schedule. *)

val divisible_lower_bound : Tree.t -> memory:int -> order:int array -> float option
(** Optimal I/O volume of the {e divisible} relaxation (fractions of
    files may be evicted) for the given traversal, computed by
    furthest-next-use (LSNF) eviction — a lower bound on every integral
    policy for the same traversal. [None] when infeasible. The paper
    lists such bounds as future work; it is used here to report
    heuristic-to-bound gaps. *)

(** Certified approximate MinMemory for huge trees — near-linear lower
    and upper bounds sandwiching the exact optimum.

    The paper's exact algorithms ({!Minmem}, {!Liu_exact}) are
    worst-case O(p²); beyond a few hundred thousand nodes they stop
    being practical. This module instead runs {e bounded-profile Liu}:
    the same hill–valley calculus ({!Segments}), but every subtree
    profile is truncated to at most [seg_cap] segments after each
    combination step, which caps the per-node work and makes the whole
    pass near-linear (O(p · seg_cap · log(max degree))).

    Truncating in two directions yields a certificate:

    - {b lower}: minorant truncation ({!Segments.truncate_lower})
      relaxes the instance — every real schedule maps to a relaxed
      schedule with pointwise smaller or equal memory — so the relaxed
      optimum computed bottom-up is a guaranteed lower bound on the true
      optimal peak. When no profile ever exceeds the cap the relaxation
      is vacuous and the bound {e is} the exact Liu optimum.
    - {b upper}: the best-postorder traversal ({!Postorder_opt},
      O(p log p)) gives a first upper bound; if the gap is still above
      [tol], majorant truncation ({!Segments.truncate_upper}) produces a
      concrete traversal whose simulated peak — measured by
      {!Traversal.peak}, so certified independently of any theory —
      refines it.

    Refinement multiplies [seg_cap] and repeats, up to [max_rounds]
    times or until the relative gap drops below [tol]. Trees with at
    most [exact_threshold] nodes bypass all of this and get the exact
    Liu answer (gap 0).

    {b Memory.} A solve works in a few flat int arrays allocated once
    and reused by every pass and round. One children-first order
    ({!Tree.children_first_order}) drives both passes. Profiles are
    packed segments on one growable int stack: since each subtree is
    contiguous in that order, a node's children's profiles are the top
    [deg] profiles of the stack. The majorant threads each segment's
    nodes through one [next] array (a fused segment links the last node
    of the first part to the first node of the second), so the root's
    profile reads out the traversal; [next] and a spare order buffer
    are reused across rounds, and the returned [order] is never a
    buffer a later round writes. Beyond the tree, a solve allocates
    about 6 words per node (the best postorder's three arrays, the
    order, [next] and the spare), plus the stack, which holds the
    profiles waiting along one root path. The truncations are those of
    {!Segments}, which the tests keep as the reference.

    The contract, pinned by the property tests: for every result,
    [lower <= opt <= upper] where [opt] is the exact MinMemory, and
    [order] is a valid traversal with simulated peak exactly [upper]. *)

type bounds = {
  lower : int;  (** Certified lower bound on the optimal peak. *)
  upper : int;  (** Simulated peak of [order] — a certified upper bound. *)
  order : int array;  (** A valid traversal achieving [upper]. *)
  seg_cap : int;  (** Final segment cap in force (0 on the exact path). *)
  rounds : int;  (** Refinement rounds actually run. *)
  exact : bool;  (** [lower = upper = opt] provably (no truncation, or
                     the exact path). *)
}

val gap : bounds -> float
(** Relative certified gap [(upper - lower) / upper]; [0.] when
    [upper = 0]. *)

val run :
  ?seg_cap:int ->
  ?tol:float ->
  ?max_rounds:int ->
  ?exact_threshold:int ->
  Tree.t ->
  bounds
(** [run t] computes certified bounds on any {!Tree.t} — a small engine
    job's tree or a 10M-node {!Tree.of_arrays} instance alike. Defaults:
    [seg_cap = 8] (quadrupled each refinement round), [tol = 0.01],
    [max_rounds = 3], [exact_threshold = 20_000].
    @raise Invalid_argument if [seg_cap < 2], [tol < 0.] or
    [max_rounds < 0]. *)

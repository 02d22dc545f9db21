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

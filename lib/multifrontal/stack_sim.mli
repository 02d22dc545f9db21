(** The classical multifrontal {e stack}: why solvers love postorders.

    Production multifrontal codes (MUMPS et al., §II-A and §IV-A of the
    paper) keep contribution blocks in a LIFO stack: with a postorder
    schedule, when a column is eliminated its children's blocks are
    exactly the top of the stack, so a contiguous stack allocator
    suffices. This module runs the numeric factorization with an explicit
    stack and {e fails} when a pop does not return a child of the current
    column — which happens precisely when the schedule is not a
    postorder. It demonstrates operationally what the paper's
    MinMem-vs-PostOrder discussion is about: optimal traversals may
    interleave subtrees and therefore need random-access block storage,
    while postorders run on a plain stack. *)

type result = {
  factor : Factor.result;  (** Same outputs as {!Factor.run}. *)
  max_stack_blocks : int;  (** Maximum number of stacked blocks. *)
}

val run :
  Tt_sparse.Csr.t ->
  Tt_etree.Symbolic.t ->
  schedule:int array ->
  (result, string) Stdlib.result
(** Factor with a LIFO contribution-block stack. [Error] reports an
    invalid schedule (the messages of {!Factor.run}), the first
    stack-discipline violation (a bottom-up schedule that is not a
    postorder) or a numerical failure; on success the memory accounting coincides with
    {!Factor.run} on the same schedule (asserted in the tests). *)

val is_postorder_schedule : Tt_etree.Symbolic.t -> int array -> bool
(** Whether a bottom-up schedule visits every subtree contiguously (the
    condition under which {!run} succeeds). *)

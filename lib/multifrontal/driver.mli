(** The one multifrontal loop behind {!Factor}, {!Stack_sim},
    {!Supernodal} and {!Ooc_sim} (private to the library).

    A front is a group of pivot columns with its sorted rows, pivots
    first: one column per front, or one amalgamated supernode per front.
    Each step allocates the front while its children's contribution
    blocks are still live (Equation (1) of the paper), assembles the
    entries of A, extend-adds the children's blocks, eliminates the
    pivots and hands its own block to the store. The store is the only
    thing that varies. *)

type fronts = {
  parent : int array;  (** Front tree, [-1] for roots. *)
  rows : int array array;  (** Sorted rows of each front, pivots first. *)
  pivots : int array;  (** Number of pivot columns of each front. *)
}

val columns : Tt_etree.Symbolic.t -> fronts
(** One front per column, on its symbolic structure. *)

val supernodes : Tt_etree.Amalgamation.t -> int array array -> fronts
(** One front per supernode, on the given rows (members first). *)

(** Where a finished contribution block waits for its parent. *)
type store =
  | Slots  (** A random-access slot per front. *)
  | Stack
      (** A LIFO stack: a front pops one block per child and fails when
          a popped block is not its child's. *)
  | Spill of bool array
      (** A slot per front, but the block of a front flagged [true] is
          written to a simulated secondary store and read back just
          before its parent's front is allocated. *)

type outcome = {
  l : Tt_sparse.Csr.t;  (** The Cholesky factor (lower triangular). *)
  peak : int;  (** Maximum in-core live words. *)
  profile : int array;  (** In-core live words during each step. *)
  max_blocks : int;  (** Maximum number of stacked blocks ([Stack]). *)
  written : int;  (** Words written to secondary storage ([Spill]). *)
}

val postorder : int array -> int array
(** Postorder of a forest given by its parent array: roots and children
    in ascending index order. *)

val check : fronts -> int array -> (unit, string) result
(** A valid schedule lists each front exactly once, children before
    their parent. *)

val run :
  Tt_sparse.Csr.t -> fronts -> store -> schedule:int array -> (outcome, string) result
(** Factor along [schedule]. [Error] for a schedule that fails {!check},
    a non-positive pivot or a stack pop that is not a child. Children's
    blocks are extend-added in ascending index order, or in pop order on
    the stack. *)

val run_exn : string -> Tt_sparse.Csr.t -> fronts -> store -> schedule:int array -> outcome
(** [run_exn who] is {!run} for the raising interfaces.
    @raise Invalid_argument ["who: msg"] for a schedule that fails
    {!check}.
    @raise Failure if a pivot is non-positive. *)

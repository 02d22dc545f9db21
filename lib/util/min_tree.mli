(** Min segment tree over a fixed range of positions [0, n): one
    integer value per position, or none. Point updates and the two
    threshold searches below cost O(log n); the whole structure is
    [4n] words at most.

    {!Tt_core.Minio}'s First Fill asks for the latest-used file smaller
    than the deficit ({!rightmost_lt}); {!Tt_core.Parallel}'s greedy
    scheduler asks for the first ready task, in priority order, whose
    working set fits the free memory ({!leftmost_le}). *)

type t

val create : int -> t
(** [create n] holds no value at any position of [0, n).
    @raise Invalid_argument if [n < 0]. *)

val set : t -> int -> int -> unit
(** [set t q v] gives position [q] the value [v]. Values must be below
    [max_int], which marks an absent position.
    @raise Invalid_argument if [q] is outside the tree. *)

val remove : t -> int -> unit
(** Make position [q] absent. *)

val rightmost_lt : t -> int -> int option
(** The largest position whose value is strictly below the threshold. *)

val leftmost_le : t -> from:int -> int -> int option
(** [leftmost_le t ~from thr] is the smallest position at or after
    [from] whose value is at most [thr]. *)

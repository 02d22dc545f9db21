(** Stable ordering of indices by an int key.

    The scheduling tier and MinIO's Best Fit / Best Fill sort the nodes
    of a tree by an int key (priority, start time, finish time, file
    size). Sorting an index array with [Int.compare] on the key keeps
    that one comparison specialized to ints, where a sort of tuples or
    records with polymorphic [compare] walks boxed values at every
    step. *)

val order_by : int -> (int -> int) -> int array
(** [order_by n key] lists the indices [0, n) by [key] ascending, ties
    by index ascending. O(n log n) time, O(n) words. *)

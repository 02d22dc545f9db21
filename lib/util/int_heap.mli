(** Binary min-heap over integer elements with integer keys and
    decrease-key support.

    Elements are integers in [0, capacity); each element may be present at
    most once. Used by orderings (minimum degree) and by the state-space
    searches of the exact oracles. All operations are O(log n) except
    [mem]/[key], which are O(1). *)

type t
(** A mutable min-heap. *)

val create : int -> t
(** [create capacity] is an empty heap accepting elements in
    [0, capacity). *)

val length : t -> int
(** Number of elements currently in the heap. *)

val is_empty : t -> bool
(** Whether the heap holds no element. *)

val mem : t -> int -> bool
(** [mem h x] tells whether element [x] is currently in the heap. *)

val key : t -> int -> int
(** [key h x] is the current key of element [x].
    @raise Not_found if [x] is not in the heap. *)

val insert : t -> int -> int -> unit
(** [insert h x k] inserts element [x] with key [k].
    @raise Invalid_argument if [x] is already present or out of range. *)

val update : t -> int -> int -> unit
(** [update h x k] changes the key of [x] to [k] (up or down), inserting
    [x] if absent. *)

val min_elt : t -> int * int
(** [(x, k)] with minimal key [k]; ties broken by smaller element.
    @raise Not_found if empty. *)

val pop_min : t -> int * int
(** Remove and return the minimum binding. @raise Not_found if empty. *)

val pop : t -> int
(** {!pop_min}'s element alone, without allocating the pair — for hot
    loops that pop every element in turn. @raise Not_found if empty. *)

val remove : t -> int -> unit
(** [remove h x] deletes element [x] if present (no-op otherwise). *)

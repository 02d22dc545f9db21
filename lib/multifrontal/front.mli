(** Frontal matrices: small dense symmetric matrices indexed by global
    row lists, with the extend–add assembly operation at the heart of the
    multifrontal method. Only the lower triangle is meaningful; storage is
    a full column-major square for simplicity. *)

type t = {
  rows : int array;  (** Sorted global indices of the front. *)
  a : float array;  (** Column-major [m*m] dense storage, [m = |rows|]. *)
}

val create : int array -> t
(** Zero front on the given sorted global rows. *)

val size : t -> int
(** The dimension [m]. *)

val words : t -> int
(** Memory footprint in words ([m²]) — the unit of the memory
    accounting. *)

val get : t -> int -> int -> float
(** [get f i j] with {e local} indices. *)

val set : t -> int -> int -> float -> unit
(** [set f i j v] with local indices (the caller maintains symmetry). *)

val add : t -> int -> int -> float -> unit
(** Accumulate into a local entry. *)

val extend_add : into:t -> t -> unit
(** [extend_add ~into cb] scatters the contribution block [cb] into the
    larger front [into]: every global index of [cb] must appear in
    [into].
    @raise Invalid_argument otherwise. *)

val eliminate_pivots : t -> int -> float array list * t
(** [eliminate_pivots f k] eliminates the first [k] variables in place
    (right-looking dense factorization of the leading block): returns the
    [k] factor columns (column [j] has length [m - j], indexed by
    [rows.(j ..)]) and the Schur complement on the remaining [m - k]
    rows, without allocating intermediate fronts.
    @raise Invalid_argument if [k] is out of range.
    @raise Failure if a pivot is not strictly positive. *)

(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the project (matrix generators, random
    re-weighting, property tests' auxiliary data) draws from this generator
    so that experiments are reproducible bit-for-bit from a seed, and
    independent of the OCaml stdlib [Random] state. *)

type t
(** Mutable generator state: the 64-bit SplitMix word, kept unboxed, so
    the draws returning an [int] or a [bool] allocate nothing. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. Useful to
    give each instance of a generated corpus its own stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)

val int_incl : t -> int -> int -> int
(** [int_incl t lo hi] is uniform in [lo, hi] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. @raise Invalid_argument on empty array. *)

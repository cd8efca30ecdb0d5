(** Arithmetic in GF(p) for the Mersenne prime [p = 2^31 - 1].

    Products of two elements still fit a native 63-bit integer
    ([p^2 < 2^62]) and reduce with shifts and masks instead of a
    division, so field arithmetic never allocates.  Two clients share
    this one field: the linear sketches ({!Refnet_sketch}) and the
    Theorem 5 power-sum decoder ({!Power_sum.decode}), which reduces the
    exact sums mod [p] and finds the neighbour ids as roots here. *)

type t = int
(** Invariant: [0 <= x < p]. *)

val p : int

(** [of_int v] reduces an arbitrary native integer (possibly negative). *)
val of_int : int -> t

(** [of_nat v] is [v mod p] for an exact natural number. *)
val of_nat : Refnet_bigint.Nat.t -> t

val zero : t
val one : t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

(** [pow b e] for [e >= 0]. *)
val pow : t -> int -> t

(** [inv x] — multiplicative inverse. @raise Division_by_zero on zero. *)
val inv : t -> t

(** [equal] on canonical representatives. *)
val equal : t -> t -> bool

(** Number of shifts {!roots} tries: [a = 0, 1, .., shifts - 1]. *)
val shifts : int

(** [roots f] splits the monic polynomial [f] (little-endian
    coefficients, [f.(d) = 1], [d >= 1]) into its roots, in no fixed
    order.  Degree 1 reads the root off; degree 2 uses the closed form
    (a square root is [z^((p+1)/4)] since [p = 3 (mod 4)]); a factor of
    degree [>= 3] is split by [gcd(f, (x+a)^((p+1)/2) - (x+a))] — the
    roots [r] with [r + a] a square or zero — over the fixed shifts
    [a = 0, 1, ..], each split carrying the next shift into both halves.
    Since [(p+1)/2 = 2^30], each shift costs 30 squarings mod the factor.
    No randomness is used.

    [Some rs] exactly when [f] is a product of distinct linear factors
    that the shifts separate: two roots [r] and [r'] stay together only
    if, for every shift [a], [r + a] and [r' + a] are both squares
    (zero counting as a square) or both non-squares.  [None] otherwise —
    a repeated root, an irreducible factor of degree [>= 2], or roots
    the shifts cannot tell apart.  Cost [O(shifts * d^2 * log p)] field
    operations on any input.
    @raise Invalid_argument if [f] is not monic of degree at least 1. *)
val roots : t array -> t list option

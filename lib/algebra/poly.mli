(** Dense univariate polynomials with {!Refnet_bigint.Bigint} coefficients.

    Coefficient of [x^i] is stored at index [i]; the representation is
    canonical (no zero leading coefficient).  These are the exact-integer
    reference for the degeneracy protocol's neighbourhood polynomial
    [prod (x - id)]: tests check {!Newton}'s identities against
    {!from_roots} and {!eval}, while {!Power_sum.decode} builds and
    splits the same polynomial over {!Field}. *)

open Refnet_bigint

type t

(** The zero polynomial (degree [-1] by convention). *)
val zero : t

val one : t

(** [of_coeffs c] builds a polynomial from little-endian coefficients. *)
val of_coeffs : Bigint.t array -> t

(** [to_coeffs p] is the canonical little-endian coefficient array. *)
val to_coeffs : t -> Bigint.t array

(** [degree p] is the degree, [-1] for the zero polynomial. *)
val degree : t -> int

(** [coeff p i] is the coefficient of [x^i] ([zero] beyond the degree). *)
val coeff : t -> int -> Bigint.t

val is_zero : t -> bool
val equal : t -> t -> bool

(** [constant c] is the degree-0 (or zero) polynomial [c]. *)
val constant : Bigint.t -> t

(** [monomial c i] is [c * x^i]. *)
val monomial : Bigint.t -> int -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t

(** [scale c p] multiplies every coefficient by [c]. *)
val scale : Bigint.t -> t -> t

(** [eval p x] is [p(x)] by Horner's rule. *)
val eval : t -> Bigint.t -> Bigint.t

(** [derivative p] is the formal derivative. *)
val derivative : t -> t

(** [from_roots roots] is the monic polynomial [prod (x - r)]. *)
val from_roots : Bigint.t list -> t

val pp : Format.formatter -> t -> unit

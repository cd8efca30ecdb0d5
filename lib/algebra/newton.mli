(** Newton's identities between power sums and elementary symmetric
    functions, over exact integers.

    For values [x_1 .. x_d], write [p_m = sum x_i^m] (power sums) and
    [e_m = sum of products of m distinct x_i] (elementary symmetric
    functions).  Newton's identities,

    {[ m * e_m = sum_{i=1..m} (-1)^(i-1) e_(m-i) * p_i ]}

    relate the two for [m <= d].  The divisions by [m] are exact because
    the [e_m] are integers — {!Refnet_bigint.Bigint.div_exact} enforces
    this as a runtime invariant.

    This is the exact-integer reference for the identities: from
    [p_1..p_d] they recover [e_1..e_d], the coefficients of the monic
    polynomial whose roots are the neighbour identifiers.  The referee
    itself runs the same recurrence over {!Field} inside
    {!Power_sum.decode}, where the divisions by [m] are inverses; tests
    check both against the direct symmetric functions. *)

open Refnet_bigint

(** [elementary_of_power_sums p] maps [[p_1; ...; p_d]] to
    [[e_1; ...; e_d]].  The empty list maps to the empty list.
    @raise Invalid_argument if the input is not a valid power-sum sequence
    of integers (an inexact division is encountered). *)
val elementary_of_power_sums : Bigint.t list -> Bigint.t list

(** [power_sums_of_elementary e ~upto] maps [[e_1; ...; e_d]] to
    [[p_1; ...; p_upto]], taking [e_m = 0] for [m > d]. *)
val power_sums_of_elementary : Bigint.t list -> upto:int -> Bigint.t list

(** [power_sums values ~upto] computes [[p_1; ...; p_upto]] directly from
    the values; reference implementation used by tests and encoders. *)
val power_sums : Bigint.t list -> upto:int -> Bigint.t list

(** [elementary values] computes [[e_1; ...; e_d]] directly by expanding
    the product [(1 + x_1 t)...(1 + x_d t)]; reference implementation. *)
val elementary : Bigint.t list -> Bigint.t list

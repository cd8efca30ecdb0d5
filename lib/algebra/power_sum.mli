(** Power-sum set encodings (the paper's Algorithm 3 payload).

    A set [S] of at most [k] identifiers drawn from [{1..n}] is encoded as
    the vector [b] with [b_p = sum_{i in S} i^p] for [p = 1..k] — exactly
    the product [A(k,n) . x] of Definition 3, where [x] is the incidence
    vector of [S].  By Wright's theorem on equal sums of like powers
    (Theorem 4 of the paper), the encoding is injective on sets of size at
    most [k], so a decoder exists.

    Two decoders are provided:
    - {!decode}, over the prime field {!Field} ([p = 2^31 - 1]): Newton's
      identities on the sums reduced mod [p], then root splitting of the
      neighbourhood polynomial, then an exact re-encode check —
      [O(d^2 log p)] field operations on honest rows and no
      precomputation; the practical decoder;
    - {!Table}, the paper's Lemma 3 lookup table over all subsets of size
      at most [k] ([O(n^k)] space) — feasible only for tiny [n], kept as a
      cross-check oracle. *)

open Refnet_bigint

type encoding = Nat.t array
(** [encoding.(p - 1)] holds [b_p]; length is the protocol parameter [k]. *)

(** [encode ?coords ~k ids] encodes the set [ids] (distinct positives, in
    any order) into power sums [b_1..b_coords], validating [|ids| <= k].
    [coords] defaults to [k]; passing [coords < k] computes only a prefix
    of the encoding — Algorithm 3 transmits [k] coordinates even from
    nodes whose degree (and hence validation bound) is larger.  Powers
    [i^p] of ids up to [2^17] are memoized process-wide, so across a
    simulation each power is computed once per graph rather than once
    per node; the memo is safe to share between domains.
    @raise Invalid_argument if [ids] has repeats, non-positive entries, or
    more than [k] elements, or if [coords] is negative or exceeds [k]. *)
val encode : ?coords:int -> k:int -> int list -> encoding

(** [subtract enc ~id ~upto] removes a member [id] from an encoding in
    place of re-encoding: subtracts [id^p] from [b_p] for [p = 1..upto].
    This is the referee's pruning update in Algorithm 4.
    @raise Invalid_argument if a subtraction would go negative (meaning
    [id] was not a member). *)
val subtract : encoding -> id:int -> upto:int -> encoding

(** [decode ~n ~deg enc] recovers the unique set of [deg] identifiers in
    [{1..n}] whose power sums match [enc] (using the first [deg]
    coordinates), as an increasing list.  Returns [None] when no such set
    exists (malformed message).

    The first [deg] sums are reduced mod {!Field.p}, Newton's identities
    give the elementary symmetric functions over the field (dividing by
    [m <= deg < p]), and {!Field.roots} splits the monic polynomial they
    define.  The field only proposes a set: it is returned only if its
    roots lie in [{1..n}] and its {e exact} encoding equals the input, so
    a forged or malformed row — even one that agrees with a real set's
    encoding mod [p] — decodes to [None], never to a wrong set.

    {b Completeness.}  Every set of at most two ids decodes.  Larger sets
    decode whenever the {!Field.shifts} fixed shifts separate their ids,
    which holds for every pair of ids in [{1..2^16}] (checked
    exhaustively by the test suite), so [decode] is complete for every
    [n <= 2^16]; beyond that a miss is possible in principle and yields
    [None], never a wrong set.

    {b Cost.}  On any input, hostile rows included, [O(deg)] reductions of
    the sums, then [O(Field.shifts * deg^2 * log p)] field operations,
    then one exact re-encode of [deg] ids.

    @raise Invalid_argument if [deg] exceeds the length of [enc], or if
    [n >= Field.p] (ids must be distinct mod [p]). *)
val decode : n:int -> deg:int -> encoding -> int list option

(** The Lemma 3 table decoder. *)
module Table : sig
  type t

  (** [build ~n ~k] enumerates all subsets of [{1..n}] of size at most
      [k] and indexes them by encoding.  Size [O(n^k)]; intended for
      small instances and as a test oracle. *)
  val build : n:int -> k:int -> t

  (** [entries t] is the number of stored subsets. *)
  val entries : t -> int

  (** [lookup t enc ~deg] finds the stored subset of size [deg] matching
      the first [deg] coordinates of [enc]. *)
  val lookup : t -> encoding -> deg:int -> int list option
end

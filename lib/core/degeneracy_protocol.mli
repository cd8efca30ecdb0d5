(** The paper's main positive result (Theorem 5, Algorithms 3 and 4):
    one-round frugal reconstruction of graphs of degeneracy at most [k].

    {b Local phase} (Algorithm 3).  Node [x] sends
    [(ID(x), deg(x), b(x))] where [b_p(x) = sum of ID(w)^p] over
    neighbours [w], for [p = 1..k] — the product [A(k,n) x] of the
    incidence vector of [N(x)] by the power matrix of Definition 3.
    Fixed-width layout; exact size {!Bounds.degeneracy_message_bits},
    i.e. [O(k^2 log n)] (Lemma 2).

    {b Global phase} (Algorithm 4).  While vertices remain, the referee
    takes any remaining vertex of (current) degree at most [k], decodes
    its remaining neighbourhood from its first [deg] power sums — unique
    by Wright's theorem (Theorem 4) — records the edges, and "removes"
    the vertex by patching each neighbour's triple:
    [deg <- deg - 1], [b_p <- b_p - ID^p].  If no vertex of degree at
    most [k] remains, the graph has degeneracy exceeding [k] and the
    referee rejects. *)

open Refnet_algebra

type decoder = n:int -> deg:int -> Power_sum.encoding -> int list option
(** How the referee inverts a power-sum encoding. *)

(** [newton_decoder] is {!Power_sum.decode}: Newton's identities and
    root splitting over GF(2^31 - 1), confirmed by an exact re-encode; no
    precomputation, [O(k^2 log p)] field operations per row.  The
    default. *)
val newton_decoder : decoder

(** [table_decoder table] — the paper's Lemma 3 lookup table.  The table
    must have been built for the same [n] (and [k] at least the message
    parameter); [O(n^k)] space. *)
val table_decoder : Power_sum.Table.t -> decoder

type layout =
  | Fixed
      (** The paper's layout: every field at its worst-case width
          ([(p+1) * ceil(log2(n+1))] bits for the [p]-th power sum).
          Message sizes are data-independent — all nodes send exactly
          {!message_bits} bits. *)
  | Compact
      (** Ablation: degree and power sums written self-delimiting (Elias
          gamma length + minimal-width payload).  Low-degree nodes send
          far fewer bits; the worst case gains a [O(k log log n)]
          framing overhead.  Same decoding semantics. *)

(** [reconstruct ?decoder ?layout ~k ()] is the one-round protocol.
    Output [Some g] reproduces the input graph exactly whenever its
    degeneracy is at most [k]; [None] means degeneracy above [k] (or
    malformed messages).  [layout] defaults to [Fixed]. *)
val reconstruct :
  ?decoder:decoder -> ?layout:layout -> k:int -> unit -> Refnet_graph.Graph.t option Protocol.t

(** [hardened ?decoder ?layout ~k ()] is the crash/corruption-tolerant
    variant: messages are {!Message.seal}ed, and the referee runs the
    Algorithm 4 prune over authenticated rows only.  Clean channel:
    [Decided] of {!reconstruct}'s answer.  Under faults: the prune
    restricted to trusted rows records only edges asserted by authentic
    messages — sound for {e any} input graph — and reports unresolved
    ids as undetermined, giving [Degraded (Some partial, report)].
    Trusted rows that cannot be decoded or contradict one another
    (impossible for honest senders) yield [Inconclusive]. *)
val hardened :
  ?decoder:decoder ->
  ?layout:layout ->
  k:int ->
  unit ->
  Refnet_graph.Graph.t option Verdict.t Protocol.t

(** [message_bits ~k n] is the exact message size at parameters [(k, n)]
    (equals {!Bounds.degeneracy_message_bits}). *)
val message_bits : k:int -> int -> int

(** [local_time_operations ~k n] is the paper's [O(n)] local-work claim
    in concrete form: number of bigint additions the local phase
    performs, [k * deg(x)] in the worst case [k * n]. *)
val local_time_operations : k:int -> int -> int

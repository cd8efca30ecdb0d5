(** Graph family generators.

    Deterministic families take no state; random families take an explicit
    [Random.State.t] so experiments are reproducible from seeds.  All
    generators return labelled graphs on [1..n]; where a class has a
    natural construction order, labels follow it (useful when tests want a
    known elimination order).

    The path, cycle, complete, star, grid and hypercube families are
    defined once, in {!Implicit}, and materialized here; they raise
    [Invalid_argument] wherever {!Implicit.make} does.

    Degeneracy cheat-sheet (exercised by tests): trees/forests 1, maximal
    outerplanar 2, [k]-trees and Apollonian networks [k] (3), grids 2,
    hypercube of dimension [d] has degeneracy [d]. *)

val path : int -> Graph.t
val cycle : int -> Graph.t
val complete : int -> Graph.t

(** [complete_bipartite a b] has parts [{1..a}] and [{a+1..a+b}]. *)
val complete_bipartite : int -> int -> Graph.t

(** [star n] is [K_{1,n-1}] centred on vertex 1. *)
val star : int -> Graph.t

(** [wheel n] is a cycle on [2..n] plus hub 1; requires [n >= 4]. *)
val wheel : int -> Graph.t

(** [grid w h] is the [w] by [h] king-free grid; vertex [(x, y)] (0-based)
    is labelled [y*w + x + 1]. *)
val grid : int -> int -> Graph.t

(** [torus w h] wraps the grid in both directions; [w, h >= 3] to stay
    simple. *)
val torus : int -> int -> Graph.t

(** [hypercube d] is the [d]-cube on [2^d] vertices ([0 <= d <= 30]);
    vertex labels are [bits + 1]. *)
val hypercube : int -> Graph.t

val petersen : unit -> Graph.t

(** [complete_binary_tree n] on [n] vertices with root 1, children of [i]
    at [2i] and [2i + 1]. *)
val complete_binary_tree : int -> Graph.t

(** [caterpillar ~spine ~legs] is a path of [spine] vertices with [legs]
    pendant leaves on each spine vertex. *)
val caterpillar : spine:int -> legs:int -> Graph.t

(** [gnp rng n p] is Erdős–Rényi [G(n, p)]. *)
val gnp : Random.State.t -> int -> float -> Graph.t

(** [random_tree rng n] is uniform over labelled trees (Prüfer decode). *)
val random_tree : Random.State.t -> int -> Graph.t

(** [random_forest rng n ~trees] partitions [1..n] into [trees] groups
    and builds a random tree on each.
    @raise Invalid_argument if [trees < 1] or [trees > n]. *)
val random_forest : Random.State.t -> int -> trees:int -> Graph.t

(** [random_k_degenerate rng n ~k] builds vertices in label order, each
    new vertex choosing up to [k] random earlier neighbours (exactly
    [min k (i-1)] for vertex [i], so the graph is dense in its class).
    The natural order [n, n-1, ..., 1] is a witness of degeneracy ≤ k. *)
val random_k_degenerate : Random.State.t -> int -> k:int -> Graph.t

(** [random_k_tree rng n ~k] is a random [k]-tree: a [(k+1)]-clique plus
    vertices each completing a random existing [k]-clique.  Treewidth and
    degeneracy exactly [k] (for [n > k]).
    @raise Invalid_argument if [n < k + 1]. *)
val random_k_tree : Random.State.t -> int -> k:int -> Graph.t

(** [random_apollonian rng n] is a random planar 3-tree (Apollonian
    network): repeated insertion of a vertex into a random triangular
    face.  Planar, degeneracy 3.  Requires [n >= 3]. *)
val random_apollonian : Random.State.t -> int -> Graph.t

(** [random_maximal_outerplanar rng n] triangulates the polygon
    [1 - 2 - ... - n - 1] with random ears; degeneracy 2.  Requires
    [n >= 3]. *)
val random_maximal_outerplanar : Random.State.t -> int -> Graph.t

(** [random_bipartite rng ~left ~right p] keeps each of the [left*right]
    cross edges independently with probability [p]; parts are
    [{1..left}] and [{left+1..left+right}]. *)
val random_bipartite : Random.State.t -> left:int -> right:int -> float -> Graph.t

(** [random_connected rng n p] draws [G(n, p)] and, if disconnected, adds
    one random edge between consecutive components, yielding a connected
    graph that is [G(n, p)] plus a sparse patch. *)
val random_connected : Random.State.t -> int -> float -> Graph.t

(** [random_square_free rng n ~attempts] draws edges in random order,
    keeping an edge when it closes no 4-cycle; a maximal-ish square-free
    graph used by the Theorem 1 experiments. *)
val random_square_free : Random.State.t -> int -> attempts:int -> Graph.t

(** [random_regular rng n ~d] samples a simple [d]-regular graph by the
    pairing model with rejection.
    @raise Invalid_argument if [n * d] is odd or [d >= n].  May loop for
    dense parameters; intended for [d <= ~8]. *)
val random_regular : Random.State.t -> int -> d:int -> Graph.t

(** One input-graph interface, two storage disciplines.

    The simulator only ever asks a graph for [n] and per-vertex sorted
    neighbour runs — exactly what a node's {!View} holds — so the engine
    can run against any representation that answers those queries:

    - {b materialized}: a {!Graph.t} (CSR arrays, [O(n + m)] words;
      sparse graphs at any order);
    - {b implicit}: an {!Implicit.t} generator ([O(1)] words; the graph
      never exists in memory at all).

    Both backends present each neighbour run in the same strictly
    increasing order, so a protocol's message vector — and hence its
    transcript — is bit-identical across backends for the same labelled
    graph (the equivalence suite in [test_graph_source.ml] enforces
    this).  Engine entry points taking a source record {!backend} in
    their trace/metrics labels as a [\[src=<backend>\]] decoration. *)

type t

val of_graph : Graph.t -> t

(** [of_csr] is {!of_graph}: a {!Csr.t} is a {!Graph.t}. *)
val of_csr : Csr.t -> t

val of_implicit : Implicit.t -> t

(** [backend t] is the label token: ["materialized"] or
    ["implicit:<family>"] — always within the [\[src=...\]] grammar
    charset [a-z0-9:.-]. *)
val backend : t -> string

(** [describe t] is a human-readable spec including parameters. *)
val describe : t -> string

val order : t -> int
val size : t -> int
val degree : t -> int -> int
val has_edge : t -> int -> int -> bool

(** [iter_neighbors t v f] applies [f] in strictly increasing order. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

val fold_neighbors : t -> int -> 'a -> ('a -> int -> 'a) -> 'a

(** [neighbors t v] is the increasing neighbour list (allocates; compat
    accessor). *)
val neighbors : t -> int -> int list

(** [neighbors_slice t v] is [(arr, off, len)] describing the neighbour
    run of [v].  For the materialized backend the array is shared
    storage — callers must not mutate it; for implicit backends it is a
    fresh [len]-word array.  This is the allocation-lean path the engine
    builds views from. *)
val neighbors_slice : t -> int -> int array * int * int

(** [materialize t] is the {!Graph.t}: the wrapped graph itself, or an
    implicit family streamed twice through {!Csr.Builder} ([O(n + m)]
    words, no edge-set intermediate). *)
val materialize : t -> Graph.t

(** [parse ?graph spec] resolves a CLI [--source] value:
    ["materialized"] wraps [?graph] (required),
    ["implicit:<family-spec>"] is parsed by {!Implicit.parse} and needs
    no graph.
    @raise Invalid_argument on a missing graph, or on any other spec
    with a message naming the accepted ones. *)
val parse : ?graph:Graph.t -> string -> t

(** Generator-backed implicit graphs: neighbourhoods computed on demand.

    An implicit graph stores only its defining parameters — [O(1)] words
    however large [n] is — and answers neighbourhood queries from closed
    forms, so a million-node network costs nothing until its nodes'
    views are built.  This is the one definition of the path, cycle,
    complete, star, grid and hypercube families: {!Generators}
    materializes them from here.  Neighbour runs are emitted in strictly
    increasing order; the random
    families are seed-deterministic, so the same parameters always name
    the same labelled graph on every machine and at every {!Parallel}
    width.

    Random families use a private splitmix-style integer hash rather
    than [Random.State]: a vertex's adjacency must be recomputable from
    [(parameters, vertex)] alone, with no generator state threaded
    between queries. *)

type family =
  | Path of int
  | Cycle of int  (** requires [n >= 3] *)
  | Complete of int
  | Star of int  (** hub is vertex 1 *)
  | Grid of int * int  (** [Grid (w, h)]: vertex [(x, y)] is [y*w + x + 1] *)
  | Hypercube of int  (** dimension [d]; [2^d] vertices labelled bits+1 *)
  | Regular of { n : int; d : int; seed : int }
      (** seed-deterministic circulant: [d/2] distinct offsets drawn
          from the hash of [seed] (plus the antipodal offset when [d] is
          odd), so the graph is exactly [d]-regular.  Requires
          [0 <= d < n], [n*d] even, and [d/2 <= (n-1)/2]. *)
  | Degenerate of { n : int; k : int; seed : int }
      (** planted degeneracy-[k]: vertex [v] picks [min k (v-1)]
          distinct back-neighbours within a constant window
          {!degenerate_window}, from the hash of [(seed, v)].  The
          construction order witnesses degeneracy <= [k]; the window
          keeps forward adjacency recoverable in [O(window^2)] per
          query.  Requires [1 <= k <= degenerate_window]. *)

(** Window width of the {!Degenerate} family. *)
val degenerate_window : int

type t

(** [make family] validates the parameters.
    @raise Invalid_argument when the family's side conditions fail. *)
val make : family -> t

val family : t -> family
val order : t -> int

(** [size t] is the number of edges, from the family's closed form. *)
val size : t -> int

(** [degree t v]
    @raise Invalid_argument if [v] is out of range. *)
val degree : t -> int -> int

(** [iter_neighbors t v f] applies [f] in strictly increasing order. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

val fold_neighbors : t -> int -> 'a -> ('a -> int -> 'a) -> 'a

(** [neighbors_array t v] is a fresh increasing array — each call
    allocates [degree t v] words and nothing else. *)
val neighbors_array : t -> int -> int array

val neighbors : t -> int -> int list
val has_edge : t -> int -> int -> bool

(** [materialize t] builds the {!Graph.t}, streaming the generator twice
    through {!Csr.Builder}: [O(n + m)] words, no edge-set intermediate. *)
val materialize : t -> Graph.t

(** [label t] is the family tag recorded in trace/metrics labels:
    ["implicit:path"], ["implicit:regular"], ... — parameters excluded
    so runs of one family aggregate under one label. *)
val label : t -> string

(** [describe t] is the full round-trippable spec, e.g.
    ["implicit:regular:1000:4:7"]. *)
val describe : t -> string

(** [parse spec] reads a spec with or without the ["implicit:"] prefix:
    [path:N | cycle:N | complete:N | star:N | grid:WxH | hypercube:D |
    regular:N:D[:SEED] | degenerate:N:K[:SEED]] (seed defaults to 1).
    @raise Invalid_argument on malformed specs. *)
val parse : string -> t

(** [parse_family spec] reads a size-free family spec ([path], [grid],
    [regular:D[:SEED]], [degenerate:K[:SEED]], ...) and returns a
    constructor from [n], for sweeps that instantiate one family at many
    sizes.  Grids become near-square, hypercubes round [n] down to a
    power of two, and regular degrees are clamped to [n - 1] (and kept
    of the right parity) so every sweep size is valid.
    @raise Invalid_argument on malformed specs. *)
val parse_family : string -> int -> t

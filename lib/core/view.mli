(** The typed information boundary of Definition 1.

    A [View.t] is {e everything} a node is allowed to know in the
    one-round model: the network size [n], its own identifier, and its
    neighbour set.  Local functions take a view — not loose [~n ~id
    ~neighbors] arguments — so the boundary is a type-level guarantee:
    the only way a protocol implementation can read local knowledge is
    through these accessors, and the engine can audit exactly what each
    node queried.

    Views are cheap to construct and are built in exactly two kinds of
    places: the execution engine ({!Run_loop}, behind {!Simulator}
    and {!Bcc}) for real nodes, and referee-side oracle simulations
    ({!Reduction}, {!Bipartite_reduction}, {!Fooling}) for fictitious
    gadget vertices — the paper's requirement that local functions be
    evaluable at {e any} pair [(i, N)], not only pairs arising from an
    input graph.  The [view-boundary] lint rule enforces this list
    mechanically: [refnet-lint] flags any [View.make] outside these
    modules (the allowlist is [Lint.Policy.view_builders]) and any
    [Graph.*] access inside a protocol [local] function.

    Accessor calls are tallied per view (see {!audit}); the tally is
    invisible to the local function itself, so purity — same view
    contents, same message — is preserved. *)

type t

(** [make ~n ~id ~neighbors] builds the view of node [id] in a network
    of size [n] whose neighbour set is [neighbors] (by convention a
    strictly increasing list).
    @raise Invalid_argument if [n < 1] or [id] is out of [1..n]. *)
val make : n:int -> id:int -> neighbors:int list -> t

(** [of_slice ~n ~id nbrs ~off ~len] is {!make} over the array slice
    [nbrs.(off) .. nbrs.(off + len - 1)] without copying it — the
    allocation-lean path the engine feeds from {!Graph_source} slices
    (one view record per node, zero per-node neighbour copies for
    the materialized backend).  The view never lets the array escape
    and never mutates it; the caller must not mutate it either while
    the view is live.  Subject to the same [view-boundary] lint rule as
    {!make}.
    @raise Invalid_argument if [n < 1], [id] is out of [1..n], or the
    slice is out of bounds. *)
val of_slice : n:int -> id:int -> int array -> off:int -> len:int -> t

(** [id v] is the node's identifier. *)
val id : t -> int

(** [n v] is the network size. *)
val n : t -> int

(** [deg v] is [List.length (neighbors v)], precomputed. *)
val deg : t -> int

(** [neighbors v] is the neighbour identifier list, increasing. *)
val neighbors : t -> int list

(** [fold_neighbors v init f] folds over the neighbour identifiers in
    increasing order (counted as one neighbour query). *)
val fold_neighbors : t -> 'a -> ('a -> int -> 'a) -> 'a

(** [iter_neighbors v f] iterates in increasing order (counted as one
    neighbour query). *)
val iter_neighbors : t -> (int -> unit) -> unit

(** Accessor tallies, for auditing what a local function actually read. *)
type counts = {
  id_reads : int;
  n_reads : int;
  deg_reads : int;
  neighbor_reads : int;
}

(** [audit v] is a snapshot of the accessor tallies so far. *)
val audit : t -> counts

(** [queries v] is the total number of accessor calls. *)
val queries : t -> int

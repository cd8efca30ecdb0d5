(** Graph serialization: edge lists, Graphviz DOT, and graph6.

    graph6 is the standard compact ASCII interchange format (McKay's
    nauty): useful for pasting reconstructed topologies into external
    tools, and its encoder/decoder pair doubles as a strong round-trip
    test for the graph structure itself. *)

(** [to_edge_list g] is a line-oriented rendering: first line ["n m"],
    then one ["u v"] line per edge with [u < v]. *)
val to_edge_list : Graph.t -> string

(** [of_edge_list s] parses {!to_edge_list} output.
    @raise Invalid_argument on malformed input. *)
val of_edge_list : string -> Graph.t

(** [iter_edge_list_file path ~header ~edge] streams an edge-list file
    in one pass: [header ~n ~m] once for the first non-blank line, then
    [edge u v] per edge line, in file order.  Memory is one line at a
    time — no list of lines, no list of edges.  Malformed rows raise
    with a [path:line:] prefix; [Invalid_argument] raised by [edge]
    (range, self-loop) is re-anchored to the offending line; an edge
    count disagreeing with the header raises at end of file.
    @raise Invalid_argument on malformed input. *)
val iter_edge_list_file :
  string -> header:(n:int -> m:int -> unit) -> edge:(int -> int -> unit) -> unit

(** [graph_of_file path] streams the file twice through {!Csr.Builder},
    building the CSR arrays directly — never an edge-set or edge-list
    intermediate.  Peak memory beyond the graph is one input line plus
    [O(n)] builder cursors.  The path must name a file that can be read
    twice (not a pipe).
    @raise Invalid_argument on malformed input (with [path:line:]). *)
val graph_of_file : string -> Graph.t

(** [to_edge_list_file path g] writes {!to_edge_list} output directly to
    [path] without building the intermediate string. *)
val to_edge_list_file : string -> Graph.t -> unit

(** [to_dot g] renders an undirected Graphviz graph. *)
val to_dot : ?name:string -> Graph.t -> string

(** [to_graph6 g] encodes in graph6 (supports [n <= 258047]).
    @raise Invalid_argument beyond the supported range. *)
val to_graph6 : Graph.t -> string

(** [of_graph6 s] decodes a graph6 string.
    @raise Invalid_argument on malformed input. *)
val of_graph6 : string -> Graph.t

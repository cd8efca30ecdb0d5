(** The conclusion's coalition connectivity protocol: "if a graph is
    split into [k] parts and vertices of each part are allowed to
    communicate to each other, there is an algorithm for connectivity
    using [O(k log n)] bits per node."

    Construction.  Assign every edge to the part owning its smaller
    endpoint — a partition of the edge set computable inside each
    coalition from its pooled views.  Each coalition computes a spanning
    forest of its edge class and spreads the forest edges round-robin
    over its members' messages.  The referee unions the forests and runs
    an ordinary connectivity check.

    Correctness is the forest-union lemma (see {!Refnet_graph.Spanning}):
    replacing each class of an edge partition by a spanning forest of the
    subgraph it induces preserves connectivity.  Cost: a forest owned by
    part [P] has at most [|P| + |boundary(P)| - 1 <= n - 1] edges, so
    balanced parts of size [n/k] send [O((k + n/|P|) log n) = O(k log n)]
    bits per node. *)

(** [decide] is the coalition protocol; run it with
    {!Coalition.run}[ ~parts]. *)
val decide : bool Coalition.t

(** [hardened] is the crash/corruption-tolerant variant; run it with
    {!Coalition.run}[ ~faults].  Shares are {!Message.seal}ed; the referee
    unions only authenticated ones.  Clean channel: [Decided] of the
    plain answer.  Under faults the verdict is one-sided: surviving
    shares carry only true edges, so if they already connect the graph
    the answer is [Degraded (true, report)]; if they do not, the lost
    shares could have held the connecting edges, so the referee returns
    [Inconclusive] rather than a possibly-wrong [false]. *)
val hardened : bool Verdict.t Coalition.t

(** [spanning_forest_messages ~n view] is the per-member payload the
    protocol generates — exposed for tests and size accounting. *)
val spanning_forest_messages : n:int -> Coalition.view -> (int * Message.t) list

(** [per_node_bound ~n ~parts] is the closed-form per-node bit bound for
    balanced parts: [(ceil((n - 1) / (n / parts)) + 1) * 2 * id_bits + overhead]
    — printed by the T7 experiment next to measured sizes. *)
val per_node_bound : n:int -> parts:int -> int

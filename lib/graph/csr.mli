(** Compressed sparse row adjacency: the storage form of every {!Graph.t}.

    [Csr.t] is {!Graph.t} — [row] (n+1 prefix offsets) and [col] (all
    neighbour identifiers, concatenated in vertex order, each run
    strictly increasing), [O(n + m)] words — and every accessor lives in
    {!Graph}.  What remains here is the two-pass streaming {!Builder}
    that {!Gio.graph_of_file} and other streaming producers feed. *)

type t = Graph.t

(** Two-pass construction: replay the same edge sequence through
    [count] and then [fill], with one [freeze] between the passes and
    one [finish] at the end.  Peak memory beyond the final arrays is
    [O(n)] words; never an adjacency-set or edge-list intermediate. *)
module Builder = Graph.Two_pass

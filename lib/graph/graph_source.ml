type t = Materialized of Graph.t | Implicit of Implicit.t

let of_graph g = Materialized g
let of_csr = of_graph
let of_implicit i = Implicit i

let backend = function
  | Materialized _ -> "materialized"
  | Implicit i -> Implicit.label i

let describe = function
  | Materialized g -> Printf.sprintf "materialized:%d" (Graph.order g)
  | Implicit i -> Implicit.describe i

let order = function
  | Materialized g -> Graph.order g
  | Implicit i -> Implicit.order i

let size = function
  | Materialized g -> Graph.size g
  | Implicit i -> Implicit.size i

let degree t v =
  match t with
  | Materialized g -> Graph.degree g v
  | Implicit i -> Implicit.degree i v

let has_edge t u v =
  match t with
  | Materialized g -> Graph.has_edge g u v
  | Implicit i -> Implicit.has_edge i u v

let iter_neighbors t v f =
  match t with
  | Materialized g -> Graph.iter_neighbors g v f
  | Implicit i -> Implicit.iter_neighbors i v f

let fold_neighbors t v init f =
  match t with
  | Materialized g -> Graph.fold_neighbors g v init f
  | Implicit i -> Implicit.fold_neighbors i v init f

let neighbors t v =
  match t with
  | Materialized g -> Graph.neighbors g v
  | Implicit i -> Implicit.neighbors i v

let neighbors_slice t v =
  match t with
  | Materialized g -> Graph.neighbors_slice g v
  | Implicit i ->
    let arr = Implicit.neighbors_array i v in
    (arr, 0, Array.length arr)

let materialize = function
  | Materialized g -> g
  | Implicit i -> Implicit.materialize i

let parse ?graph spec =
  match spec with
  | "materialized" -> (
    match graph with
    | Some g -> Materialized g
    | None -> invalid_arg "Graph_source.parse: materialized source needs a graph")
  | spec when String.length spec >= 9 && String.sub spec 0 9 = "implicit:" ->
    Implicit (Implicit.parse spec)
  | spec ->
    invalid_arg
      (Printf.sprintf
         "Graph_source.parse: unknown source %S (expected materialized or \
          implicit:<family-spec>)"
         spec)

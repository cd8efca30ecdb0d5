type t = { n : int; row : int array; col : int array }
(* row.(v - 1) .. row.(v) - 1 index the neighbour run of v in col, each
   run strictly increasing.  row has n + 1 entries and row.(n) = 2m = the
   length of col, so equal graphs are structurally equal values. *)

let check g v name =
  if v < 1 || v > g.n then invalid_arg ("Graph." ^ name ^ ": vertex out of range")

(* ---------- CSR assembly ---------- *)

(* Sort col.[lo, hi) in O(d log d): short runs by insertion, longer
   ones through a scratch copy unless they already arrive sorted (as
   from every in-order producer). *)
let sort_run col lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = col.(i) in
      let j = ref (i - 1) in
      while !j >= lo && col.(!j) > x do
        col.(!j + 1) <- col.(!j);
        decr j
      done;
      col.(!j + 1) <- x
    done
  else begin
    let i = ref (lo + 1) in
    while !i < hi && col.(!i - 1) <= col.(!i) do
      incr i
    done;
    if !i < hi then begin
      let run = Array.sub col lo (hi - lo) in
      Array.stable_sort Int.compare run;
      Array.blit run 0 col lo (hi - lo)
    end
  end

(* Sort every run, drop repeated entries and compact col / row in
   place.  A duplicate edge was written into *both* endpoint runs, so
   dropping repeats keeps the structure symmetric. *)
let assemble n row col =
  let write = ref 0 in
  let lo = ref 0 in
  for v = 1 to n do
    let hi = row.(v) in
    sort_run col !lo hi;
    row.(v - 1) <- !write;
    for i = !lo to hi - 1 do
      if i = !lo || col.(i) <> col.(i - 1) then begin
        col.(!write) <- col.(i);
        incr write
      end
    done;
    lo := hi
  done;
  row.(n) <- !write;
  { n; row; col = (if !write = Array.length col then col else Array.sub col 0 !write) }

module Two_pass = struct
  type graph = t
  type stage = Counting | Filling | Finished

  type t = {
    n : int;
    row : int array; (* counting: degrees (shifted by one); then run starts *)
    mutable cursor : int array; (* filling: next free slot of each run *)
    mutable col : int array;
    mutable stage : stage;
  }

  let create n =
    if n < 0 then invalid_arg "Csr.Builder.create: negative order";
    { n; row = Array.make (n + 1) 0; cursor = [||]; col = [||]; stage = Counting }

  let expect b stage name =
    if b.stage <> stage then
      invalid_arg
        ("Csr.Builder." ^ name
        ^
        match b.stage with
        | Counting -> ": freeze first"
        | Filling -> ": already frozen"
        | Finished -> ": already finished")

  let check_pair b u v name =
    if u < 1 || u > b.n || v < 1 || v > b.n then
      invalid_arg ("Csr.Builder." ^ name ^ ": vertex out of range");
    if u = v then invalid_arg ("Csr.Builder." ^ name ^ ": self-loop")

  let count b u v =
    expect b Counting "count";
    check_pair b u v "count";
    b.row.(u) <- b.row.(u) + 1;
    b.row.(v) <- b.row.(v) + 1

  let freeze b =
    expect b Counting "freeze";
    b.stage <- Filling;
    for v = 1 to b.n do
      b.row.(v) <- b.row.(v) + b.row.(v - 1)
    done;
    b.cursor <- Array.sub b.row 0 (b.n + 1);
    b.col <- Array.make b.row.(b.n) 0

  let fill_one b u v =
    let cur = b.cursor.(u - 1) in
    if cur >= b.row.(u) then invalid_arg "Csr.Builder.fill: more edges than counted at a vertex";
    b.col.(cur) <- v;
    b.cursor.(u - 1) <- cur + 1

  let fill b u v =
    expect b Filling "fill";
    check_pair b u v "fill";
    fill_one b u v;
    fill_one b v u

  (* The graph takes over row and col, so the builder is retired. *)
  let finish b : graph =
    expect b Filling "finish";
    for v = 1 to b.n do
      if b.cursor.(v - 1) <> b.row.(v) then
        invalid_arg "Csr.Builder.finish: fill pass saw fewer edges than the counting pass"
    done;
    b.stage <- Finished;
    b.cursor <- [||];
    assemble b.n b.row b.col

  let of_iter n each =
    let b = create n in
    each (count b);
    freeze b;
    each (fill b);
    finish b
end

module Edge_set = Hashtbl.Make (Int)

module Builder = struct
  (* Edge {u, v} with u < v is the key u * (n + 1) + v. *)
  type t = { n : int; edges : unit Edge_set.t }

  let create n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative order";
    { n; edges = Edge_set.create 16 }

  let check b v =
    if v < 1 || v > b.n then invalid_arg "Graph.Builder: vertex out of range"

  let key b u v = if u < v then (u * (b.n + 1)) + v else (v * (b.n + 1)) + u

  let has_edge b u v =
    check b u;
    check b v;
    u <> v && Edge_set.mem b.edges (key b u v)

  let add_edge b u v =
    check b u;
    check b v;
    if u = v then invalid_arg "Graph.Builder.add_edge: self-loop";
    Edge_set.replace b.edges (key b u v) ()

  let remove_edge b u v =
    check b u;
    check b v;
    if u <> v then Edge_set.remove b.edges (key b u v)

  let build b =
    Two_pass.of_iter b.n (fun pass ->
        Edge_set.iter (fun k () -> pass (k / (b.n + 1)) (k mod (b.n + 1))) b.edges)
end

let empty n = Builder.build (Builder.create n)

let of_edges n edge_list =
  let b = Builder.create n in
  List.iter (fun (u, v) -> Builder.add_edge b u v) edge_list;
  Builder.build b

let order g = g.n
let size g = g.row.(g.n) / 2

let degree g v =
  check g v "degree";
  g.row.(v) - g.row.(v - 1)

let has_edge g u v =
  check g u "has_edge";
  check g v "has_edge";
  u <> v
  &&
  (* Search the shorter run. *)
  let a, b = if degree g u <= degree g v then (u, v) else (v, u) in
  let lo = ref g.row.(a - 1) and hi = ref g.row.(a) in
  let found = ref false in
  while (not !found) && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = g.col.(mid) in
    if c = b then found := true else if c < b then lo := mid + 1 else hi := mid
  done;
  !found

let neighbors g v =
  check g v "neighbors";
  let off = g.row.(v - 1) in
  List.init (g.row.(v) - off) (fun i -> g.col.(off + i))

let neighbors_slice g v =
  check g v "neighbors_slice";
  let off = g.row.(v - 1) in
  (g.col, off, g.row.(v) - off)

let iter_neighbors g v f =
  check g v "iter_neighbors";
  for i = g.row.(v - 1) to g.row.(v) - 1 do
    f (Array.unsafe_get g.col i) (* lint: allow referee-totality -- row offsets lie within col by construction; BFS hot path *)
  done

let fold_neighbors g v init f =
  check g v "fold_neighbors";
  let acc = ref init in
  for i = g.row.(v - 1) to g.row.(v) - 1 do
    acc := f !acc (Array.unsafe_get g.col i) (* lint: allow referee-totality -- row offsets lie within col by construction; BFS hot path *)
  done;
  !acc

let vertices g = List.init g.n (fun i -> i + 1)

let iter_edges g f =
  for u = 1 to g.n do
    for i = g.row.(u - 1) to g.row.(u) - 1 do
      let v = g.col.(i) in
      if u < v then f u v
    done
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let fold_vertices g init f =
  let acc = ref init in
  for v = 1 to g.n do
    acc := f !acc v
  done;
  !acc

let max_degree g = fold_vertices g 0 (fun acc v -> max acc (degree g v))

let min_degree g =
  if g.n = 0 then 0 else fold_vertices g max_int (fun acc v -> min acc (degree g v))

let degree_sequence g =
  List.sort (fun a b -> Stdlib.compare b a) (List.map (degree g) (vertices g))

let equal g h = g.n = h.n && g.row = h.row && g.col = h.col

let complement g =
  let b = Builder.create g.n in
  for u = 1 to g.n do
    for v = u + 1 to g.n do
      if not (has_edge g u v) then Builder.add_edge b u v
    done
  done;
  Builder.build b

let induced g vs =
  List.iter (fun v -> check g v "induced") vs;
  let sorted = List.sort_uniq Stdlib.compare vs in
  if List.length sorted <> List.length vs then invalid_arg "Graph.induced: repeated vertex";
  let old_of_new = Array.of_list vs in
  let new_of_old = Array.make g.n 0 in
  Array.iteri (fun i v -> new_of_old.(v - 1) <- i + 1) old_of_new;
  let b = Builder.create (Array.length old_of_new) in
  iter_edges g (fun u v ->
      let u' = new_of_old.(u - 1) and v' = new_of_old.(v - 1) in
      if u' > 0 && v' > 0 then Builder.add_edge b u' v');
  (Builder.build b, old_of_new)

let remove_vertex g v =
  check g v "remove_vertex";
  induced g (List.filter (fun u -> u <> v) (vertices g))

let relabel g perm =
  if Array.length perm <> g.n then invalid_arg "Graph.relabel: wrong length";
  let seen = Array.make g.n false in
  Array.iter
    (fun p ->
      if p < 1 || p > g.n || seen.(p - 1) then invalid_arg "Graph.relabel: not a permutation";
      seen.(p - 1) <- true)
    perm;
  let b = Builder.create g.n in
  iter_edges g (fun u v -> Builder.add_edge b perm.(u - 1) perm.(v - 1));
  Builder.build b

let disjoint_union g h =
  let b = Builder.create (g.n + h.n) in
  iter_edges g (fun u v -> Builder.add_edge b u v);
  iter_edges h (fun u v -> Builder.add_edge b (u + g.n) (v + g.n));
  Builder.build b

let add_vertices g m_extra =
  if m_extra < 0 then invalid_arg "Graph.add_vertices: negative count";
  let b = Builder.create (g.n + m_extra) in
  iter_edges g (fun u v -> Builder.add_edge b u v);
  Builder.build b

let add_edges g extra =
  let b = Builder.create g.n in
  iter_edges g (fun u v -> Builder.add_edge b u v);
  List.iter (fun (u, v) -> Builder.add_edge b u v) extra;
  Builder.build b

let is_subgraph g h =
  g.n = h.n
  &&
  let ok = ref true in
  iter_edges g (fun u v -> if not (has_edge h u v) then ok := false);
  !ok

let pp fmt g =
  Format.fprintf fmt "@[<h>graph(n=%d, m=%d: " g.n (size g);
  iter_edges g (fun u v -> Format.fprintf fmt "%d-%d " u v);
  Format.fprintf fmt ")@]"

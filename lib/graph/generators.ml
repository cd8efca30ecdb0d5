(* The closed-form families are defined once, in Implicit; these are
   their materializations. *)
let family f = Implicit.materialize (Implicit.make f)
let path n = family (Implicit.Path n)
let cycle n = family (Implicit.Cycle n)
let complete n = family (Implicit.Complete n)

let complete_bipartite a bp =
  let b = Graph.Builder.create (a + bp) in
  for u = 1 to a do
    for v = a + 1 to a + bp do
      Graph.Builder.add_edge b u v
    done
  done;
  Graph.Builder.build b

let star n = family (Implicit.Star n)

let wheel n =
  if n < 4 then invalid_arg "Generators.wheel: need n >= 4";
  let rim = (n, 2) :: List.init (n - 2) (fun i -> (i + 2, i + 3)) in
  let spokes = List.init (n - 1) (fun i -> (1, i + 2)) in
  Graph.of_edges n (rim @ spokes)

let grid w h = family (Implicit.Grid (w, h))

let torus w h =
  if w < 3 || h < 3 then invalid_arg "Generators.torus: need sides >= 3";
  let id x y = (y * w) + x + 1 in
  let b = Graph.Builder.create (w * h) in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      Graph.Builder.add_edge b (id x y) (id ((x + 1) mod w) y);
      Graph.Builder.add_edge b (id x y) (id x ((y + 1) mod h))
    done
  done;
  Graph.Builder.build b

let hypercube d = family (Implicit.Hypercube d)

let petersen () =
  (* Outer 5-cycle 1..5, inner pentagram 6..10, spokes i -> i+5. *)
  let outer = [ (1, 2); (2, 3); (3, 4); (4, 5); (5, 1) ] in
  let inner = [ (6, 8); (8, 10); (10, 7); (7, 9); (9, 6) ] in
  let spokes = List.init 5 (fun i -> (i + 1, i + 6)) in
  Graph.of_edges 10 (outer @ inner @ spokes)

let complete_binary_tree n =
  let acc = ref [] in
  for i = 2 to n do
    acc := (i / 2, i) :: !acc
  done;
  Graph.of_edges n !acc

let caterpillar ~spine ~legs =
  if spine < 1 || legs < 0 then invalid_arg "Generators.caterpillar: bad parameters";
  let n = spine * (legs + 1) in
  let b = Graph.Builder.create n in
  for s = 1 to spine - 1 do
    Graph.Builder.add_edge b s (s + 1)
  done;
  for s = 1 to spine do
    for l = 0 to legs - 1 do
      Graph.Builder.add_edge b s (spine + ((s - 1) * legs) + l + 1)
    done
  done;
  Graph.Builder.build b

let gnp rng n p =
  if p < 0.0 || p > 1.0 then invalid_arg "Generators.gnp: probability out of range";
  let b = Graph.Builder.create n in
  for u = 1 to n do
    for v = u + 1 to n do
      if Random.State.float rng 1.0 < p then Graph.Builder.add_edge b u v
    done
  done;
  Graph.Builder.build b

(* Linear-time Prüfer decoding. *)
let tree_of_pruefer n code =
  let deg = Array.make (n + 1) 1 in
  Array.iter (fun a -> deg.(a) <- deg.(a) + 1) code;
  let edges = ref [] in
  let ptr = ref 1 in
  while deg.(!ptr) <> 1 do
    incr ptr
  done;
  let leaf = ref !ptr in
  Array.iter
    (fun a ->
      edges := (!leaf, a) :: !edges;
      deg.(a) <- deg.(a) - 1;
      if deg.(a) = 1 && a < !ptr then leaf := a
      else begin
        incr ptr;
        while deg.(!ptr) <> 1 do
          incr ptr
        done;
        leaf := !ptr
      end)
    code;
  edges := (!leaf, n) :: !edges;
  Graph.of_edges n !edges

let random_tree rng n =
  if n <= 0 then invalid_arg "Generators.random_tree: need n >= 1";
  if n = 1 then Graph.empty 1
  else if n = 2 then Graph.of_edges 2 [ (1, 2) ]
  else tree_of_pruefer n (Array.init (n - 2) (fun _ -> 1 + Random.State.int rng n))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let sample_distinct rng ~bound ~count =
  (* Distinct uniform picks from 1..bound; count is small. *)
  let picked = Hashtbl.create 8 in
  let rec pick acc remaining =
    if remaining = 0 then acc
    else begin
      let c = 1 + Random.State.int rng bound in
      if Hashtbl.mem picked c then pick acc remaining
      else begin
        Hashtbl.add picked c ();
        pick (c :: acc) (remaining - 1)
      end
    end
  in
  pick [] count

let random_forest rng n ~trees =
  if trees < 1 || trees > max n 1 then invalid_arg "Generators.random_forest: bad tree count";
  if n = 0 then Graph.empty 0
  else begin
    (* Deal shuffled labels into [trees] groups, then build a random tree
       on each group via relabelled Prüfer trees. *)
    let labels = Array.init n (fun i -> i + 1) in
    shuffle rng labels;
    (* Distinct cut points: exactly [trees] non-empty groups. *)
    let cuts = Array.of_list (sample_distinct rng ~bound:(n - 1) ~count:(trees - 1)) in
    Array.sort Stdlib.compare cuts;
    let groups = ref [] in
    let start = ref 0 in
    Array.iter
      (fun c ->
        if c > !start then begin
          groups := Array.sub labels !start (c - !start) :: !groups;
          start := c
        end)
      cuts;
    groups := Array.sub labels !start (n - !start) :: !groups;
    let b = Graph.Builder.create n in
    List.iter
      (fun group ->
        let size = Array.length group in
        if size > 1 then begin
          let t = random_tree rng size in
          Graph.iter_edges t (fun u v ->
              Graph.Builder.add_edge b group.(u - 1) group.(v - 1))
        end)
      !groups;
    Graph.Builder.build b
  end

let random_k_degenerate rng n ~k =
  if k < 0 then invalid_arg "Generators.random_k_degenerate: negative k";
  let b = Graph.Builder.create n in
  for i = 2 to n do
    let count = min k (i - 1) in
    List.iter (fun j -> Graph.Builder.add_edge b i j) (sample_distinct rng ~bound:(i - 1) ~count)
  done;
  Graph.Builder.build b

let random_k_tree rng n ~k =
  if n < k + 1 then invalid_arg "Generators.random_k_tree: need n >= k + 1";
  let b = Graph.Builder.create n in
  (* Seed clique on 1..k+1. *)
  for u = 1 to k + 1 do
    for v = u + 1 to k + 1 do
      Graph.Builder.add_edge b u v
    done
  done;
  (* cliques: the k-cliques available for extension. *)
  let cliques = ref [||] in
  let add_clique c = cliques := Array.append !cliques [| c |] in
  (* All k-subsets of the seed clique. *)
  let rec subsets first remaining acc =
    if remaining = 0 then add_clique (Array.of_list (List.rev acc))
    else
      for i = first to k + 1 - remaining + 1 do
        subsets (i + 1) (remaining - 1) (i :: acc)
      done
  in
  subsets 1 k [];
  for v = k + 2 to n do
    let c = !cliques.(Random.State.int rng (Array.length !cliques)) in
    Array.iter (fun u -> Graph.Builder.add_edge b v u) c;
    (* New k-cliques: v with each (k-1)-subset of c. *)
    for drop = 0 to k - 1 do
      let fresh = Array.mapi (fun i u -> if i = drop then v else u) c in
      add_clique fresh
    done
  done;
  Graph.Builder.build b

let random_apollonian rng n =
  if n < 3 then invalid_arg "Generators.random_apollonian: need n >= 3";
  let b = Graph.Builder.create n in
  Graph.Builder.add_edge b 1 2;
  Graph.Builder.add_edge b 2 3;
  Graph.Builder.add_edge b 1 3;
  let faces = ref [| (1, 2, 3) |] in
  for v = 4 to n do
    let idx = Random.State.int rng (Array.length !faces) in
    let a, bb, c = !faces.(idx) in
    Graph.Builder.add_edge b v a;
    Graph.Builder.add_edge b v bb;
    Graph.Builder.add_edge b v c;
    (* Replace the split face by the three new ones. *)
    !faces.(idx) <- (a, bb, v);
    faces := Array.append !faces [| (a, c, v); (bb, c, v) |]
  done;
  Graph.Builder.build b

let random_maximal_outerplanar rng n =
  if n < 3 then invalid_arg "Generators.random_maximal_outerplanar: need n >= 3";
  let b = Graph.Builder.create n in
  for i = 1 to n - 1 do
    Graph.Builder.add_edge b i (i + 1)
  done;
  Graph.Builder.add_edge b n 1;
  (* Triangulate the polygon by random splits. *)
  let rec split lo hi =
    (* Chord lo-hi is an edge; triangulate the open chain lo..hi. *)
    if hi - lo >= 2 then begin
      let mid = lo + 1 + Random.State.int rng (hi - lo - 1) in
      Graph.Builder.add_edge b lo mid;
      Graph.Builder.add_edge b mid hi;
      split lo mid;
      split mid hi
    end
  in
  split 1 n;
  Graph.Builder.build b

let random_bipartite rng ~left ~right p =
  if p < 0.0 || p > 1.0 then invalid_arg "Generators.random_bipartite: probability out of range";
  let b = Graph.Builder.create (left + right) in
  for u = 1 to left do
    for v = left + 1 to left + right do
      if Random.State.float rng 1.0 < p then Graph.Builder.add_edge b u v
    done
  done;
  Graph.Builder.build b

let random_connected rng n p =
  let g = gnp rng n p in
  match Connectivity.component_members g with
  | [] | [ _ ] -> g
  | first :: rest ->
    (* Arrays for O(1) member picks; components are non-empty by
       construction, so plain indexing is total here. *)
    let first = Array.of_list first in
    let patch =
      List.map
        (fun comp ->
          let comp = Array.of_list comp in
          let a = first.(Random.State.int rng (Array.length first)) in
          let bv = comp.(Random.State.int rng (Array.length comp)) in
          (a, bv))
        rest
    in
    Graph.add_edges g patch

let random_square_free rng n ~attempts =
  let b = Graph.Builder.create n in
  let closes_square u v =
    (* Adding u-v creates a C4 iff u and v already share two neighbours,
       or some neighbour pair short-circuits; equivalently the built graph
       plus the edge has a square through it.  Check: exists w != v
       adjacent to u and x != u adjacent to v with w-x an edge and
       w != x ... simpler: u,v share >= 2 common neighbours (C4 via
       u-a-v-b), or there is a path u - a - b - v of length 3 (C4
       u-a-b-v-u). *)
    let common = ref 0 in
    for w = 1 to n do
      if w <> u && w <> v && Graph.Builder.has_edge b u w && Graph.Builder.has_edge b v w then
        incr common
    done;
    if !common >= 2 then true
    else begin
      let found = ref false in
      for a = 1 to n do
        if (not !found) && a <> u && a <> v && Graph.Builder.has_edge b u a then
          for bb = 1 to n do
            if
              (not !found) && bb <> u && bb <> v && bb <> a
              && Graph.Builder.has_edge b a bb
              && Graph.Builder.has_edge b bb v
            then found := true
          done
      done;
      !found
    end
  in
  for _ = 1 to attempts do
    let u = 1 + Random.State.int rng n and v = 1 + Random.State.int rng n in
    if u <> v && (not (Graph.Builder.has_edge b u v)) && not (closes_square u v) then
      Graph.Builder.add_edge b u v
  done;
  Graph.Builder.build b

let random_regular rng n ~d =
  if n * d mod 2 = 1 then invalid_arg "Generators.random_regular: n * d must be even";
  if d < 0 || d >= max n 1 then invalid_arg "Generators.random_regular: need 0 <= d < n";
  if d = 0 then Graph.empty n
  else begin
    (* Pairing model: d stubs per vertex, random perfect matching on the
       stubs, reject on loops or parallel edges and retry. *)
    let stubs = Array.make (n * d) 0 in
    let rec attempt () =
      let idx = ref 0 in
      for v = 1 to n do
        for _ = 1 to d do
          stubs.(!idx) <- v;
          incr idx
        done
      done;
      shuffle rng stubs;
      let b = Graph.Builder.create n in
      let ok = ref true in
      let i = ref 0 in
      while !ok && !i < n * d do
        let u = stubs.(!i) and v = stubs.(!i + 1) in
        if u = v || Graph.Builder.has_edge b u v then ok := false
        else Graph.Builder.add_edge b u v;
        i := !i + 2
      done;
      if !ok then Graph.Builder.build b else attempt ()
    in
    attempt ()
  end

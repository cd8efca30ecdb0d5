open Refnet_graph

let graph = Alcotest.testable (fun fmt g -> Graph.pp fmt g) Graph.equal

let test_empty () =
  let g = Graph.empty 5 in
  Alcotest.(check int) "order" 5 (Graph.order g);
  Alcotest.(check int) "size" 0 (Graph.size g);
  Alcotest.(check int) "degree" 0 (Graph.degree g 3);
  Alcotest.(check (list int)) "vertices" [ 1; 2; 3; 4; 5 ] (Graph.vertices g)

let test_of_edges () =
  let g = Graph.of_edges 4 [ (1, 2); (2, 3); (3, 1); (2, 1) ] in
  Alcotest.(check int) "size dedups" 3 (Graph.size g);
  Alcotest.(check bool) "1-2" true (Graph.has_edge g 1 2);
  Alcotest.(check bool) "2-1 symmetric" true (Graph.has_edge g 2 1);
  Alcotest.(check bool) "1-4" false (Graph.has_edge g 1 4);
  Alcotest.(check (list int)) "neighbors sorted" [ 1; 3 ] (Graph.neighbors g 2)

let test_guards () =
  Alcotest.check_raises "loop" (Invalid_argument "Graph.Builder.add_edge: self-loop")
    (fun () -> ignore (Graph.of_edges 3 [ (2, 2) ]));
  Alcotest.check_raises "range" (Invalid_argument "Graph.Builder: vertex out of range")
    (fun () -> ignore (Graph.of_edges 3 [ (1, 4) ]));
  let g = Graph.empty 3 in
  Alcotest.check_raises "has_edge range" (Invalid_argument "Graph.has_edge: vertex out of range")
    (fun () -> ignore (Graph.has_edge g 0 1))

let test_builder_incremental () =
  let b = Graph.Builder.create 3 in
  Graph.Builder.add_edge b 1 2;
  let g1 = Graph.Builder.build b in
  Graph.Builder.add_edge b 2 3;
  let g2 = Graph.Builder.build b in
  Alcotest.(check int) "snapshot unaffected" 1 (Graph.size g1);
  Alcotest.(check int) "later build sees more" 2 (Graph.size g2)

let test_edges_order () =
  let g = Graph.of_edges 4 [ (3, 4); (1, 3); (1, 2) ] in
  Alcotest.(check (list (pair int int))) "lex order" [ (1, 2); (1, 3); (3, 4) ] (Graph.edges g)

let test_degrees () =
  let g = Graph.of_edges 5 [ (1, 2); (1, 3); (1, 4); (2, 3) ] in
  Alcotest.(check int) "max" 3 (Graph.max_degree g);
  Alcotest.(check int) "min" 0 (Graph.min_degree g);
  Alcotest.(check (list int)) "sequence" [ 3; 2; 2; 1; 0 ] (Graph.degree_sequence g)

let test_equal () =
  let g = Graph.of_edges 3 [ (1, 2) ] in
  let h = Graph.of_edges 3 [ (2, 1) ] in
  Alcotest.check graph "same edges" g h;
  Alcotest.(check bool) "different order" false (Graph.equal g (Graph.empty 4));
  Alcotest.(check bool) "different edges" false (Graph.equal g (Graph.empty 3))

let test_complement () =
  let g = Graph.of_edges 4 [ (1, 2); (3, 4) ] in
  let c = Graph.complement g in
  Alcotest.(check int) "sizes add to C(4,2)" 6 (Graph.size g + Graph.size c);
  Alcotest.(check bool) "flipped" true (Graph.has_edge c 1 3);
  Alcotest.(check bool) "flipped off" false (Graph.has_edge c 1 2);
  Alcotest.check graph "involution" g (Graph.complement c)

let test_induced () =
  let g = Graph.of_edges 5 [ (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let h, map = Graph.induced g [ 2; 3; 5 ] in
  Alcotest.(check int) "order" 3 (Graph.order h);
  Alcotest.(check int) "size" 1 (Graph.size h);
  Alcotest.(check bool) "2-3 kept" true (Graph.has_edge h 1 2);
  Alcotest.(check (array int)) "label map" [| 2; 3; 5 |] map

let test_remove_vertex () =
  let g = Graph.of_edges 4 [ (1, 2); (2, 3); (3, 4) ] in
  let h, map = Graph.remove_vertex g 2 in
  Alcotest.(check int) "order" 3 (Graph.order h);
  Alcotest.(check int) "size" 1 (Graph.size h);
  Alcotest.(check (array int)) "map" [| 1; 3; 4 |] map

let test_relabel () =
  let g = Graph.of_edges 3 [ (1, 2) ] in
  let h = Graph.relabel g [| 3; 1; 2 |] in
  Alcotest.(check bool) "3-1" true (Graph.has_edge h 3 1);
  Alcotest.(check bool) "no 1-2" false (Graph.has_edge h 1 2);
  Alcotest.check_raises "not a permutation" (Invalid_argument "Graph.relabel: not a permutation")
    (fun () -> ignore (Graph.relabel g [| 1; 1; 2 |]))

let test_disjoint_union () =
  let g = Graph.of_edges 2 [ (1, 2) ] in
  let h = Graph.of_edges 3 [ (1, 3) ] in
  let u = Graph.disjoint_union g h in
  Alcotest.(check int) "order" 5 (Graph.order u);
  Alcotest.(check bool) "g edge" true (Graph.has_edge u 1 2);
  Alcotest.(check bool) "h edge shifted" true (Graph.has_edge u 3 5)

let test_add_vertices_edges () =
  let g = Graph.add_vertices (Graph.of_edges 2 [ (1, 2) ]) 2 in
  Alcotest.(check int) "order" 4 (Graph.order g);
  let g = Graph.add_edges g [ (3, 4) ] in
  Alcotest.(check bool) "new edge" true (Graph.has_edge g 3 4);
  Alcotest.(check bool) "old kept" true (Graph.has_edge g 1 2)

let test_is_subgraph () =
  let g = Graph.of_edges 3 [ (1, 2) ] in
  let h = Graph.of_edges 3 [ (1, 2); (2, 3) ] in
  Alcotest.(check bool) "subgraph" true (Graph.is_subgraph g h);
  Alcotest.(check bool) "not super" false (Graph.is_subgraph h g)

let gen_graph =
  QCheck2.Gen.(
    bind (int_range 1 30) (fun n ->
        map
          (fun pairs ->
            let edges =
              List.filter_map
                (fun (a, b) ->
                  let u = 1 + (abs a mod n) and v = 1 + (abs b mod n) in
                  if u = v then None else Some (u, v))
                pairs
            in
            Graph.of_edges n edges)
          (list_size (int_range 0 60) (pair int int))))

let prop_handshake =
  QCheck2.Test.make ~name:"sum of degrees = 2m" ~count:200 gen_graph (fun g ->
      Graph.fold_vertices g 0 (fun acc v -> acc + Graph.degree g v) = 2 * Graph.size g)

let prop_complement_involution =
  QCheck2.Test.make ~name:"complement involutive" ~count:200 gen_graph (fun g ->
      Graph.equal g (Graph.complement (Graph.complement g)))

let prop_relabel_preserves_size =
  QCheck2.Test.make ~name:"relabel preserves size and degree multiset" ~count:200 gen_graph
    (fun g ->
      let n = Graph.order g in
      let perm = Array.init n (fun i -> i + 1) in
      (* Reverse permutation: deterministic yet non-trivial. *)
      let perm = Array.map (fun v -> n + 1 - v) perm in
      let h = Graph.relabel g perm in
      Graph.size h = Graph.size g && Graph.degree_sequence h = Graph.degree_sequence g)

let prop_neighbors_symmetric =
  QCheck2.Test.make ~name:"u in N(v) iff v in N(u)" ~count:200 gen_graph (fun g ->
      List.for_all
        (fun v -> List.for_all (fun u -> List.mem v (Graph.neighbors g u)) (Graph.neighbors g v))
        (Graph.vertices g))

(* ---------- builders against an edge-set model ---------- *)

(* Random add / remove / has_edge sequences over ids in [-1, n + 1], so
   loops, duplicates in both orientations and out-of-range ids all
   occur.  Graph.Builder is checked against the model with removals;
   Graph.of_edges and the two-pass Csr.Builder against the set of every
   accepted insertion.  The model is a sorted list of pairs (u < v). *)
type op = Add of int * int | Remove of int * int | Has of int * int

let gen_ops =
  QCheck2.Gen.(
    bind (int_range 0 16) (fun n ->
        let id = int_range (-1) (n + 1) in
        map
          (fun ops -> (n, ops))
          (list_size (int_range 0 80)
             (map3
                (fun kind u v ->
                  match kind with 0 | 1 | 2 -> Add (u, v) | 3 -> Remove (u, v) | _ -> Has (u, v))
                (int_range 0 4) id id))))

let print_ops (n, ops) =
  Printf.sprintf "n=%d: %s" n
    (String.concat " "
       (List.map
          (function
            | Add (u, v) -> Printf.sprintf "+%d-%d" u v
            | Remove (u, v) -> Printf.sprintf "-%d-%d" u v
            | Has (u, v) -> Printf.sprintf "?%d-%d" u v)
          ops))

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

(* [g] holds exactly the model's edges, through every accessor. *)
let matches_model n model g =
  let nbrs v =
    List.sort_uniq compare
      (List.filter_map
         (fun (a, b) -> if a = v then Some b else if b = v then Some a else None)
         model)
  in
  let slice v =
    let arr, off, len = Graph.neighbors_slice g v in
    Array.to_list (Array.sub arr off len)
  in
  Graph.order g = n
  && Graph.size g = List.length model
  && Graph.edges g = model
  && List.for_all
       (fun v ->
         let expected = nbrs v in
         Graph.neighbors g v = expected
         && slice v = expected
         && Graph.degree g v = List.length expected
         && List.for_all
              (fun u -> Graph.has_edge g u v = (u <> v && List.mem u expected))
              (List.init n (fun i -> i + 1)))
       (List.init n (fun i -> i + 1))

let prop_builders_match_model =
  QCheck2.Test.make ~name:"agree with an edge-set model" ~count:300 ~print:print_ops
    gen_ops (fun (n, ops) ->
      let in_range v = v >= 1 && v <= n in
      let norm u v = (min u v, max u v) in
      let b = Graph.Builder.create n in
      let model = ref [] and added = ref [] and raw = ref [] in
      let step_ok = function
        | Add (u, v) ->
          raw := (u, v) :: !raw;
          let bad = (not (in_range u)) || (not (in_range v)) || u = v in
          if bad then raises (fun () -> Graph.Builder.add_edge b u v)
          else begin
            Graph.Builder.add_edge b u v;
            model := List.sort_uniq compare (norm u v :: !model);
            added := (u, v) :: !added;
            true
          end
        | Remove (u, v) ->
          if not (in_range u && in_range v) then raises (fun () -> Graph.Builder.remove_edge b u v)
          else begin
            Graph.Builder.remove_edge b u v;
            model := List.filter (fun e -> e <> norm u v) !model;
            true
          end
        | Has (u, v) ->
          if not (in_range u && in_range v) then raises (fun () -> Graph.Builder.has_edge b u v)
          else Graph.Builder.has_edge b u v = List.mem (norm u v) !model
      in
      let steps_ok = List.for_all step_ok ops in
      let added_model = List.sort_uniq compare (List.map (fun (u, v) -> norm u v) !added) in
      let two_pass edges =
        let c = Csr.Builder.create n in
        List.iter (fun (u, v) -> Csr.Builder.count c u v) edges;
        Csr.Builder.freeze c;
        List.iter (fun (u, v) -> Csr.Builder.fill c u v) edges;
        Csr.Builder.finish c
      in
      let g_builder = Graph.Builder.build b in
      let g_edges = Graph.of_edges n !added and g_stream = two_pass !added in
      (* A list holding a rejected pair is rejected by both list builders. *)
      let rejects_bad =
        List.length !raw = List.length !added
        || (raises (fun () -> Graph.of_edges n !raw) && raises (fun () -> two_pass !raw))
      in
      steps_ok && rejects_bad
      && matches_model n !model g_builder
      && matches_model n added_model g_edges
      && matches_model n added_model g_stream
      && Graph.equal g_edges g_stream
      && Graph.equal g_builder g_edges = (!model = added_model)
      && Graph.equal g_builder (Graph.of_edges n !model))

(* A star whose leaves arrive shuffled: every run sort is O(d log d), so
   a 2 * 10^5-leaf hub builds well within a second either way. *)
let test_shuffled_star_builds_fast () =
  let leaves = 200_000 in
  let n = leaves + 1 in
  let order = Array.init leaves (fun i -> i + 2) in
  let rng = Random.State.make [| 14 |] in
  for i = leaves - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let timed name build =
    let t0 = Sys.time () in
    let g = build () in
    let dt = Sys.time () -. t0 in
    Alcotest.(check int) (name ^ ": hub degree") leaves (Graph.degree g 1);
    Alcotest.(check bool) (name ^ ": hub run sorted") true (Graph.neighbors g 1 = List.init leaves (fun i -> i + 2));
    if dt >= 1.0 then Alcotest.failf "%s: %.2f s to build a shuffled %d-leaf star" name dt leaves
  in
  timed "Csr.Builder" (fun () ->
      let c = Csr.Builder.create n in
      Array.iter (fun l -> Csr.Builder.count c l 1) order;
      Csr.Builder.freeze c;
      Array.iter (fun l -> Csr.Builder.fill c l 1) order;
      Csr.Builder.finish c);
  timed "Graph.Builder" (fun () ->
      let b = Graph.Builder.create n in
      Array.iter (fun l -> Graph.Builder.add_edge b 1 l) order;
      Graph.Builder.build b)

(* Building is O(n + m) words: a 10^5-vertex path allocates a few MB,
   where an n^2-bit adjacency would take about 1.25 GB. *)
let test_builder_allocation () =
  let n = 100_000 in
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let b = Graph.Builder.create n in
  for v = 1 to n - 1 do
    Graph.Builder.add_edge b v (v + 1)
  done;
  let g = Graph.Builder.build b in
  let mb = (Gc.allocated_bytes () -. a0) /. 1048576.0 in
  Alcotest.(check int) "size" (n - 1) (Graph.size g);
  if mb >= 64.0 then Alcotest.failf "Graph.Builder on a %d-vertex path allocated %.1f MB" n mb

let () =
  Alcotest.run "graph"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "of_edges" `Quick test_of_edges;
          Alcotest.test_case "guards" `Quick test_guards;
          Alcotest.test_case "builder snapshots" `Quick test_builder_incremental;
          Alcotest.test_case "edges order" `Quick test_edges_order;
          Alcotest.test_case "degrees" `Quick test_degrees;
          Alcotest.test_case "equality" `Quick test_equal;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "remove vertex" `Quick test_remove_vertex;
          Alcotest.test_case "relabel" `Quick test_relabel;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
          Alcotest.test_case "add vertices/edges" `Quick test_add_vertices_edges;
          Alcotest.test_case "is_subgraph" `Quick test_is_subgraph;
        ] );
      ( "builders",
        [
          QCheck_alcotest.to_alcotest prop_builders_match_model;
          Alcotest.test_case "shuffled 2x10^5-leaf star under 1 s" `Quick
            test_shuffled_star_builds_fast;
          Alcotest.test_case "10^5-vertex path under 64 MB" `Quick test_builder_allocation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_handshake;
            prop_complement_involution;
            prop_relabel_preserves_size;
            prop_neighbors_symmetric;
          ] );
    ]

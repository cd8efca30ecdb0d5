(* Graph_source substrate: implicit family oracles, the streaming CSR
   builder, and the backend-equivalence contract — the same labelled
   graph yields a bit-identical transcript whichever backend built the
   views, at any pool width and chunk size. *)

open Refnet_graph

let graph = Alcotest.testable (fun fmt g -> Graph.pp fmt g) Graph.equal

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let contains ~needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* ---------- implicit families ---------- *)

(* Every family's query oracles must agree with its materialization:
   neighbours (strictly increasing and symmetric), degree, has_edge,
   closed-form size. *)
let test_implicit_oracles () =
  List.iter
    (fun spec ->
      let t = Implicit.parse spec in
      let n = Implicit.order t in
      let g = Implicit.materialize t in
      Alcotest.(check int) (spec ^ ": size") (Graph.size g) (Implicit.size t);
      for v = 1 to n do
        let nbrs = Implicit.neighbors t v in
        Alcotest.(check (list int)) (spec ^ ": neighbors") (Graph.neighbors g v) nbrs;
        Alcotest.(check int) (spec ^ ": degree") (List.length nbrs) (Implicit.degree t v);
        Alcotest.(check (list int))
          (spec ^ ": array path")
          nbrs
          (Array.to_list (Implicit.neighbors_array t v));
        ignore
          (List.fold_left
             (fun prev u ->
               if u <= prev then Alcotest.failf "%s: neighbours of %d not increasing" spec v;
               u)
             0 nbrs)
      done;
      for u = 1 to n do
        for v = 1 to n do
          Alcotest.(check bool)
            (Printf.sprintf "%s: has_edge %d %d" spec u v)
            (Graph.has_edge g u v) (Implicit.has_edge t u v)
        done
      done)
    [
      "path:13"; "cycle:12"; "complete:7"; "star:9"; "grid:5x3"; "hypercube:3";
      "regular:24:4:7"; "regular:15:4:2"; "regular:10:3:5"; "regular:9:2:1";
      "degenerate:40:3:5"; "degenerate:6:2:1"; "degenerate:30:1:4";
    ]

let test_regular_family () =
  List.iter
    (fun (n, d, seed) ->
      let t = Implicit.make (Implicit.Regular { n; d; seed }) in
      for v = 1 to n do
        Alcotest.(check int) (Printf.sprintf "regular(%d,%d) degree of %d" n d v) d
          (Implicit.degree t v)
      done;
      let t2 = Implicit.parse (Printf.sprintf "regular:%d:%d:%d" n d seed) in
      Alcotest.check graph "seed-deterministic" (Implicit.materialize t)
        (Implicit.materialize t2))
    [ (24, 4, 7); (15, 4, 2); (10, 3, 5); (32, 6, 3); (7, 6, 1) ];
  expect_invalid "n*d odd" (fun () ->
      Implicit.make (Implicit.Regular { n = 5; d = 3; seed = 1 }));
  expect_invalid "d >= n" (fun () ->
      Implicit.make (Implicit.Regular { n = 4; d = 4; seed = 1 }))

let test_degenerate_family () =
  List.iter
    (fun (n, k, seed) ->
      let t = Implicit.make (Implicit.Degenerate { n; k; seed }) in
      let g = Implicit.materialize t in
      Alcotest.(check bool)
        (Printf.sprintf "degenerate(%d,%d): degeneracy <= k" n k)
        true
        (Degeneracy.degeneracy g <= k);
      Alcotest.(check int) "closed-form size" (Graph.size g) (Implicit.size t))
    [ (40, 3, 5); (25, 1, 2); (12, 5, 9); (3, 4, 1) ];
  expect_invalid "k = 0" (fun () ->
      Implicit.make (Implicit.Degenerate { n = 5; k = 0; seed = 1 }));
  expect_invalid "k > window" (fun () ->
      Implicit.make (Implicit.Degenerate { n = 5; k = Implicit.degenerate_window + 1; seed = 1 }))

let test_implicit_parse_errors () =
  List.iter
    (fun spec -> expect_invalid spec (fun () -> Implicit.parse spec))
    [ ""; "path"; "path:x"; "grid:5"; "grid:0x4"; "cycle:2"; "wheel:5"; "regular:10"; "path:-3" ]

let test_parse_family_sizes () =
  List.iter
    (fun n ->
      List.iter
        (fun spec ->
          let t = Implicit.parse_family spec n in
          match spec with
          | "hypercube" ->
            let m = Implicit.order t in
            Alcotest.(check bool) "power of two <= n" true (m <= n && m land (m - 1) = 0)
          | _ -> Alcotest.(check int) (spec ^ ": order") n (Implicit.order t))
        [ "path"; "implicit:grid"; "regular:4:7"; "degenerate:3"; "hypercube" ])
    [ 1; 12; 36; 100 ]

(* ---------- CSR ---------- *)

let csr_of_edges n edges =
  let b = Csr.Builder.create n in
  List.iter (fun (u, v) -> Csr.Builder.count b u v) edges;
  Csr.Builder.freeze b;
  List.iter (fun (u, v) -> Csr.Builder.fill b u v) edges;
  Csr.Builder.finish b

let test_csr_of_edges () =
  (* Duplicates (in either orientation) collapse to one edge. *)
  let c = csr_of_edges 4 [ (1, 2); (2, 1); (3, 4); (1, 2); (4, 3) ] in
  Alcotest.check graph "dedupe" (Graph.of_edges 4 [ (1, 2); (3, 4) ]) c;
  Alcotest.(check int) "size after dedupe" 2 (Graph.size c);
  expect_invalid "self-loop" (fun () -> csr_of_edges 3 [ (1, 1) ]);
  expect_invalid "out of range" (fun () -> csr_of_edges 3 [ (1, 4) ]);
  expect_invalid "negative order" (fun () -> csr_of_edges (-1) []);
  (* The fill pass must replay the counting pass. *)
  expect_invalid "fill beyond count" (fun () ->
      let b = Csr.Builder.create 3 in
      Csr.Builder.count b 1 2;
      Csr.Builder.freeze b;
      Csr.Builder.fill b 1 2;
      Csr.Builder.fill b 1 2);
  expect_invalid "fill short of count" (fun () ->
      let b = Csr.Builder.create 3 in
      Csr.Builder.count b 1 2;
      Csr.Builder.freeze b;
      Csr.Builder.finish b);
  (* A finished builder is retired: its arrays belong to the graph. *)
  let b = Csr.Builder.create 3 in
  Csr.Builder.count b 1 2;
  Csr.Builder.freeze b;
  Csr.Builder.fill b 1 2;
  let g = Csr.Builder.finish b in
  expect_invalid "fill after finish" (fun () -> Csr.Builder.fill b 2 3);
  expect_invalid "finish twice" (fun () -> Csr.Builder.finish b);
  Alcotest.check graph "graph unharmed" (Graph.of_edges 3 [ (1, 2) ]) g

(* ---------- Graph_source front door ---------- *)

let test_source_parse () =
  let g = Generators.path 5 in
  let backend spec = Graph_source.backend (Graph_source.parse ~graph:g spec) in
  Alcotest.(check string) "materialized" "materialized" (backend "materialized");
  Alcotest.(check string) "implicit" "implicit:path"
    (Graph_source.backend (Graph_source.parse "implicit:path:9"));
  expect_invalid "materialized needs a graph" (fun () -> Graph_source.parse "materialized");
  expect_invalid "unknown backend" (fun () -> Graph_source.parse ~graph:g "adjacency");
  (* The retired csr spec is an unknown spec whose error names the
     accepted ones. *)
  match Graph_source.parse ~graph:g "csr" with
  | _ -> Alcotest.fail "csr: expected Invalid_argument"
  | exception Invalid_argument msg ->
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names %S" msg needle)
          true
          (contains ~needle msg))
      [ "\"csr\""; "materialized"; "implicit:" ]

let test_source_queries_agree () =
  let imp = Implicit.parse "regular:18:4:3" in
  let g = Implicit.materialize imp in
  let sources =
    [
      ("materialized", Graph_source.of_graph g);
      ("implicit", Graph_source.of_implicit imp);
    ]
  in
  List.iter
    (fun (name, src) ->
      Alcotest.(check int) (name ^ ": order") (Graph.order g) (Graph_source.order src);
      Alcotest.(check int) (name ^ ": size") (Graph.size g) (Graph_source.size src);
      Alcotest.check graph (name ^ ": materialize") g (Graph_source.materialize src);
      List.iter
        (fun v ->
          Alcotest.(check (list int))
            (name ^ ": neighbors")
            (Graph.neighbors g v)
            (Graph_source.neighbors src v);
          let arr, off, len = Graph_source.neighbors_slice src v in
          Alcotest.(check (list int))
            (name ^ ": slice")
            (Graph.neighbors g v)
            (Array.to_list (Array.sub arr off len)))
        (Graph.vertices g))
    sources

(* ---------- backend-equivalence of engine runs ---------- *)

let transcript_eq name (o1, (t1 : Core.Simulator.transcript)) (o2, (t2 : Core.Simulator.transcript)) =
  Alcotest.(check bool) (name ^ ": same output") true (o1 = o2);
  Alcotest.(check (array int))
    (name ^ ": same message bits")
    t1.Core.Simulator.message_bits t2.Core.Simulator.message_bits

let sources_of imp =
  let g = Implicit.materialize imp in
  ( g,
    [
      ("materialized", Graph_source.of_graph g);
      ("implicit", Graph_source.of_implicit imp);
    ] )

let test_run_source_equivalence () =
  List.iter
    (fun spec ->
      let imp = Implicit.parse spec in
      let g, sources = sources_of imp in
      let n = Implicit.order imp in
      List.iter
        (fun (pname, run_ref, run_src) ->
          let reference = run_ref g in
          List.iter
            (fun (bname, src) ->
              let name = Printf.sprintf "%s/%s/%s" spec pname bname in
              transcript_eq name reference (run_src ?domains:None ?chunk:None src);
              List.iter
                (fun domains ->
                  transcript_eq
                    (Printf.sprintf "%s@%dd" name domains)
                    reference
                    (run_src ?domains:(Some domains) ?chunk:None src))
                [ 1; 2; 4 ];
              List.iter
                (fun chunk ->
                  transcript_eq
                    (Printf.sprintf "%s@chunk=%d" name chunk)
                    reference
                    (run_src ?domains:None ?chunk:(Some chunk) src))
                [ 1; 3; n ])
            sources)
        [
          ( "forest-recognize",
            (fun g -> Core.Simulator.run Core.Forest_protocol.recognize g),
            fun ?domains ?chunk src ->
              Core.Simulator.run_source ?domains ?chunk Core.Forest_protocol.recognize src );
          ( "edge-count",
            (fun g ->
              let out, t = Core.Simulator.run Core.Easy_protocols.edge_count g in
              (out = Graph.size g, t)),
            fun ?domains ?chunk src ->
              let out, t =
                Core.Simulator.run_source ?domains ?chunk Core.Easy_protocols.edge_count src
              in
              (out = Graph_source.size src, t) );
        ])
    [ "path:23"; "grid:4x5"; "regular:16:4:7"; "degenerate:21:3:5" ]

let test_run_source_empty_fault_plan () =
  let imp = Implicit.parse "path:19" in
  let _, sources = sources_of imp in
  List.iter
    (fun (bname, src) ->
      let reference = Core.Simulator.run_source Core.Forest_protocol.recognize src in
      transcript_eq
        (bname ^ ": run_source, empty fault plan")
        reference
        (Core.Simulator.run_source ~faults:Core.Faults.empty Core.Forest_protocol.recognize src))
    sources

let test_coalition_run_source_equivalence () =
  let imp = Implicit.parse "regular:20:4:9" in
  let g, sources = sources_of imp in
  let n = Graph.order g in
  List.iter
    (fun parts ->
      let partition = Core.Coalition.partition_by_ranges ~n ~parts in
      let reference = Core.Coalition.run Core.Connectivity_parts.decide g ~parts:partition in
      List.iter
        (fun (bname, src) ->
          transcript_eq
            (Printf.sprintf "coalition/%s/parts=%d" bname parts)
            reference
            (Core.Coalition.run_source Core.Connectivity_parts.decide src ~parts:partition))
        sources)
    [ 1; 4; 7 ]

(* ---------- [src=] decorations under the bound audit ---------- *)

let test_src_label_audit () =
  let budgeted l =
    match Core.Bound_audit.classify_label l with
    | Core.Bound_audit.Budgeted b -> Some b
    | _ -> None
  in
  (* The decoration is budget-transparent: the decorated label carries
     exactly the bare label's budget. *)
  List.iter
    (fun (bare, decorated) ->
      match (budgeted bare, budgeted decorated) with
      | Some b, Some b' ->
        Alcotest.(check bool) (decorated ^ ": same budget") true (b = b')
      | _ -> Alcotest.failf "%s / %s: expected both budgeted" bare decorated)
    [
      ("forest-recognize", "forest-recognize[src=csr]");
      ("forest-reconstruct", "forest-reconstruct[src=implicit:path]");
      ("coalition-connectivity[parts=4]", "coalition-connectivity[parts=4][src=materialized]");
      ("degeneracy-3-reconstruct", "degeneracy-3-reconstruct[src=implicit:degenerate]");
    ];
  (* Exempt stems stay exempt under decoration; the lint's sprintf
     instantiation "%s[src=%s]" -> "[src=]" must classify, not trip. *)
  List.iter
    (fun l ->
      match Core.Bound_audit.classify_label l with
      | Core.Bound_audit.Exempt -> ()
      | Core.Bound_audit.Budgeted _ -> Alcotest.failf "%s: expected Exempt, got Budgeted" l
      | Core.Bound_audit.Malformed r -> Alcotest.failf "%s: expected Exempt, got Malformed %s" l r)
    [ "[src=]"; "square-oracle[src=csr]"; "forest-reconstruct+sealed[src=implicit:path]" ];
  (* Near-miss decorations must be caught, not silently skipped. *)
  List.iter
    (fun l ->
      match Core.Bound_audit.classify_label l with
      | Core.Bound_audit.Malformed _ -> ()
      | _ -> Alcotest.failf "%s: expected Malformed" l)
    [
      "forest-recognize[src=csr]x";
      "forest-recognize[src=CSR]";
      "forest-recognize[src=csr][parts=4]";
      "forest-recognize[src=a b]";
    ]

let () =
  Alcotest.run "graph_source"
    [
      ( "implicit",
        [
          Alcotest.test_case "oracles vs twins" `Quick test_implicit_oracles;
          Alcotest.test_case "regular family" `Quick test_regular_family;
          Alcotest.test_case "degenerate family" `Quick test_degenerate_family;
          Alcotest.test_case "parse errors" `Quick test_implicit_parse_errors;
          Alcotest.test_case "parse_family sizes" `Quick test_parse_family_sizes;
        ] );
      ( "csr",
        [
          Alcotest.test_case "of_edges dedupe + errors" `Quick test_csr_of_edges;
        ] );
      ( "source",
        [
          Alcotest.test_case "parse" `Quick test_source_parse;
          Alcotest.test_case "query agreement" `Quick test_source_queries_agree;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "run_source across backends" `Quick test_run_source_equivalence;
          Alcotest.test_case "run_source empty fault plan" `Quick
            test_run_source_empty_fault_plan;
          Alcotest.test_case "coalition run_source" `Quick test_coalition_run_source_equivalence;
        ] );
      ( "labels",
        [ Alcotest.test_case "[src=] under the audit" `Quick test_src_label_audit ] );
    ]

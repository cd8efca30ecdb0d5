open Refnet_graph

let graph = Alcotest.testable (fun fmt g -> Graph.pp fmt g) Graph.equal

let test_edge_list_roundtrip () =
  let g = Generators.petersen () in
  Alcotest.check graph "roundtrip" g (Gio.of_edge_list (Gio.to_edge_list g));
  let e = Graph.empty 4 in
  Alcotest.check graph "edgeless" e (Gio.of_edge_list (Gio.to_edge_list e))

let test_edge_list_malformed () =
  Alcotest.check_raises "empty" (Invalid_argument "Gio.of_edge_list: empty input") (fun () ->
      ignore (Gio.of_edge_list "  \n "));
  Alcotest.check_raises "count mismatch"
    (Invalid_argument "Gio.of_edge_list: edge count mismatch") (fun () ->
      ignore (Gio.of_edge_list "3 2\n1 2\n"));
  Alcotest.check_raises "bad ints" (Invalid_argument "Gio.of_edge_list: bad integers")
    (fun () -> ignore (Gio.of_edge_list "x y\n"))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_dot_output () =
  let s = Gio.to_dot ~name:"demo" (Graph.of_edges 3 [ (1, 2) ]) in
  Alcotest.(check bool) "header" true (String.length s > 10 && String.sub s 0 10 = "graph demo");
  Alcotest.(check bool) "edge present" true (contains ~needle:"1 -- 2;" s)

let test_graph6_known_values () =
  (* K3 encodes as "Bw" and P3 (1-2-3) as "Bo"? Check against nauty
     conventions: n=3 -> 'B'; K3 upper triangle bits (1,2)(1,3)(2,3) =
     111 -> 111000 -> 56 + 63 = 119 = 'w'. *)
  Alcotest.(check string) "K3" "Bw" (Gio.to_graph6 (Generators.complete 3));
  Alcotest.(check string) "empty n=5" "D??" (Gio.to_graph6 (Graph.empty 5))

let test_graph6_roundtrip_families () =
  List.iter
    (fun g -> Alcotest.check graph "roundtrip" g (Gio.of_graph6 (Gio.to_graph6 g)))
    [
      Generators.petersen ();
      Generators.grid 4 5;
      Generators.complete 7;
      Graph.empty 1;
      Graph.empty 0;
      Generators.cycle 63;
      Generators.path 64;
    ]

let test_graph6_large_n_header () =
  (* n > 62 switches to the 4-byte header. *)
  let g = Generators.path 80 in
  let s = Gio.to_graph6 g in
  Alcotest.(check char) "marker" '~' s.[0];
  Alcotest.check graph "roundtrip" g (Gio.of_graph6 s)

let test_graph6_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Gio.of_graph6: empty input") (fun () ->
      ignore (Gio.of_graph6 ""));
  Alcotest.check_raises "truncated" (Invalid_argument "Gio.of_graph6: truncated input")
    (fun () -> ignore (Gio.of_graph6 "D"))

let gen_graph =
  QCheck2.Gen.(
    bind (int_range 1 40) (fun n ->
        map
          (fun seed -> Refnet_graph.Generators.gnp (Random.State.make [| seed; n |]) n 0.25)
          int))

let prop_graph6_roundtrip =
  QCheck2.Test.make ~name:"graph6 roundtrip" ~count:200 gen_graph (fun g ->
      Graph.equal g (Gio.of_graph6 (Gio.to_graph6 g)))

let prop_edge_list_roundtrip =
  QCheck2.Test.make ~name:"edge list roundtrip" ~count:200 gen_graph (fun g ->
      Graph.equal g (Gio.of_edge_list (Gio.to_edge_list g)))

let prop_graph6_length =
  QCheck2.Test.make ~name:"graph6 length is header + ceil(C(n,2)/6)" ~count:200 gen_graph
    (fun g ->
      let n = Graph.order g in
      let header = if n <= 62 then 1 else 4 in
      String.length (Gio.to_graph6 g) = header + ((n * (n - 1) / 2) + 5) / 6)

(* ---------- streaming edge-list files ---------- *)

let with_temp_file contents f =
  let path = Filename.temp_file "refnet_gio" ".edges" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match contents with
      | Some s ->
        let oc = open_out path in
        output_string oc s;
        close_out oc
      | None -> ());
      f path)

let expect_invalid_with ~needle f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument carrying %S" needle
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "message %S carries %S" msg needle)
      true (contains ~needle msg)

let test_file_roundtrip () =
  List.iter
    (fun g ->
      with_temp_file None (fun path ->
          Gio.to_edge_list_file path g;
          Alcotest.check graph "graph_of_file" g (Gio.graph_of_file path)))
    [ Generators.grid 5 7; Generators.petersen (); Graph.empty 4 ]

let test_file_blank_lines () =
  with_temp_file (Some "3 2\n\n1 2\n   \n2 3\n") (fun path ->
      Alcotest.check graph "blank lines skipped"
        (Graph.of_edges 3 [ (1, 2); (2, 3) ])
        (Gio.graph_of_file path))

(* Edge lists written on other platforms: CRLF endings, tab separators,
   runs of spaces and trailing blanks must load identically to native
   files — both through the streaming loader and the string parser. *)
let test_file_foreign_whitespace () =
  let expected = Graph.of_edges 3 [ (1, 2); (2, 3) ] in
  List.iter
    (fun (label, contents) ->
      with_temp_file (Some contents) (fun path ->
          Alcotest.check graph (label ^ " (file)") expected (Gio.graph_of_file path));
      Alcotest.check graph (label ^ " (string)") expected (Gio.of_edge_list contents))
    [
      ("crlf", "3 2\r\n1 2\r\n2 3\r\n");
      ("tabs", "3\t2\n1\t2\n2\t3\n");
      ("trailing blanks", "3 2  \n1 2 \n2 3\t\n");
      ("mixed runs", "3 \t 2\r\n1  \t2  \r\n2 \t\t3\n");
      ("no final newline", "3 2\r\n1 2\r\n2 3");
    ]

(* Parse and consumer errors carry the offending file:line. *)
let test_file_errors_carry_line_numbers () =
  let cases =
    [
      ("3 1\n1 2\nx y\n", ":3: expected two integers");
      ("3 1\n1 2 3\n", ":2: expected two fields");
      ("-1 0\n", ":1: negative order or size in header");
      ("3 2\n1 2\n", "edge count mismatch (header says 2, found 1)");
      ("3 1\n1 9\n", ":2: ");
      ("3 1\n2 2\n", ":2: ");
      ("", "empty input");
      (" \n\n", "empty input");
    ]
  in
  List.iter
    (fun (contents, needle) ->
      with_temp_file (Some contents) (fun path ->
          expect_invalid_with ~needle (fun () -> ignore (Gio.graph_of_file path))))
    cases

let test_file_loader_agrees () =
  (* The streaming file loader and the in-memory parser agree on a
     random graph's file. *)
  let g = Generators.gnp (Random.State.make [| 3; 14 |]) 60 0.1 in
  with_temp_file None (fun path ->
      Gio.to_edge_list_file path g;
      let via_string = Gio.of_edge_list (Gio.to_edge_list g) in
      Alcotest.check graph "string vs file" via_string (Gio.graph_of_file path))

let () =
  Alcotest.run "gio"
    [
      ( "edge list / dot",
        [
          Alcotest.test_case "roundtrip" `Quick test_edge_list_roundtrip;
          Alcotest.test_case "malformed" `Quick test_edge_list_malformed;
          Alcotest.test_case "dot output" `Quick test_dot_output;
        ] );
      ( "graph6",
        [
          Alcotest.test_case "known values" `Quick test_graph6_known_values;
          Alcotest.test_case "family roundtrips" `Quick test_graph6_roundtrip_families;
          Alcotest.test_case "large n header" `Quick test_graph6_large_n_header;
          Alcotest.test_case "invalid input" `Quick test_graph6_invalid;
        ] );
      ( "streaming files",
        [
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "blank lines" `Quick test_file_blank_lines;
          Alcotest.test_case "foreign whitespace" `Quick test_file_foreign_whitespace;
          Alcotest.test_case "errors carry line numbers" `Quick
            test_file_errors_carry_line_numbers;
          Alcotest.test_case "loader agreement" `Quick test_file_loader_agrees;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_graph6_roundtrip; prop_edge_list_roundtrip; prop_graph6_length ] );
    ]

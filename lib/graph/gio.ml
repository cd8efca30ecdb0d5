let to_edge_list g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Graph.order g) (Graph.size g));
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

(* Fields separated by any run of spaces, tabs or stray carriage
   returns: edge lists written on other platforms (CRLF endings,
   tab-separated columns, trailing blanks) load identically to native
   ones instead of failing mid-file. *)
let fields line =
  let is_ws c = c = ' ' || c = '\t' || c = '\r' in
  let len = String.length line in
  let rec go i acc =
    if i >= len then List.rev acc
    else if is_ws line.[i] then go (i + 1) acc
    else begin
      let j = ref i in
      while !j < len && not (is_ws line.[!j]) do
        incr j
      done;
      go !j (String.sub line i (!j - i) :: acc)
    end
  in
  go 0 []

let of_edge_list s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> invalid_arg "Gio.of_edge_list: empty input"
  | header :: rest ->
    let parse_pair line =
      match fields line with
      | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b -> (a, b)
        | _ -> invalid_arg "Gio.of_edge_list: bad integers")
      | _ -> invalid_arg "Gio.of_edge_list: expected two fields"
    in
    let n, m = parse_pair header in
    let edges = List.map parse_pair rest in
    if List.length edges <> m then invalid_arg "Gio.of_edge_list: edge count mismatch";
    Graph.of_edges n edges

(* ---------- streaming edge-list files ---------- *)

(* One pass over [path]: header callback once, edge callback per line,
   in file order.  Memory is one line at a time; errors carry
   [path:line:] so a bad row in a million-line file is findable. *)
let iter_edge_list_file path ~header ~edge =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lineno = ref 0 in
      let parse_line line =
        match fields line with
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> Some (a, b)
          | _ -> invalid_arg (Printf.sprintf "%s:%d: expected two integers" path !lineno))
        | [] -> None (* blank line *)
        | _ -> invalid_arg (Printf.sprintf "%s:%d: expected two fields" path !lineno)
      in
      let next () =
        match input_line ic with
        | line ->
          incr lineno;
          Some line
        | exception End_of_file -> None
      in
      let rec first_pair () =
        match next () with
        | None -> invalid_arg (Printf.sprintf "%s: empty input" path)
        | Some line -> ( match parse_line line with Some p -> p | None -> first_pair ())
      in
      let n, m = first_pair () in
      if n < 0 || m < 0 then
        invalid_arg (Printf.sprintf "%s:%d: negative order or size in header" path !lineno);
      header ~n ~m;
      let edges = ref 0 in
      let rec go () =
        match next () with
        | None -> ()
        | Some line ->
          (match parse_line line with
          | Some (u, v) -> (
            incr edges;
            (* Re-anchor consumer rejections (range, self-loop) to the
               offending line. *)
            try edge u v
            with Invalid_argument msg ->
              invalid_arg (Printf.sprintf "%s:%d: %s" path !lineno msg))
          | None -> ());
          go ()
      in
      go ();
      if !edges <> m then
        invalid_arg
          (Printf.sprintf "%s: edge count mismatch (header says %d, found %d)" path m !edges))

let graph_of_file path =
  (* Two streaming passes feed the CSR builder directly: no edge set, no
     edge list — peak extra memory is one input line plus the builder's
     cursors. *)
  let builder = ref None in
  iter_edge_list_file path
    ~header:(fun ~n ~m:_ -> builder := Some (Csr.Builder.create n))
    ~edge:(fun u v ->
      match !builder with Some b -> Csr.Builder.count b u v | None -> ());
  match !builder with
  | None -> invalid_arg (Printf.sprintf "%s: empty input" path)
  | Some b ->
    Csr.Builder.freeze b;
    iter_edge_list_file path ~header:(fun ~n:_ ~m:_ -> ()) ~edge:(Csr.Builder.fill b);
    Csr.Builder.finish b

let to_edge_list_file path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "%d %d\n" (Graph.order g) (Graph.size g);
      Graph.iter_edges g (fun u v -> Printf.fprintf oc "%d %d\n" u v))

let to_dot ?(name = "G") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  List.iter (fun v -> Buffer.add_string buf (Printf.sprintf "  %d;\n" v)) (Graph.vertices g);
  Graph.iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* graph6: N(n) header then the upper triangle read column by column
   ((1,2), (1,3), (2,3), (1,4), ...), packed 6 bits per character with
   offset 63. *)

let graph6_header n =
  if n < 0 then invalid_arg "Gio.to_graph6: negative order";
  if n <= 62 then String.make 1 (Char.chr (n + 63))
  else if n <= 258047 then begin
    let b = Bytes.create 4 in
    Bytes.set b 0 (Char.chr 126);
    Bytes.set b 1 (Char.chr (((n lsr 12) land 63) + 63));
    Bytes.set b 2 (Char.chr (((n lsr 6) land 63) + 63));
    Bytes.set b 3 (Char.chr ((n land 63) + 63));
    Bytes.to_string b
  end
  else invalid_arg "Gio.to_graph6: order too large"

let to_graph6 g =
  let n = Graph.order g in
  let header = graph6_header n in
  (* Set the bit of each edge (u < v) at its position
     (v-1)(v-2)/2 + u-1 in that order, MSB first within each 6-bit
     group: O(n^2 / 6) output bytes, O(m) edge work. *)
  let body = Bytes.make (((n * (n - 1) / 2) + 5) / 6) '\000' in
  Graph.iter_edges g (fun u v ->
      let pos = ((v - 1) * (v - 2) / 2) + (u - 1) in
      let i = pos / 6 in
      Bytes.set body i (Char.chr (Char.code (Bytes.get body i) lor (1 lsl (5 - (pos mod 6))))));
  header ^ Bytes.to_string (Bytes.map (fun c -> Char.chr (Char.code c + 63)) body)

let of_graph6 s =
  let len = String.length s in
  if len = 0 then invalid_arg "Gio.of_graph6: empty input";
  let byte i =
    if i >= len then invalid_arg "Gio.of_graph6: truncated input";
    let c = Char.code s.[i] - 63 in
    if c < 0 || c > 63 then invalid_arg "Gio.of_graph6: invalid character";
    c
  in
  let n, start =
    if s.[0] = '~' then begin
      if len >= 2 && s.[1] = '~' then invalid_arg "Gio.of_graph6: order too large"
      else (((byte 1 lsl 12) lor (byte 2 lsl 6) lor byte 3), 4)
    end
    else (byte 0, 1)
  in
  let b = Graph.Builder.create n in
  let idx = ref 0 in
  let bit pos = byte (start + (pos / 6)) land (1 lsl (5 - (pos mod 6))) <> 0 in
  for v = 2 to n do
    for u = 1 to v - 1 do
      if bit !idx then Graph.Builder.add_edge b u v;
      incr idx
    done
  done;
  Graph.Builder.build b

(* The run loops against an independent reference.

   Every one-round entry point runs through one delivery loop, and
   every multi-round one through the Bcc round loop; chunking, pool
   width and the fault channel are independent axes of that schedule.
   The reference below shares none of the loops' code: views are built
   directly with [View.make], the fault channel is a list-lookup
   reimplementation of [Faults.apply], and the referee absorbs the
   deliveries in order through [Protocol.run_referee] /
   [Protocol.feed].  Every engine run, at every chunk size, width and
   backend, with and without faults, must reproduce its output and
   transcript exactly — in particular a chunked faulty run equals the
   unchunked faulty one. *)

open Refnet_bits
open Refnet_graph

(* ---------- reference fault channel ---------- *)

let reference_apply plan msgs =
  let entries = Core.Faults.to_list plan in
  let n = Array.length msgs in
  let deliveries = ref [] and injected = ref [] in
  let deliver id m = deliveries := (id, m) :: !deliveries in
  for id = 1 to n do
    let m = msgs.(id - 1) in
    match List.assoc_opt id entries with
    | None -> deliver id m
    | Some f -> (
      injected := (id, f) :: !injected;
      let len = Bitvec.length m in
      match f with
      | Core.Faults.Crash -> ()
      | Core.Faults.Truncate keep ->
        let out = Bitvec.create (min keep len) in
        for i = 0 to Bitvec.length out - 1 do
          Bitvec.assign out i (Bitvec.get m i)
        done;
        deliver id out
      | Core.Faults.Flip ps ->
        let out = Bitvec.copy m in
        if len > 0 then
          List.iter (fun p -> Bitvec.assign out (p mod len) (not (Bitvec.get out (p mod len)))) ps;
        deliver id out
      | Core.Faults.Duplicate ->
        deliver id m;
        deliver id m
      | Core.Faults.Spoof j -> if j >= 1 && j <= n && j <> id then deliver j m)
  done;
  (List.rev !deliveries, List.rev !injected)

let random_message rng =
  let len = Random.State.int rng 40 in
  let m = Bitvec.create len in
  for i = 0 to len - 1 do
    if Random.State.bool rng then Bitvec.set m i
  done;
  m

let same_deliveries a b =
  List.length a = List.length b
  && List.for_all2 (fun (i, m) (j, m') -> i = j && Core.Message.equal m m') a b

let test_apply_matches_reference () =
  let rng = Random.State.make [| 2024 |] in
  for trial = 0 to 199 do
    let n = Random.State.int rng 30 in
    let msgs = Array.init n (fun _ -> random_message rng) in
    (* Plans drawn for a larger network reach past [n] (out of scope)
       and spoof into ids outside [1..n]. *)
    let plan =
      if trial mod 3 = 0 then
        Core.Faults.of_list
          (List.filter_map
             (fun id ->
               match Random.State.int rng 6 with
               | 0 -> Some (id, Core.Faults.Crash)
               | 1 -> Some (id, Core.Faults.Truncate (Random.State.int rng 50))
               | 2 ->
                 Some (id, Core.Faults.Flip [ Random.State.int rng 64; Random.State.int rng 64 ])
               | 3 -> Some (id, Core.Faults.Duplicate)
               | 4 -> Some (id, Core.Faults.Spoof (1 + Random.State.int rng (n + 5)))
               | _ -> None)
             (List.init (n + 6) (fun i -> i + 1)))
      else
        Core.Faults.random ~seed:trial ~n:(n + 4) ~crash:0.15 ~truncate:0.15 ~flip:0.15
          ~flip_bits:3 ~duplicate:0.15 ~spoof:0.15 ()
    in
    let d, i = Core.Faults.apply plan msgs in
    let d', i' = reference_apply plan msgs in
    Alcotest.(check bool) (Printf.sprintf "trial %d: deliveries" trial) true (same_deliveries d d');
    Alcotest.(check bool) (Printf.sprintf "trial %d: injections" trial) true (i = i');
    (* The chunk walk, resumed from each returned suffix, is the same
       channel. *)
    let chunk = 1 + Random.State.int rng 8 in
    let rec walk base plan acc_d acc_i =
      if base >= n then (List.concat (List.rev acc_d), List.concat (List.rev acc_i))
      else begin
        let len = min chunk (n - base) in
        let d, i, rest = Core.Faults.apply_chunk plan ~n ~base (Array.sub msgs base len) in
        walk (base + len) rest (d :: acc_d) (i :: acc_i)
      end
    in
    let cd, ci = walk 0 plan [] [] in
    Alcotest.(check bool) (Printf.sprintf "trial %d: chunked deliveries" trial) true
      (same_deliveries cd d');
    Alcotest.(check bool) (Printf.sprintf "trial %d: chunked injections" trial) true (ci = i')
  done

let test_apply_linear () =
  let n = 100_000 in
  let msgs = Array.make n Core.Message.empty in
  let plan = Core.Faults.random ~seed:7 ~n ~crash:0.3 () in
  let t0 = Unix.gettimeofday () in
  let deliveries, injected = Core.Faults.apply plan msgs in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "every message delivered or crashed" n
    (List.length deliveries + List.length injected);
  if dt >= 1.0 then Alcotest.failf "Faults.apply at n = %d, 30%% crash took %.2f s" n dt

(* ---------- reference runs ---------- *)

let views src =
  let n = Graph_source.order src in
  Array.init n (fun i ->
      Core.View.make ~n ~id:(i + 1) ~neighbors:(Graph_source.neighbors src (i + 1)))

let one_round_reference ~faults referee msgs =
  let n = Array.length msgs in
  let deliveries, injected = reference_apply faults msgs in
  let out =
    if Core.Faults.is_empty faults then Core.Protocol.run_referee referee ~n msgs
    else
      Core.Protocol.finish
        (List.fold_left
           (fun f (id, m) -> Core.Protocol.feed f ~id m)
           (Core.Protocol.start referee ~n) deliveries)
  in
  ( out,
    { (Core.Simulator.transcript_of_messages msgs) with
      Core.Simulator.faulted_ids = List.map fst injected
    } )

let simulator_reference ~faults (p : 'a Core.Protocol.t) src =
  one_round_reference ~faults p.Core.Protocol.referee (Array.map p.Core.Protocol.local (views src))

let coalition_reference ~faults (p : 'a Core.Coalition.t) src ~parts =
  let n = Graph_source.order src in
  let inbox = Array.make n Core.Message.empty in
  List.iter
    (fun members ->
      let members = List.sort compare members in
      let view =
        {
          Core.Coalition.members;
          neighborhoods = List.map (fun v -> (v, Graph_source.neighbors src v)) members;
        }
      in
      List.iter (fun (id, m) -> inbox.(id - 1) <- m) (p.Core.Coalition.local ~n view))
    parts;
  one_round_reference ~faults p.Core.Coalition.referee inbox

let bcc_reference ~faults (p : 'a Core.Bcc.t) src =
  let n = Graph_source.order src in
  let rounds = p.Core.Bcc.budget.Core.Bcc.rounds in
  let states = Array.map p.Core.Bcc.init (views src) in
  let per_max = Array.make rounds 0 and per_total = Array.make rounds 0 in
  let bcast = Array.make (max 0 (rounds - 1)) 0 in
  let faulted = ref [] in
  match p.Core.Bcc.referee with
  | Core.Bcc.Referee r ->
    let st = ref (r.Core.Bcc.r_init ~n) in
    for round = 1 to rounds do
      let msgs =
        Array.mapi
          (fun i s ->
            let m, s' = p.Core.Bcc.send ~round s in
            states.(i) <- s';
            m)
          states
      in
      Array.iter
        (fun m ->
          let b = Core.Message.bits m in
          per_max.(round - 1) <- max per_max.(round - 1) b;
          per_total.(round - 1) <- per_total.(round - 1) + b)
        msgs;
      let deliveries, injected = reference_apply faults msgs in
      faulted := List.map fst injected @ !faulted;
      List.iter (fun (id, m) -> st := r.Core.Bcc.r_absorb ~n ~round !st ~id m) deliveries;
      if round < rounds then begin
        let st', reply = r.Core.Bcc.r_broadcast ~n ~round !st in
        st := st';
        bcast.(round - 1) <- Core.Message.bits reply;
        Array.iteri (fun i s -> states.(i) <- p.Core.Bcc.receive ~round ~broadcast:reply s) states
      end
    done;
    ( r.Core.Bcc.r_finish ~n !st,
      {
        Core.Bcc.rounds;
        bits_limit = p.Core.Bcc.budget.Core.Bcc.bits_per_round n;
        per_round_max_bits = per_max;
        per_round_total_bits = per_total;
        broadcast_bits = bcast;
        max_bits = Array.fold_left max 0 per_max;
        total_bits = Array.fold_left ( + ) 0 per_total;
        faulted_ids = List.sort_uniq compare !faulted;
      } )

(* ---------- the matrix ---------- *)

let backends spec =
  let imp = Implicit.parse spec in
  let g = Implicit.materialize imp in
  [
    ("materialized", Graph_source.of_graph g);
    ("implicit", Graph_source.of_implicit imp);
  ]

let specs = [ "path:29"; "cycle:24"; "grid:4x6"; "degenerate:31:3:5" ]

let plans ~n =
  [
    ("no faults", Core.Faults.empty);
    ( "random faults",
      Core.Faults.random ~seed:n ~n ~crash:0.1 ~truncate:0.1 ~flip:0.1 ~flip_bits:2
        ~duplicate:0.1 ~spoof:0.1 () );
  ]

let chunks ~n = [ None; Some 1; Some 7; Some n; Some (n + 5) ]

let widths = [ 1; 4 ]

let matrix f =
  List.iter
    (fun spec ->
      List.iter
        (fun (backend, src) ->
          let n = Graph_source.order src in
          List.iter
            (fun (fname, faults) -> f (Printf.sprintf "%s/%s/%s" spec backend fname) ~n ~faults src)
            (plans ~n))
        (backends spec))
    specs

let chunk_tag = function None -> "unchunked" | Some c -> Printf.sprintf "chunk=%d" c

let check_simulator pname (p : 'a Core.Protocol.t) norm =
  matrix (fun tag ~n ~faults src ->
      let out0, t0 = simulator_reference ~faults p src in
      List.iter
        (fun chunk ->
          List.iter
            (fun domains ->
              let out, t = Core.Simulator.run_source ~faults ~domains ?chunk p src in
              let name = Printf.sprintf "%s %s %s width=%d" pname tag (chunk_tag chunk) domains in
              Alcotest.(check bool) (name ^ ": output") true (norm out = norm out0);
              Alcotest.(check bool) (name ^ ": transcript") true (t = t0))
            widths)
        (chunks ~n))

let test_simulator_matrix () =
  check_simulator "forest" Core.Forest_protocol.hardened
    (Core.Verdict.map (Option.map Graph.edges));
  check_simulator "edge-count" (Core.Protocol.harden Core.Easy_protocols.edge_count) Fun.id

let test_coalition_matrix () =
  matrix (fun tag ~n ~faults src ->
      let parts = Core.Coalition.partition_by_ranges ~n ~parts:3 in
      let p = Core.Connectivity_parts.hardened in
      let out0, t0 = coalition_reference ~faults p src ~parts in
      let out, t = Core.Coalition.run_source ~faults p src ~parts in
      Alcotest.(check bool) (tag ^ ": output") true (out = out0);
      Alcotest.(check bool) (tag ^ ": transcript") true (t = t0))

let test_bcc_matrix () =
  matrix (fun tag ~n ~faults src ->
      let p = Core.Bcc_connectivity.hardened ~rounds:3 ~bandwidth:1 () in
      let out0, t0 = bcc_reference ~faults p src in
      List.iter
        (fun chunk ->
          List.iter
            (fun domains ->
              let out, t = Core.Bcc.run_source ~faults ~domains ?chunk p src in
              let name = Printf.sprintf "%s %s width=%d" tag (chunk_tag chunk) domains in
              Alcotest.(check bool) (name ^ ": output") true (out = out0);
              Alcotest.(check bool) (name ^ ": transcript") true (t = t0))
            widths)
        (chunks ~n))

(* ---------- chunk sizes below 1 ---------- *)

let check_rejects ~naming f =
  match f () with
  | _ -> Alcotest.failf "%s accepted a chunk size below 1" naming
  | exception Invalid_argument msg ->
    let contains s sub =
      let ls = String.length s and lb = String.length sub in
      let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) (Printf.sprintf "%S names %s" msg naming) true (contains msg naming)

let test_chunk_below_one_rejected () =
  let src = Graph_source.of_implicit (Implicit.parse "path:12") in
  let g = Implicit.materialize (Implicit.parse "path:12") in
  let bcc = Core.Bcc_connectivity.protocol ~rounds:2 ~bandwidth:1 () in
  List.iter
    (fun chunk ->
      check_rejects ~naming:"Simulator.run_source" (fun () ->
          Core.Simulator.run_source ~chunk Core.Forest_protocol.recognize src);
      check_rejects ~naming:"Bcc.run_source" (fun () -> Core.Bcc.run_source ~chunk bcc src);
      check_rejects ~naming:"Bcc.run" (fun () -> Core.Bcc.run ~chunk bcc g))
    [ 0; -1 ]

let test_cli_chunk_below_one_is_usage_error () =
  (* cmdliner's usage-error exit, from the positive-int converter. *)
  let refnet =
    Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat ".." "bin/refnet.exe")
  in
  List.iter
    (fun args ->
      let code = Sys.command (Filename.quote refnet ^ " " ^ args ^ " > /dev/null 2>&1") in
      Alcotest.(check int) args 124 code)
    [
      "sweep --sizes 8 --chunk 0";
      "sweep --sizes 8 --source implicit:path --chunk 0";
      "bcc --source implicit:cycle -n 16 --chunk 0";
    ]

(* The retired [csr] backend spec: both commands that take [--source]
   stop before running, with one error line (the top-level catch's exit
   2) naming the accepted specs, and print nothing to stdout. *)
let test_cli_rejects_csr_source () =
  let refnet =
    Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat ".." "bin/refnet.exe")
  in
  let out = Filename.temp_file "refnet_cli" ".out" and err = Filename.temp_file "refnet_cli" ".err" in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      List.iter
        (fun args ->
          let code =
            Sys.command
              (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote refnet) args (Filename.quote out)
                 (Filename.quote err))
          in
          Alcotest.(check int) (args ^ ": exit") 2 code;
          Alcotest.(check string) (args ^ ": no output") "" (read out);
          match String.split_on_char '\n' (String.trim (read err)) with
          | [ line ] ->
            let has needle =
              let n = String.length needle in
              let rec go i =
                i + n <= String.length line && (String.sub line i n = needle || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool) (line ^ ": names the accepted specs") true
              (has "materialized" && has "implicit:")
          | lines -> Alcotest.failf "%s: expected one error line, got %d" args (List.length lines))
        [ "sweep --sizes 8 --source csr"; "bcc --source csr -n 16" ])

let () =
  Alcotest.run "engine"
    [
      ( "channel",
        [
          Alcotest.test_case "apply matches the list reference" `Quick test_apply_matches_reference;
          Alcotest.test_case "apply is linear (n = 10^5, 30% crash)" `Quick test_apply_linear;
        ] );
      ( "differential",
        [
          Alcotest.test_case "simulator" `Quick test_simulator_matrix;
          Alcotest.test_case "coalition" `Quick test_coalition_matrix;
          Alcotest.test_case "bcc" `Quick test_bcc_matrix;
        ] );
      ( "chunk",
        [
          Alcotest.test_case "below 1 is rejected" `Quick test_chunk_below_one_rejected;
          Alcotest.test_case "CLI rejects below 1" `Quick test_cli_chunk_below_one_is_usage_error;
        ] );
      ( "source",
        [ Alcotest.test_case "CLI rejects the csr spec" `Quick test_cli_rejects_csr_source ] );
    ]

open Refnet_graph

type transcript = {
  n : int;
  message_bits : int array;
  max_bits : int;
  total_bits : int;
  faulted_ids : int list;
}

let transcript_of_bits ~faulted_ids message_bits =
  {
    n = Array.length message_bits;
    message_bits;
    max_bits = Array.fold_left max 0 message_bits;
    total_bits = Array.fold_left ( + ) 0 message_bits;
    faulted_ids;
  }

(* The engine-side view constructor: one view record per node, backed
   directly by the source's neighbour slice — zero per-node copies for
   the materialized backend, one fresh run for implicit ones. *)
let view_of src ~n i =
  let nbrs, off, len = Graph_source.neighbors_slice src (i + 1) in
  View.of_slice ~n ~id:(i + 1) nbrs ~off ~len

let query_total (c : View.counts) = c.id_reads + c.n_reads + c.deg_reads + c.neighbor_reads

let maybe_time metrics name f =
  match metrics with Some m -> Metrics.time m name f | None -> f ()

let observe_source metrics src =
  match (metrics, src) with
  | Some m, Some src ->
    Metrics.Counter.incr
      (Metrics.Counter.counter m
         (Metrics.series "refnet_source_runs_total" [ ("backend", Graph_source.backend src) ]))
  | _ -> ()

(* [src=<backend>] is appended outermost — outside [parts=] / [round=]
   and the +sealed/+hardened suffixes — and peeled first by
   {!Bound_audit.classify_label}, so backend-tagged runs audit under the
   same budget as their bare twins while staying distinguishable in
   [refnet report]. *)
let label name ~tags ~src =
  let tags = List.map (fun (k, v) -> Printf.sprintf "[%s=%d]" k v) tags in
  let src = List.map (fun s -> "[src=" ^ Graph_source.backend s ^ "]") (Option.to_list src) in
  String.concat "" ((name :: tags) @ src)

let observe_messages metrics msgs =
  match metrics with
  | None -> ()
  | Some m ->
    Metrics.Counter.add (Metrics.Counter.counter m "refnet_messages_total") (Array.length msgs);
    let bits = Metrics.Histogram.histogram m "refnet_message_bits" in
    Array.iter (fun msg -> Metrics.Histogram.observe bits (Message.bits msg)) msgs

let observe_transcript metrics ~max_bits ~total_bits =
  match metrics with
  | None -> ()
  | Some m ->
    Metrics.Counter.incr (Metrics.Counter.counter m "refnet_runs_total");
    Metrics.Histogram.observe (Metrics.Histogram.histogram m "refnet_run_max_bits") max_bits;
    Metrics.Counter.add (Metrics.Counter.counter m "refnet_run_bits_total") total_bits

let chunk_size ~entry ~n = function
  | None -> max n 1
  | Some c when c < 1 -> invalid_arg (Printf.sprintf "%s: chunk must be at least 1, got %d" entry c)
  | Some c -> c

let count_absorbs metrics k =
  match metrics with
  | Some m -> Metrics.Counter.add (Metrics.Counter.counter m "refnet_absorbs_total") k
  | None -> ()

let absorb_traced ~trace absorb id msg =
  absorb id msg;
  if not (Trace.is_null trace) then
    Trace.emit trace (Trace.Referee_absorb { id; bits = Message.bits msg })

(* Message {e production} is never touched by the channel: callers
   record bits before this step, so the transcript measures what nodes
   sent and an empty plan is the identity delivery. *)
let deliver ~trace ~metrics plan ~n ~base msgs absorb =
  let len = Array.length msgs in
  match Faults.to_list plan with
  | (j, _) :: _ when j <= base + len ->
    let deliveries, injected, rest = Faults.apply_chunk plan ~n ~base msgs in
    (match metrics with
    | Some m when injected <> [] ->
      Metrics.Counter.add
        (Metrics.Counter.counter m "refnet_faults_injected_total")
        (List.length injected)
    | _ -> ());
    if not (Trace.is_null trace) then
      List.iter (fun (id, fault) -> Trace.emit trace (Trace.Fault_injected { id; fault })) injected;
    List.iter (fun (id, msg) -> absorb_traced ~trace absorb id msg) deliveries;
    count_absorbs metrics (List.length deliveries);
    (rest, List.map fst injected)
  | _ ->
    Array.iteri (fun i msg -> absorb_traced ~trace absorb (base + i + 1) msg) msgs;
    count_absorbs metrics len;
    (plan, [])

(* Chunk by chunk — unchunked is one chunk of [n]: produce the chunk's
   messages, record their bits, run them through the channel in sender
   order, absorb, release.  Live message storage is O(chunk); the
   transcript keeps every length in an int array.  The referee's
   [finish] is timed with the last chunk's absorbs. *)
let one_round ~entry ~chunk ~faults ~arrival ~trace ~metrics ~label ~n ~produce referee =
  let chunk = chunk_size ~entry ~n chunk in
  Trace.emit trace (Trace.Span_begin { label; n });
  let message_bits = Array.make n 0 in
  let absorb, finish = Protocol.absorber ~metrics referee ~n in
  let rec go base plan hits =
    let len = min chunk (n - base) in
    let msgs = maybe_time metrics "refnet_local_phase" (fun () -> produce ~base ~len) in
    Array.iteri (fun i msg -> message_bits.(base + i) <- Message.bits msg) msgs;
    observe_messages metrics msgs;
    let step () =
      match arrival with
      | Some order ->
        Array.iter (fun id -> absorb_traced ~trace absorb id msgs.(id - 1)) order;
        count_absorbs metrics (Array.length order);
        (plan, [])
      | None -> deliver ~trace ~metrics plan ~n ~base msgs absorb
    in
    if base + len >= n then
      maybe_time metrics "refnet_referee_phase" (fun () ->
          let _, hit = step () in
          (finish (), List.concat (List.rev (hit :: hits))))
    else begin
      let plan, hit = maybe_time metrics "refnet_referee_phase" step in
      go (base + len) plan (hit :: hits)
    end
  in
  let out, faulted_ids = go 0 faults [] in
  let t = transcript_of_bits ~faulted_ids message_bits in
  observe_transcript metrics ~max_bits:t.max_bits ~total_bits:t.total_bits;
  Trace.emit trace
    (Trace.Referee_done { label; n; max_bits = t.max_bits; total_bits = t.total_bits });
  Trace.emit trace (Trace.Span_end { label; n });
  (out, t)

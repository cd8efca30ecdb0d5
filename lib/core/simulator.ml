open Refnet_graph

type transcript = Run_loop.transcript = {
  n : int;
  message_bits : int array;
  max_bits : int;
  total_bits : int;
  faulted_ids : int list;
}

let transcript_of_messages msgs =
  Run_loop.transcript_of_bits ~faulted_ids:[] (Array.map Message.bits msgs)

(* The model makes the local phase embarrassingly parallel: each node's
   message depends only on its view.  Messages land in their slot by
   identifier, so the vector — and hence the transcript — is
   bit-identical to a sequential run at any domain count and over any
   backend presenting the same labelled graph.  When observed, the views
   are prebuilt so their audit tallies survive the parallel section;
   events and metrics are recorded from the submitting domain only,
   after the batch completes, in identifier order.  [order], when given,
   is the (1-based) evaluation order of the chunk's nodes. *)
let local_chunk ?domains ?order ~trace ~metrics (p : 'a Protocol.t) src ~n ~base ~len =
  if order = None && Trace.is_null trace && metrics = None then
    Parallel.init ?domains len (fun i -> p.local (Run_loop.view_of src ~n (base + i)))
  else begin
    let views = Array.init len (fun i -> Run_loop.view_of src ~n (base + i)) in
    let msgs =
      match order with
      | None -> Parallel.init ?domains ?metrics len (fun i -> p.local views.(i))
      | Some order ->
        let msgs = Array.make len Message.empty in
        Parallel.iter_range ?domains ?metrics len (fun i ->
            let k = order.(i) - 1 in
            msgs.(k) <- p.local views.(k));
        msgs
    in
    if not (Trace.is_null trace) then
      Array.iteri
        (fun i msg ->
          Trace.emit trace
            (Trace.Node_local
               { id = base + i + 1; bits = Message.bits msg; queries = View.audit views.(i) }))
        msgs;
    (match metrics with
    | Some m ->
      let queries = Metrics.Histogram.histogram m "refnet_view_queries" in
      Array.iter
        (fun v -> Metrics.Histogram.observe queries (Run_loop.query_total (View.audit v)))
        views
    | None -> ());
    msgs
  end

let local_phase_source ?domains ?(trace = Trace.null) ?metrics p src =
  let n = Graph_source.order src in
  let msgs = local_chunk ?domains ~trace ~metrics p src ~n ~base:0 ~len:n in
  Run_loop.observe_messages metrics msgs;
  msgs

let local_phase ?domains ?trace ?metrics p g =
  local_phase_source ?domains ?trace ?metrics p (Graph_source.of_graph g)

let execute ?domains ?chunk ?order ?arrival ~faults ~entry ~trace ~metrics ~tag (p : 'a Protocol.t)
    src =
  let n = Graph_source.order src in
  Run_loop.observe_source metrics tag;
  Run_loop.one_round ~entry ~chunk ~faults ~arrival ~trace ~metrics
    ~label:(Run_loop.label p.name ~tags:[] ~src:tag)
    ~n
    ~produce:(local_chunk ?domains ?order ~trace ~metrics p src ~n)
    p.referee

let run ?(faults = Faults.empty) ?domains ?(trace = Trace.null) ?metrics p g =
  execute ?domains ~faults ~entry:"Simulator.run" ~trace ~metrics ~tag:None p
    (Graph_source.of_graph g)

let run_source ?(faults = Faults.empty) ?domains ?chunk ?(trace = Trace.null) ?metrics p src =
  execute ?domains ?chunk ~faults ~entry:"Simulator.run_source" ~trace ~metrics ~tag:(Some src) p
    src

let shuffled rng n =
  let a = Array.init n (fun i -> i + 1) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Compute in one random order (interleaved across domains), deliver in
   another: the streaming referee absorbs each message as it arrives,
   and its output must not depend on arrival order (one message per
   node, sender identified). *)
let run_async ?rng ?domains ?(trace = Trace.null) ?metrics p g =
  let rng = match rng with Some r -> r | None -> Random.State.make [| 0x5eed |] in
  let n = Graph.order g in
  let order = shuffled rng n in
  let arrival = shuffled rng n in
  execute ?domains ~order ~arrival ~faults:Faults.empty ~entry:"Simulator.run_async" ~trace
    ~metrics ~tag:None p (Graph_source.of_graph g)

let is_frugal t ~c = t.max_bits <= c * Bounds.id_bits t.n

let frugality_ratio t =
  if t.n = 0 then 0.0 else float_of_int t.max_bits /. float_of_int (Bounds.id_bits t.n)

let pp_transcript fmt t =
  Format.fprintf fmt "n=%d max=%d bits total=%d bits (%.2f x log n)" t.n t.max_bits
    t.total_bits (frugality_ratio t);
  match t.faulted_ids with
  | [] -> ()
  | ids -> Format.fprintf fmt " faults=%d" (List.length ids)

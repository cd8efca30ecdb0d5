(** Protocol execution over a concrete network.

    The simulator enforces the model's information boundary: the local
    phase builds each node's {!View} — the engine is the only place
    views of real nodes are constructed — and the referee phase streams
    the message vector into the protocol's referee.  Message lengths are
    recorded exactly, in bits.

    Every entry point takes an optional {!Trace.sink}; the default
    {!Trace.null} costs nothing.  Events are emitted from the calling
    domain only, never from pool workers, so sinks need not be
    thread-safe.

    Every entry point also takes an optional {!Metrics.t} registry.
    When given, a run records: counter [refnet_runs_total]; counter
    [refnet_messages_total] and histograms [refnet_message_bits] /
    [refnet_view_queries] over the local phase; timers
    [refnet_local_phase] / [refnet_referee_phase] around the two
    phases (plus the {!Parallel} pool timers); histogram
    [refnet_run_max_bits] and counter [refnet_run_bits_total] from the
    transcript; histogram [refnet_absorb_ns], sampled on every 64th
    absorb in every schedule; and (under a non-empty [?faults] plan)
    counter [refnet_faults_injected_total].  Like trace events, metrics
    are recorded from the calling domain only.  When absent, the
    uninstrumented fast path runs.

    Every run entry point also takes [?faults] (default {!Faults.empty}):
    nodes compute honestly, then the channel rewrites their deliveries
    per the plan ({!Faults.apply}).  One [Fault_injected] event fires
    per in-scope plan entry, before its chunk's absorbs.  An empty plan
    is bit-identical to omitting it — output, transcript and event
    stream — at any [domains] width. *)

type transcript = Run_loop.transcript = {
  n : int;
  message_bits : int array;  (** [message_bits.(i - 1)] for node [i] *)
  max_bits : int;
  total_bits : int;
  faulted_ids : int list;
      (** sender ids the channel hit, in increasing order.  Message
          lengths always measure what nodes {e sent}, pre-fault —
          frugality is a property of the protocol, not of the
          channel. *)
}

(** [local_phase ?domains ?trace p g] runs every node's local function,
    fanned out across the {!Parallel} domain pool ([?domains] selects
    the pool width; the default honours [REFNET_DOMAINS]).  Local
    functions are pure by the model's information boundary, and each
    message is written into its slot by identifier, so the resulting
    vector is bit-identical to a sequential run at any width.  With a
    live [trace], one [Node_local] event per node is emitted (in
    identifier order, after the parallel section).  Views are built on
    the allocation-lean slice path ({!View.of_slice}) — no per-node
    neighbour list is materialized. *)
val local_phase :
  ?domains:int ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph.t ->
  Message.t array

(** [local_phase_source] is {!local_phase} over any {!Graph_source}
    backend.  All backends present identical neighbour runs for the
    same labelled graph, so the message vector is bit-identical across
    them. *)
val local_phase_source :
  ?domains:int ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph_source.t ->
  Message.t array

(** [run ?faults ?domains ?trace p g] executes both phases; returns the
    referee's output and the transcript.  The referee absorbs messages
    in identifier order, through the channel of [?faults].  The
    transcript is byte-identical whatever [domains] is — parallelism is
    an execution detail, never observable in the model. *)
val run :
  ?faults:Faults.plan ->
  ?domains:int ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph.t ->
  'a * transcript

(** [run_source ?chunk p src] is {!run} over any {!Graph_source}
    backend.  The span/done labels gain a [\[src=<backend>\]]
    decoration (peeled by {!Bound_audit.classify_label} before budget
    lookup, so backend-tagged runs audit under the bare label's
    theorem), and counter
    [refnet_source_runs_total\{backend="..."\}] is bumped when metrics
    are on.

    [?chunk] bounds live message storage: with [chunk = c < n] the
    engine alternates computing [c] messages in parallel with feeding
    them to the streaming referee in identifier order, so peak memory
    is O(c) messages + O(n) ints (the transcript) + the referee state —
    the schedule that lets a million-node implicit source run in a
    frontier-sized footprint.  Each chunk's deliveries are its slice of
    the unchunked channel's, so output and transcript are bit-identical
    for every chunk size, with or without [?faults]; only the
    interleaving of trace events differs.  Default: one chunk of [n].
    @raise Invalid_argument naming [Simulator.run_source] if
    [chunk < 1]. *)
val run_source :
  ?faults:Faults.plan ->
  ?domains:int ->
  ?chunk:int ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph_source.t ->
  'a * transcript

(** [run_async ?rng ?domains ?trace p g] is [run] but evaluates local
    functions in a random order and delivers messages to the streaming
    referee in {e another} random arrival order — a check that nothing
    in a protocol depends on scheduling, including the referee's absorb
    order (the paper notes one-round protocols tolerate asynchrony).
    [Referee_absorb] trace events fire in arrival order. *)
val run_async :
  ?rng:Random.State.t ->
  ?domains:int ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a Protocol.t ->
  Refnet_graph.Graph.t ->
  'a * transcript

(** [transcript_of_messages msgs] summarizes an externally-built message
    vector. *)
val transcript_of_messages : Message.t array -> transcript

(** [is_frugal t ~c] checks [max_bits <= c * ceil(log2 (n + 1))] — the
    frugality test at a specific constant [c]. *)
val is_frugal : transcript -> c:int -> bool

(** [frugality_ratio t] is [max_bits / ceil(log2 (n + 1))], the measured
    constant in front of [log n]. *)
val frugality_ratio : transcript -> float

val pp_transcript : Format.formatter -> transcript -> unit

(** The partition (coalition) variant of the model.

    The paper's hardness proofs and its connectivity discussion both use
    the following strengthening: the vertices are split into parts, and
    the vertices of a part may pool their local information before each
    sends its own [O(log n)]-bit message.  Formally a coalition protocol's
    local function sees a whole part — every member's identifier and
    neighbour list — and emits one message {e per member}; the referee
    still receives [n] individual messages.

    The conclusion's observation "if a graph is split into [k] parts ...
    there is an algorithm for connectivity using [O(k log n)] bits per
    node" lives in this model; {!Connectivity_parts} implements it. *)

type view = { members : int list; neighborhoods : (int * int list) list }
(** What a part jointly knows: its member identifiers and each member's
    neighbour set (in increasing member order). *)

type 'a t = {
  name : string;
  local : n:int -> view -> (int * Message.t) list;
      (** Messages for the part's members, tagged by member id; must
          cover exactly the part's members. *)
  referee : 'a Protocol.referee;
      (** The referee still receives [n] individual messages, streamed
          in identifier order; {!Protocol.batch} keeps the array-style
          spelling available. *)
}

(** [partition_by_ranges ~n ~parts] splits [1..n] into [parts] contiguous
    ranges of near-equal size.
    @raise Invalid_argument if [parts < 1] or [parts > n]. *)
val partition_by_ranges : n:int -> parts:int -> int list list

(** [run ?faults ?trace ?metrics p g ~parts] executes a coalition
    protocol over the given partition of the vertices; with a live
    [trace], span, absorb and done events are emitted as in
    {!Simulator.run} — with the part count baked into the span label as
    ["name[parts=k]"], so the O(k·log n) coalition bound is auditable
    from the trace alone.  [?metrics] records the same series as
    {!Simulator.run} (minus [refnet_view_queries] — coalition views are
    pooled, not per-node audited).  [?faults] is the channel of
    {!Simulator.run}, applied to the per-member messages; an empty plan
    (the default) is bit-identical to omitting it.
    @raise Invalid_argument if [parts] does not partition [1..n] or the
    local function mislabels a message. *)
val run :
  ?faults:Faults.plan ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a t ->
  Refnet_graph.Graph.t ->
  parts:int list list ->
  'a * Simulator.transcript

(** [run_source p src ~parts] is {!run} over any {!Graph_source}
    backend.  The label gains the outermost [\[src=<backend>\]]
    decoration (["name[parts=k][src=materialized]"]) — peeled first by
    {!Bound_audit.classify_label}, so backend-tagged coalition runs
    audit under the same O(k·log n) budget — and counter
    [refnet_source_runs_total\{backend="..."\}] is bumped when metrics
    are on. *)
val run_source :
  ?faults:Faults.plan ->
  ?trace:Trace.sink ->
  ?metrics:Metrics.t ->
  'a t ->
  Refnet_graph.Graph_source.t ->
  parts:int list list ->
  'a * Simulator.transcript

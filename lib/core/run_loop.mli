(** The execution engine's internals: the one-round delivery loop
    behind {!Simulator} and {!Coalition}, and the helpers the {!Bcc}
    round loop shares with it.  Not a run entry point on its own. *)

(** Re-exported and documented as {!Simulator.transcript}. *)
type transcript = {
  n : int;
  message_bits : int array;
  max_bits : int;
  total_bits : int;
  faulted_ids : int list;
}

val transcript_of_bits : faulted_ids:int list -> int array -> transcript

(** [view_of src ~n i] is node [i + 1]'s view over the source's
    neighbour slice ({!View.of_slice}). *)
val view_of : Refnet_graph.Graph_source.t -> n:int -> int -> View.t

(** [query_total c] sums a view audit's accessor tallies. *)
val query_total : View.counts -> int

(** [maybe_time metrics name f] is [f ()], timed under [name] when
    metrics are on. *)
val maybe_time : Metrics.t option -> string -> (unit -> 'a) -> 'a

(** Bumps [refnet_source_runs_total\{backend="..."\}] for a [Some]
    source. *)
val observe_source : Metrics.t option -> Refnet_graph.Graph_source.t option -> unit

(** [label name ~tags ~src] is ["name[k=v]...[src=<backend>]"]: the
    [parts=] / [round=] tags in order, the backend outermost. *)
val label :
  string -> tags:(string * int) list -> src:Refnet_graph.Graph_source.t option -> string

(** Counter [refnet_messages_total] and histogram
    [refnet_message_bits] over a batch of produced messages. *)
val observe_messages : Metrics.t option -> Message.t array -> unit

(** Counter [refnet_runs_total], histogram [refnet_run_max_bits] and
    counter [refnet_run_bits_total] for one finished run. *)
val observe_transcript : Metrics.t option -> max_bits:int -> total_bits:int -> unit

(** [chunk_size ~entry ~n chunk] is the chunk length, [max n 1] for
    [None].
    @raise Invalid_argument naming [entry] if [chunk < 1]. *)
val chunk_size : entry:string -> n:int -> int option -> int

(** [deliver ~trace ~metrics plan ~n ~base msgs absorb] runs one chunk
    ([msgs.(i)] is sender [base + i + 1]'s) through the channel
    ({!Faults.apply_chunk}) and calls [absorb id msg] per delivery, in
    sender-id order, after the chunk's [Fault_injected] events.  Returns
    the plan past the chunk and the ids it hit. *)
val deliver :
  trace:Trace.sink ->
  metrics:Metrics.t option ->
  Faults.plan ->
  n:int ->
  base:int ->
  Message.t array ->
  (int -> Message.t -> unit) ->
  Faults.plan * int list

(** [one_round ... ~produce referee] is the one-round delivery loop:
    chunk by chunk (one chunk of [n] for [~chunk:None]),
    [produce ~base ~len] yields the messages of senders
    [base + 1 .. base + len], whose bits are recorded before they are
    {!deliver}ed into [referee].  [~arrival] instead delivers the single
    chunk in that sender order, with no channel.  The run is one span
    [label].
    @raise Invalid_argument naming [entry] if [chunk < 1]. *)
val one_round :
  entry:string ->
  chunk:int option ->
  faults:Faults.plan ->
  arrival:int array option ->
  trace:Trace.sink ->
  metrics:Metrics.t option ->
  label:string ->
  n:int ->
  produce:(base:int -> len:int -> Message.t array) ->
  'a Protocol.referee ->
  'a * transcript

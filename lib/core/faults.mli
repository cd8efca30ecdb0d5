(** Deterministic fault-injection channel model.

    The paper's referee model assumes a perfect uplink: every node's
    message arrives intact, exactly once, under the right identifier.
    This module is the layer between the local phase and the referee
    where that assumption is deliberately broken.  A {!plan} names, per
    node, what the channel does to its message; {!apply} turns a clean
    message vector into the delivery sequence the referee actually
    sees.  Plans are plain data — seed-driven when built with
    {!random} — so every fault campaign is reproducible byte-for-byte
    and printable with {!pp}.

    The model is {e channel} faults, not Byzantine nodes: senders are
    honest, so any message that survives integrity checks is a true
    statement about the input graph.  That asymmetry is what the
    hardened referees exploit to detect-or-degrade instead of lying. *)

(** What the channel does to one node's message. *)
type fault =
  | Crash  (** the message never arrives *)
  | Truncate of int  (** only the first [k] bits arrive *)
  | Flip of int list
      (** the bits at these positions arrive inverted (positions are
          reduced modulo the message length) *)
  | Duplicate  (** the message is absorbed twice *)
  | Spoof of int  (** the message is delivered under sender id [j] *)

(** A reproducible fault assignment: at most one fault per node id. *)
type plan

(** The faultless plan; {!apply}ing it is the identity delivery. *)
val empty : plan

val is_empty : plan -> bool

(** [of_list entries] builds a plan from explicit [(id, fault)] pairs.
    @raise Invalid_argument on ids < 1, duplicate ids, negative
    truncation lengths or flip positions, or spoof targets < 1. *)
val of_list : (int * fault) list -> plan

(** [to_list plan] is the plan's entries in increasing id order. *)
val to_list : plan -> (int * fault) list

(** [ids plan] is the increasing list of ids the plan touches. *)
val ids : plan -> int list

(** [random ~seed ~n ?crash ?truncate ?flip ?flip_bits ?duplicate
    ?spoof ()] draws an independent fault for each node of a network of
    size [n]: with probability [crash] the message crashes, else with
    probability [truncate] it is cut to a random prefix, else with
    probability [flip] it has [flip_bits] random bit positions flipped,
    else with probability [duplicate] it is duplicated, else with
    probability [spoof] it is delivered under a random other id.  All
    probabilities default to [0.].  The same [(seed, n)] and rates
    reproduce the same plan byte-for-byte.
    @raise Invalid_argument if [n < 0] or [flip_bits < 1]. *)
val random :
  seed:int ->
  n:int ->
  ?crash:float ->
  ?truncate:float ->
  ?flip:float ->
  ?flip_bits:int ->
  ?duplicate:float ->
  ?spoof:float ->
  unit ->
  plan

(** [apply plan msgs] runs the channel over a clean message vector
    ([msgs.(i - 1)] is node [i]'s message).  Returns the deliveries —
    [(sender_id_as_seen, message)] in delivery order, faultless nodes
    in identifier order — and the [(id, fault)] injections that were in
    scope (entries with [id > Array.length msgs] are ignored; a spoof
    whose target is outside [1..n] or equals its source degenerates to
    a crash).  Messages are never mutated in place; tampered deliveries
    are fresh copies. *)
val apply : plan -> Message.t array -> (int * Message.t) list * (int * fault) list

(** [apply_chunk plan ~n ~base msgs] is {!apply} over one chunk of a
    network of size [n] ([msgs.(i)] is sender [base + i + 1]'s), plus
    the plan entries past the chunk.  Walking the chunks in order, each
    from the previous suffix, gives {!apply}'s result in
    O(n + |plan|). *)
val apply_chunk :
  plan -> n:int -> base:int -> Message.t array -> (int * Message.t) list * (int * fault) list * plan

(** Compact single-token rendering, e.g. ["flip:2,5"] — used by the
    trace layer's JSONL schema. *)
val fault_to_string : fault -> string

val pp_fault : Format.formatter -> fault -> unit

(** [pp] prints a whole plan, e.g. [{3->crash; 7->truncate:12}]. *)
val pp : Format.formatter -> plan -> unit

type counts = {
  id_reads : int;
  n_reads : int;
  deg_reads : int;
  neighbor_reads : int;
}

(* Mutable tally, bumped by the accessors.  Counters are write-only from
   the protocol's point of view — no accessor exposes them back to the
   local function — so purity of local functions is unaffected. *)
type tally = {
  mutable t_id : int;
  mutable t_n : int;
  mutable t_deg : int;
  mutable t_nbr : int;
}

(* The neighbour set is a slice [off, off + len) of an int array the
   view does not own: for materialized sources that is shared graph
   storage (zero copies per node), for implicit sources a fresh
   per-node array.  Accessors never let the array escape, so sharing is
   invisible to local functions. *)
type t = { size : int; ident : int; nbrs : int array; off : int; len : int; tally : tally }

let fresh_tally () = { t_id = 0; t_n = 0; t_deg = 0; t_nbr = 0 }

let of_slice ~n ~id nbrs ~off ~len =
  if n < 1 then invalid_arg "View.of_slice: n must be positive";
  if id < 1 || id > n then invalid_arg "View.of_slice: id out of range";
  if off < 0 || len < 0 || off + len > Array.length nbrs then
    invalid_arg "View.of_slice: slice out of bounds";
  { size = n; ident = id; nbrs; off; len; tally = fresh_tally () }

let make ~n ~id ~neighbors =
  if n < 1 then invalid_arg "View.make: n must be positive";
  if id < 1 || id > n then invalid_arg "View.make: id out of range";
  let nbrs = Array.of_list neighbors in
  { size = n; ident = id; nbrs; off = 0; len = Array.length nbrs; tally = fresh_tally () }

let id v =
  v.tally.t_id <- v.tally.t_id + 1;
  v.ident

let n v =
  v.tally.t_n <- v.tally.t_n + 1;
  v.size

let deg v =
  v.tally.t_deg <- v.tally.t_deg + 1;
  v.len

let neighbors v =
  v.tally.t_nbr <- v.tally.t_nbr + 1;
  List.init v.len (fun i -> v.nbrs.(v.off + i))

let fold_neighbors v init f =
  v.tally.t_nbr <- v.tally.t_nbr + 1;
  let acc = ref init in
  for i = v.off to v.off + v.len - 1 do
    acc := f !acc v.nbrs.(i)
  done;
  !acc

let iter_neighbors v f =
  v.tally.t_nbr <- v.tally.t_nbr + 1;
  for i = v.off to v.off + v.len - 1 do
    f v.nbrs.(i)
  done

let audit v =
  {
    id_reads = v.tally.t_id;
    n_reads = v.tally.t_n;
    deg_reads = v.tally.t_deg;
    neighbor_reads = v.tally.t_nbr;
  }

let queries v = v.tally.t_id + v.tally.t_n + v.tally.t_deg + v.tally.t_nbr

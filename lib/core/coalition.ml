open Refnet_graph

type view = { members : int list; neighborhoods : (int * int list) list }

type 'a t = {
  name : string;
  local : n:int -> view -> (int * Message.t) list;
  referee : 'a Protocol.referee;
}

let partition_by_ranges ~n ~parts =
  if parts < 1 || parts > max n 1 then invalid_arg "Coalition.partition_by_ranges: bad count";
  let base = n / parts and extra = n mod parts in
  let rec go start part acc =
    if part > parts then List.rev acc
    else begin
      let size = base + (if part <= extra then 1 else 0) in
      let members = List.init size (fun i -> start + i) in
      go (start + size) (part + 1) (members :: acc)
    end
  in
  go 1 1 []

(* The local phase: validate the partition and collect the full
   message vector, one slot per vertex. *)
let collect (p : 'a t) src ~parts =
  let n = Graph_source.order src in
  (* [owner.(v-1)] is the 1-based index of the coalition holding [v]:
     one array is both the partition check and the O(1) membership test
     below (a [List.mem] here is quadratic in coalition size, which at
     n = 10^6 with a handful of parts dominates the whole run). *)
  let owner = Array.make n 0 in
  List.iteri
    (fun ci members ->
      List.iter
        (fun v ->
          if v < 1 || v > n || owner.(v - 1) <> 0 then
            invalid_arg "Coalition.run: parts do not partition the vertices";
          owner.(v - 1) <- ci + 1)
        members)
    parts;
  if Array.exists (fun o -> o = 0) owner then
    invalid_arg "Coalition.run: parts do not cover the vertices";
  let inbox = Array.make n None in
  List.iteri
    (fun ci members ->
      let members = List.sort Stdlib.compare members in
      let view =
        { members; neighborhoods = List.map (fun v -> (v, Graph_source.neighbors src v)) members }
      in
      let out = p.local ~n view in
      if List.length out <> List.length members then
        invalid_arg "Coalition.run: local function must emit one message per member";
      List.iter
        (fun (id, msg) ->
          if id < 1 || id > n || owner.(id - 1) <> ci + 1 then
            invalid_arg "Coalition.run: message for a non-member";
          match inbox.(id - 1) with
          | Some _ -> invalid_arg "Coalition.run: duplicate message"
          | None -> inbox.(id - 1) <- Some msg)
        out)
    parts;
  Array.map (function Some m -> m | None -> assert false) inbox (* lint: allow referee-totality -- the cover check above fills every slot *)

(* Span and done events carry the part count in the label — the
   coalition bound is O(k·log n) in the number of parts, so offline
   analysis ({!Bound_audit}, [refnet report]) needs [k] recoverable
   from the trace alone. *)
let execute ~faults ~trace ~metrics ~tag (p : 'a t) src ~parts =
  Run_loop.observe_source metrics tag;
  Run_loop.one_round ~entry:"Coalition.run" ~chunk:None ~faults ~arrival:None ~trace ~metrics
    ~label:(Run_loop.label p.name ~tags:[ ("parts", List.length parts) ] ~src:tag)
    ~n:(Graph_source.order src)
    ~produce:(fun ~base:_ ~len:_ -> collect p src ~parts)
    p.referee

let run ?(faults = Faults.empty) ?(trace = Trace.null) ?metrics p g ~parts =
  execute ~faults ~trace ~metrics ~tag:None p (Graph_source.of_graph g) ~parts

let run_source ?(faults = Faults.empty) ?(trace = Trace.null) ?metrics p src ~parts =
  execute ~faults ~trace ~metrics ~tag:(Some src) p src ~parts

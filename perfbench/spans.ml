(* In-memory spans recorded around the benchmark's calls into each
   layer.  A span is (name, start, end, parent); every span of one
   benchmark process shares a run id.  Nothing is written until [write],
   so recording costs a clock read and a cons per span. *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

type t = {
  run_id : string;
  mutable spans : span list;
  mutable next_id : int;
  mutable opened : (int * int * string * float) list;
}

(* The benchmark measures wall time from outside the program; the
   program's injected clocks are not reachable from here. *)
let now () = Unix.gettimeofday () (* lint: allow determinism -- benchmark stopwatch: wall time is the measurement *)

let create ~run_id = { run_id; spans = []; next_id = 1; opened = [] }

let parent_of t = match t.opened with (p, _, _, _) :: _ -> p | [] -> 0

(* [enter t name] opens a span under the innermost open one. *)
let enter t name =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.opened <- (id, parent_of t, name, now ()) :: t.opened;
  id

let leave t id =
  let t1 = now () in
  match List.partition (fun (i, _, _, _) -> i = id) t.opened with
  | [ (_, parent, name, t0) ], rest ->
      t.opened <- rest;
      t.spans <- { id; parent; name; t0; t1 } :: t.spans
  | _ -> invalid_arg "Spans.leave: span is not open"

let with_span t name f =
  let id = enter t name in
  Fun.protect ~finally:(fun () -> leave t id) f

(* [record t ~parent name ~t0 ~t1] adds a span timed elsewhere — the
   client workers time their sessions on pool domains and hand the
   intervals back after the join. *)
let record t ~parent name ~t0 ~t1 =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; parent; name; t0; t1 } :: t.spans

(* Length of the union of intervals: children of one span may overlap
   when they ran on different domains. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, Float.max cb b)) rest
            else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None sorted

let children t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl s.parent) in
      Hashtbl.replace tbl s.parent ((s.t0, s.t1) :: prev))
    t.spans;
  tbl

(* [self_times t] maps each span name to the summed self time of its
   spans: duration minus the part covered by child spans. *)
let self_times t =
  let kids = children t in
  let out = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let inner = covered (Option.value ~default:[] (Hashtbl.find_opt kids s.id)) in
      let self = s.t1 -. s.t0 -. inner in
      let prev = Option.value ~default:0. (Hashtbl.find_opt out s.name) in
      Hashtbl.replace out s.name (prev +. self))
    t.spans;
  out

(* [total t name] is the summed wall duration of the spans named [name]. *)
let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0. t.spans

let self t name =
  Option.value ~default:0. (Hashtbl.find_opt (self_times t) name)

(* JSON lines, one span per line, in start order; times are seconds
   relative to the first span. *)
let write t path =
  let spans = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) t.spans in
  let base = match spans with s :: _ -> s.t0 | [] -> 0. in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"run\":%S,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f}\n"
            t.run_id s.id s.parent s.name (s.t0 -. base) (s.t1 -. base))
        spans)

(* [iter_common g u v f] applies [f] to each common neighbour of [u] and
   [v] in increasing order, merging their sorted neighbour runs. *)
let iter_common g u v f =
  let a, i0, da = Graph.neighbors_slice g u and b, j0, db = Graph.neighbors_slice g v in
  let i = ref i0 and j = ref j0 in
  while !i < i0 + da && !j < j0 + db do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      f x;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done

let find_triangle g =
  let n = Graph.order g in
  let found = ref None in
  (try
     for u = 1 to n do
       Graph.iter_neighbors g u (fun v ->
           if v > u then
             iter_common g u v (fun w ->
                 if w > v then begin
                   found := Some (u, v, w);
                   raise Exit
                 end))
     done
   with Exit -> ());
  !found

let has_triangle g = find_triangle g <> None

let triangle_count g =
  let n = Graph.order g in
  let count = ref 0 in
  for u = 1 to n do
    Graph.iter_neighbors g u (fun v ->
        if v > u then iter_common g u v (fun w -> if w > v then incr count))
  done;
  !count

let find_square g =
  (* A 4-cycle exists iff two vertices share two common neighbours. *)
  let n = Graph.order g in
  let found = ref None in
  (try
     for u = 1 to n do
       for v = u + 1 to n do
         let first = ref 0 in
         iter_common g u v (fun w ->
             if !first = 0 then first := w
             else begin
               found := Some (u, !first, v, w);
               raise Exit
             end)
       done
     done
   with Exit -> ());
  !found

let has_square g = find_square g <> None

let girth g =
  (* BFS from each vertex; a non-tree edge closing at depths d1, d2 gives a
     cycle of length d1 + d2 + 1 through the root's BFS tree. *)
  let n = Graph.order g in
  let best = ref max_int in
  for src = 1 to n do
    let dist = Array.make n (-1) in
    let parent = Array.make n 0 in
    let queue = Queue.create () in
    dist.(src - 1) <- 0;
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      Graph.iter_neighbors g u (fun v ->
          if dist.(v - 1) < 0 then begin
            dist.(v - 1) <- dist.(u - 1) + 1;
            parent.(v - 1) <- u;
            Queue.add v queue
          end
          else if parent.(u - 1) <> v && u < v then
            best := min !best (dist.(u - 1) + dist.(v - 1) + 1))
    done
  done;
  if !best = max_int then None else Some !best

let is_acyclic g = girth g = None

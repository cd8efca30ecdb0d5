(* Host-speed calibration.

   The benchmark host is a small VM on a shared machine whose speed
   drifts, by a factor of up to two over seconds to minutes, while the
   vCPUs keep running, only slower.  Wall time alone then measures the
   neighbours as much as refnet.  So every timed piece of work (a run, a
   setup, a slice of a closed loop) sits between two batches of blocks
   of a fixed reference kernel, and its time is scaled by [nominal /
   median block time of the two batches]: it reads as the time the same
   work would take on a host where one block takes [nominal] seconds.

   The kernel uses only the OCaml standard library, never refnet code,
   so a change to refnet cannot move it.  It allocates and walks short
   lists, which die young: minor-heap writes and minor collections, with
   nothing promoted, so the size of the workload's heap does not move it.
   Of the kernels tried (dependent loads over 2 MB and 32 MB tables,
   integer hashing, bignum arithmetic, allocation), its time tracked the
   workloads' run times best; the table walks tracked them worst.

   A batch runs a block on each of [domains] domains at once.  The
   in-process workloads are calibrated on one domain: merely spawning a
   second domain slows an allocating OCaml program, because every minor
   collection then stops both domains, and the forest runs tracked a
   one-domain kernel better anyway.  The serve workloads, whose client
   and daemon keep both vCPUs busy, are calibrated on two, through the
   [Parallel] pool the client already uses; each block times itself, so
   the pool's dispatch is not in the figure. *)

module Parallel = Core.Parallel

let now = Spans.now

(* Scaled times read as on a host where one block takes [nominal]
   seconds; on the 2-vCPU VM the benchmark was tuned on, blocks took 5
   to 6 ms. *)
let nominal = 0.004

let lists = 10_000

type t = { domains : int; mutable samples : float list }

let create ~domains = { domains; samples = [] }

let sink = Atomic.make 0

let block () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to lists do
    acc := !acc + List.length (List.init 64 (fun j -> i + j))
  done;
  Atomic.set sink !acc;
  now () -. t0

(* One block on each domain. *)
let blocks t =
  if t.domains = 1 then [ block () ]
  else
    let times = Array.make t.domains 0. in
    Parallel.iter_range ~domains:t.domains t.domains (fun w -> times.(w) <- block ());
    Array.to_list times

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let len = Array.length a in
  if len = 0 then nominal
  else if len mod 2 = 1 then a.(len / 2)
  else (a.((len / 2) - 1) +. a.(len / 2)) /. 2.

let min_rounds = 3

(* A batch: one untimed round of blocks, then rounds for at least
   [seconds] and at least [min_rounds] times; returns the block times. *)
let batch t ~seconds =
  ignore (blocks t);
  let stop = now () +. seconds in
  let rec go acc k =
    let acc = blocks t @ acc in
    if k + 1 >= min_rounds && now () >= stop then acc else go acc (k + 1)
  in
  let times = go [] 0 in
  t.samples <- times @ t.samples;
  times

(* [series t ~share ~prepare ~continue step] runs [step] while
   [continue k] holds for the [k] steps so far.  Before each step come
   [prepare ()], untimed, and a calibration batch lasting [share] of the
   previous step's time; one more batch follows the last step.  [step]
   returns a value and the time it measured.  The result is each step's
   value, time and scale, in order; the scale comes from the batches on
   both sides of the step, and the step's time is to be multiplied by
   it. *)
let series t ~share ~prepare ~continue step =
  let rec go acc k last =
    if not (continue k) then (acc, last)
    else (
      prepare ();
      let b = batch t ~seconds:(share *. last) in
      let v, dt = step () in
      go ((b, v, dt) :: acc) (k + 1) dt)
  in
  let acc, last = go [] 0 0. in
  let after = batch t ~seconds:(share *. last) in
  (* [acc] is newest first, so each step meets the batch after it first *)
  List.fold_left
    (fun (out, next) (b, v, dt) -> ((v, dt, nominal /. median (b @ next)) :: out, b))
    ([], after) acc
  |> fst

(* Blocks timed so far, and their median. *)
let count t = List.length t.samples

let median_block t = median t.samples

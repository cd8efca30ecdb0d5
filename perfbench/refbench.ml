(* The refnet benchmark: three seeded workloads, timed end to end with
   tracing off, and split by layer in a separate traced run.  See
   README.md in this directory for the workloads, the metrics and the
   layer-to-metric map.

   The benchmark reaches the layers only through their public entry
   points; every layer span in a traced run wraps one call made from
   this file. *)

open Refnet_graph
module Sim = Core.Simulator
module Protocol = Core.Protocol
module Message = Core.Message
module Parallel = Core.Parallel

let now = Spans.now

(* ---------- statistics ---------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [q] in [0, 1]. *)
let percentile a q =
  let s = sorted a in
  let len = Array.length s in
  if len = 0 then 0.
  else s.(max 0 (min (len - 1) (int_of_float (Float.ceil (q *. float_of_int len)) - 1)))

let median a =
  let s = sorted a in
  let len = Array.length s in
  if len = 0 then 0.
  else if len mod 2 = 1 then s.(len / 2)
  else (s.((len / 2) - 1) +. s.(len / 2)) /. 2.

let sum a = Array.fold_left ( +. ) 0. a

let ratio a b = if b = 0. then 0. else a /. b

let print_samples lat =
  let p99 = percentile lat 0.99 in
  Printf.printf "session latency samples: %d (%d above p99)\n" (Array.length lat)
    (Array.fold_left (fun a x -> if x > p99 then a + 1 else a) 0 lat)

(* ---------- checks ---------- *)

(* Every check is one attempted operation; a failure is kept by name.
   [ok_frac] in the output is 1 - failed / attempted. *)
type checks = {
  mutable attempted : int;
  mutable failed : int;
  failures : (string, int * string) Hashtbl.t;
}

let checks () = { attempted = 0; failed = 0; failures = Hashtbl.create 8 }

let fail ck name detail =
  let detail = if String.length detail > 160 then String.sub detail 0 160 ^ "..." else detail in
  ck.failed <- ck.failed + 1;
  let count, first =
    Option.value ~default:(0, detail) (Hashtbl.find_opt ck.failures name)
  in
  Hashtbl.replace ck.failures name (count + 1, first)

let check ck name ok detail =
  ck.attempted <- ck.attempted + 1;
  if not ok then fail ck name (Lazy.force detail)

(* ---------- configuration ---------- *)

type inject = No_inject | Corrupt_payload | Corrupt_transcript

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  refnet : string;  (** the [refnet] binary the serve workloads boot *)
  smoke : bool;  (** tiny sizes: n = 10^3 in-process, 50 sessions over TCP *)
  inject : inject;  (** corrupt one input on purpose; set only by [smoke] *)
}

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

(* Setup is repeated and the median reported, so that a slow first
   allocation or a slow daemon boot does not decide the figure: at least
   [setup_min_reps] times and [setup_min_s] seconds, at most
   [setup_max_reps] times.  Two seconds of repeats outlast most of the
   host's short slow spells. *)
let setup_min_reps = 3
let setup_min_s = 2.0
let setup_max_reps = 400

(* Minimum timed repetitions of an in-process run, whatever [seconds]. *)
let min_runs = 3

(* Exact bit and wire accounting at this commit, keyed by (workload, n):
   (message.bits_total, message.max_bits, wire.bytes_per_session,
   wire.frames_per_session).  Every protocol here uses fixed-width fields,
   so these repeat exactly across seeds; a change to any of them is a
   change of wire format, which a performance change may not make. *)
let pinned =
  [
    (("forest-tree-1m", 1_000_000), (80_000_000, 80, 0, 0));
    (("degeneracy-k5-2048", 2048), (540_672, 264, 0, 0));
    (("serve-forest-256", 256), (17_408, 68, 7984, 258));
  ]

(* The bit-accounting guard: the counts must agree with every other run
   of this process and with the pinned figures. *)
let guard ck cfg ~n ((bits_total, max_bits, bytes, frames) as got) =
  match List.assoc_opt (cfg.workload, n) pinned with
  | None -> ()
  | Some want ->
      check ck "guard.bit_accounting" (got = want)
        (lazy
          (Printf.sprintf
             "bits_total=%d max_bits=%d wire_bytes=%d wire_frames=%d, pinned %s"
             bits_total max_bits bytes frames
             (let a, b, c, d = want in
              Printf.sprintf "%d/%d/%d/%d" a b c d)))

(* ---------- process figures from /proc ---------- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> In_channel.input_all ic)

(* VmHWM in MB, or 0 when /proc is unavailable. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             if String.starts_with ~prefix:"VmHWM:" line then
               Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
             else None)
      |> Option.value ~default:0.

(* utime + stime of [pid] in seconds, from /proc/<pid>/stat (fields 14
   and 15, counted after the parenthesised command name). *)
let cpu_seconds pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.
  | text -> (
      let after = String.rindex text ')' in
      let fields =
        String.sub text (after + 2) (String.length text - after - 2)
        |> String.split_on_char ' '
      in
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some s -> (float_of_string u +. float_of_string s) /. 100.
      | _ -> 0.)

let own_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---------- shared helpers ---------- *)

(* [timed f] is [(f (), seconds)]. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Share of a window spent on calibration blocks (see Calib). *)
let calib_share = 0.05

(* Runs [f] until [seconds] have passed and at least [min] times, each
   time on a collected heap and between calibration batches; returns
   each repetition's time and its calibration scale. *)
let measure ~cal ~seconds ~min f =
  let stop = now () +. seconds in
  Calib.series cal ~share:calib_share ~prepare:Gc.full_major
    ~continue:(fun k -> k < min || now () < stop)
    (fun () ->
      let t0 = now () in
      f ();
      ((), now () -. t0))
  |> List.map (fun ((), dt, scale) -> (dt, scale))
  |> Array.of_list

let durations = Array.map (fun (t0, t1) -> t1 -. t0)

let raw_durations = Array.map fst

let scaled_durations = Array.map (fun (dt, scale) -> dt *. scale)

(* Repeats [f] for at least [seconds] and 3 times; returns the count. *)
let repeat_for ~seconds f =
  let stop = now () +. seconds in
  let rec go k =
    if k >= 3 && now () >= stop then k
    else (
      f ();
      go (k + 1))
  in
  go 0

(* [setup ~cal build ~discard] returns the last build and the median
   build time, each build's time scaled by its calibration; every
   earlier build is handed to [discard] before the next.  Each build
   starts on a collected heap, so it neither pays for the garbage of the
   one before nor adds to the peak. *)
let setup ~cal build ~discard =
  let t_start = now () in
  let last = ref None in
  let builds =
    Calib.series cal ~share:calib_share
      ~prepare:(fun () ->
        Option.iter discard !last;
        Gc.full_major ())
      ~continue:(fun k ->
        k < setup_min_reps || (now () -. t_start < setup_min_s && k < setup_max_reps))
      (fun () ->
        let x, dt = timed build in
        last := Some x;
        ((), dt))
  in
  let raw = median (Array.of_list (List.map (fun ((), dt, _) -> dt) builds)) in
  let scaled = median (Array.of_list (List.map (fun ((), dt, scale) -> dt *. scale) builds)) in
  Printf.printf "setup: %d builds, median %.6f s unscaled, %.6f s scaled\n" (List.length builds) raw
    scaled;
  match !last with
  | Some x -> (x, scaled)
  | None -> invalid_arg "setup: no build ran"  (* series runs setup_min_reps builds at least *)

let flip_first_bit (msg : Message.t) =
  let m = Refnet_bits.Bitvec.copy msg in
  Refnet_bits.Bitvec.assign m 0 (not (Refnet_bits.Bitvec.get m 0));
  m

(* Node 1's message gets one bit flipped before the referee sees it. *)
let corrupt_node_1 (p : 'a Protocol.t) =
  {
    p with
    Protocol.local =
      (fun v ->
        let msg = p.Protocol.local v in
        if Core.View.id v = 1 then flip_first_bit msg else msg);
  }

let perturb_bits bits =
  let b = Array.copy bits in
  if Array.length b > 0 then b.(0) <- b.(0) + 1;
  b

let id_width n = Refnet_bits.Codes.id_width n

(* ---------- inputs ---------- *)

(* A random recursive tree (node v attaches to a uniform earlier node)
   under a uniform relabelling, straight into CSR.  Random labels make
   the referee's per-id tables miss cache the way real ids do. *)
let random_recursive_tree st n =
  let label = Array.init n (fun i -> i + 1) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = label.(i) in
    label.(i) <- label.(j);
    label.(j) <- t
  done;
  let parent = Array.make (n + 1) 0 in
  for v = 2 to n do
    parent.(v) <- 1 + Random.State.int st (v - 1)
  done;
  let b = Csr.Builder.create n in
  for v = 2 to n do
    Csr.Builder.count b label.(v - 1) label.(parent.(v) - 1)
  done;
  Csr.Builder.freeze b;
  for v = 2 to n do
    Csr.Builder.fill b label.(v - 1) label.(parent.(v) - 1)
  done;
  Csr.Builder.finish b

(* ---------- the layer split shared by every workload ---------- *)

type split = {
  nodes : int;
  msgs : Message.t array list;  (** one vector per source *)
  traced_total_s : float;
  alloc_local_bytes : float;
  alloc_finish_bytes : float;
}

let allocated_bytes () = Gc.allocated_bytes ()

(* Runs each source's local phase, absorb loop and finish as separate
   calls under spans, plus the width-1 / width-2 local phases and a
   neighbour walk.  [check_out i] checks source [i]'s referee output;
   [reference] is each source's message_bits from an untraced run,
   which the traced local phase must reproduce. *)
let layer_split sp ck ~width (p : 'a Protocol.t) sources ~check_out ~reference =
  let nodes = List.fold_left (fun acc s -> acc + Graph_source.order s) 0 sources in
  Spans.with_span sp "graph_source.neighbors" (fun () ->
      let acc = ref 0 in
      List.iter
        (fun src ->
          for v = 1 to Graph_source.order src do
            let _, _, len = Graph_source.neighbors_slice src v in
            acc := !acc + len
          done)
        sources;
      check ck "graph_source.degree_sum"
        (!acc = 2 * List.fold_left (fun a s -> a + Graph_source.size s) 0 sources)
        (lazy "neighbour runs do not sum to twice the edge count"));
  let finish_alloc = ref 0. in
  let msgs =
    Spans.with_span sp "bench.traced_run" (fun () ->
        List.mapi
          (fun i (src, ref_bits) ->
            let n = Graph_source.order src in
            let msgs =
              Spans.with_span sp "simulator.local_phase" (fun () ->
                  Sim.local_phase_source ~domains:width p src)
            in
            let feed =
              Spans.with_span sp "protocol.absorb" (fun () ->
                  let f = ref (Protocol.start p.Protocol.referee ~n) in
                  Array.iteri (fun i msg -> f := Protocol.feed !f ~id:(i + 1) msg) msgs;
                  !f)
            in
            let out =
              Spans.with_span sp "protocol.finish" (fun () ->
                  let a0 = allocated_bytes () in
                  let out = Protocol.finish feed in
                  finish_alloc := !finish_alloc +. (allocated_bytes () -. a0);
                  out)
            in
            check_out i out;
            let tr = Sim.transcript_of_messages msgs in
            check ck "transcript.traced_vs_untraced" (tr.Sim.message_bits = ref_bits)
              (lazy "traced local phase message_bits differ from the untraced run");
            msgs)
          (List.combine sources reference))
  in
  let local_alloc = ref 0. in
  List.iter2
    (fun src msgs ->
      let w1 =
        Spans.with_span sp "parallel.local_phase_w1" (fun () ->
            let a0 = allocated_bytes () in
            let r = Sim.local_phase_source ~domains:1 p src in
            local_alloc := !local_alloc +. (allocated_bytes () -. a0);
            r)
      in
      let w2 =
        Spans.with_span sp "parallel.local_phase_w2" (fun () ->
            Sim.local_phase_source ~domains:2 p src)
      in
      let same a b = Array.for_all2 Message.equal a b in
      check ck "transcript.width_1_vs_2" (same w1 w2 && same w1 msgs)
        (lazy "message vectors differ between pool widths"))
    sources msgs;
  {
    nodes;
    msgs;
    traced_total_s = Spans.total sp "bench.traced_run";
    alloc_local_bytes = !local_alloc;
    alloc_finish_bytes = !finish_alloc;
  }

(* Reads every message in ceil(log2(n+1))-bit fields, then writes the
   fields back; the rewrite must equal the original. *)
let codec_layer sp ck ~n msgs =
  let width = id_width n in
  let all = Array.concat msgs in
  let total_bits = Array.fold_left (fun a msg -> a + Message.bits msg) 0 all in
  let fields = Array.make (Array.length all) [||] in
  Spans.with_span sp "bit_reader.read" (fun () ->
      Array.iteri
        (fun i msg ->
          let bits = Message.bits msg in
          let r = Message.reader msg in
          let k = (bits + width - 1) / width in
          fields.(i) <-
            Array.init k (fun j ->
                Refnet_bits.Bit_reader.read_bits r ~width:(min width (bits - (j * width)))))
        all);
  let rewritten =
    Spans.with_span sp "bit_writer.write" (fun () ->
        Array.mapi
          (fun i msg ->
            let bits = Message.bits msg in
            let w = Refnet_bits.Bit_writer.create () in
            Array.iteri
              (fun j value ->
                Refnet_bits.Bit_writer.add_bits w ~value ~width:(min width (bits - (j * width))))
              fields.(i);
            Message.of_writer w)
          all)
  in
  check ck "codec.round_trip" (Array.for_all2 Message.equal all rewritten)
    (lazy "re-written messages differ from the originals");
  total_bits

(* [untraced_s] is the untraced median of the same run; message counts
   are those of one run's (or one session's) vector. *)
let split_metrics sp ~untraced_s ~codec_bits (s : split) =
  let self = Spans.self sp in
  let local = self "simulator.local_phase" in
  let absorb = self "protocol.absorb" in
  let finish = self "protocol.finish" in
  let nodes = float_of_int s.nodes in
  let one = match s.msgs with v :: _ -> v | [] -> [||] in
  let tr = Sim.transcript_of_messages one in
  [
      m "graph_source.neighbors_ns_per_node" (ratio (self "graph_source.neighbors") nodes *. 1e9) "ns";
      m "simulator.local_phase_s" local "s";
      m "simulator.local_ns_per_node" (ratio local nodes *. 1e9) "ns";
      m "simulator.local_alloc_bytes_per_node" (ratio s.alloc_local_bytes nodes) "B";
      m "parallel.local_speedup"
        (ratio (self "parallel.local_phase_w1") (self "parallel.local_phase_w2"))
        "x";
      m "simulator.schedule_overhead_s" (untraced_s -. (local +. absorb +. finish)) "s";
      m "protocol.absorb_s" absorb "s";
      m "protocol.absorb_ns_per_msg" (ratio absorb nodes *. 1e9) "ns";
      m "protocol.finish_s" finish "s";
      m "protocol.finish_share" (ratio finish (local +. absorb +. finish)) "frac";
      m "protocol.finish_alloc_mb" (s.alloc_finish_bytes /. 1048576.) "MB";
      m "bit_reader.ns_per_bit"
        (ratio (self "bit_reader.read") (float_of_int codec_bits) *. 1e9)
        "ns";
      m "bit_writer.ns_per_bit"
        (ratio (self "bit_writer.write") (float_of_int codec_bits) *. 1e9)
        "ns";
      m "message.bits_total" (float_of_int tr.Sim.total_bits) "bit";
      m "message.max_bits" (float_of_int tr.Sim.max_bits) "bit";
    ]

(* Layers a workload does not exercise report 0. *)
let zero names = List.map (fun (name, unit_) -> m name 0. unit_) names

let power_sum_absent = [ ("power_sum.decode_us", "us"); ("power_sum.decode_calls", "count") ]

let serve_only =
  [
    ("wire.encode_ns_per_frame", "ns");
    ("wire.decode_ns_per_frame", "ns");
    ("wire.bytes_per_session", "B");
    ("wire.frames_per_session", "count");
    ("registry.referee_us_per_session", "us");
    ("engine.us_per_session", "us");
    ("engine.core_us_per_session", "us");
    ("daemon.cpu_us_per_session", "us");
    ("daemon.busy_frac", "frac");
    ("daemon.socket_us_per_session", "us");
    ("client.cpu_us_per_session", "us");
  ]

(* ---------- in-process workloads ---------- *)

let report_calibration cal =
  Printf.printf "calibration: %d blocks, median %.6f s (nominal %.6f s)\n" (Calib.count cal)
    (Calib.median_block cal) Calib.nominal

(* End-to-end figures of an in-process workload, where one "session" is
   one complete protocol run over the whole input.  Every figure is over
   all runs of the window; [times] are the scaled run times. *)
let in_process_e2e ~cal ~n ~setup_s times =
  report_calibration cal;
  let p50 = median times in
  [
    m "setup_s" setup_s "s";
    m "nodes_per_s" (ratio (float_of_int n) p50) "1/s";
    m "sessions_per_s" (ratio (float_of_int (Array.length times)) (sum times)) "1/s";
    m "session_p50_us" (p50 *. 1e6) "us";
    m "peak_rss_mb" (peak_rss_mb "self") "MB";
  ]

(* One in-process workload: [run ~domains] is one complete run returning
   the referee output and transcript; [ok] checks the output. *)
let in_process cfg ck sp ~name ~n ~width ~build ~protocol ~ok ~extra_layers =
  let cal = Calib.create ~domains:1 in
  let (src, extra), setup_s = setup ~cal build ~discard:ignore in
  let p = if cfg.inject = Corrupt_payload then corrupt_node_1 protocol else protocol in
  let run ~domains () =
    match Sim.run_source ~domains ~chunk:65536 p src with
    | out, tr -> Some (out, tr)
    | exception e ->
        fail ck (name ^ ".exception") (Printexc.to_string e);
        None
  in
  let check_output out = check ck (name ^ ".output") (ok extra out) (lazy "wrong referee output") in
  (* the discarded warm-up run, at width 1: its transcript is the
     reference every later run must reproduce *)
  let reference =
    match run ~domains:1 () with
    | Some (out, tr) ->
        check_output out;
        let bits = tr.Sim.message_bits in
        guard ck cfg ~n (tr.Sim.total_bits, tr.Sim.max_bits, 0, 0);
        if cfg.inject = Corrupt_transcript then perturb_bits bits else bits
    | None -> [||]
  in
  let runs =
    measure ~cal ~seconds:cfg.seconds ~min:min_runs (fun () ->
        match run ~domains:width () with
        | Some (out, tr) ->
            check_output out;
            check ck "transcript.width_1_vs_run" (tr.Sim.message_bits = reference)
              (lazy (Printf.sprintf "message_bits differ from the width-1 run (width %d)" width))
        | None -> ())
  in
  let times = raw_durations runs in
  let show label a =
    prerr_endline (label ^ String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") a)))
  in
  show "run times (s): " times;
  show "scaled run times (s): " (scaled_durations runs);
  print_samples times;
  Printf.printf "unscaled: median run %.6f s\n" (median times);
  if not cfg.trace then in_process_e2e ~cal ~n ~setup_s (scaled_durations runs)
  else
    let split =
      layer_split sp ck ~width p [ src ] ~check_out:(fun _ -> check_output) ~reference:[ reference ]
    in
    let codec_bits = codec_layer sp ck ~n split.msgs in
    let untraced_s = median times in
    split_metrics sp ~untraced_s ~codec_bits split
    @ extra_layers sp src extra
    @ zero serve_only
    @ [
        m "session_p99_us" (percentile times 0.99 *. 1e6) "us";
        m "trace.overhead_ratio" (ratio split.traced_total_s untraced_s) "x";
      ]

let forest cfg ck sp =
  let n = if cfg.smoke then 1000 else 1_000_000 in
  let build () =
    let st = Random.State.make [| cfg.seed; 1 |] in
    (Graph_source.of_csr (random_recursive_tree st n), ())
  in
  in_process cfg ck sp ~name:"forest" ~n ~width:2 ~build
    ~protocol:Core.Forest_protocol.recognize
    ~ok:(fun () verdict -> verdict)
    ~extra_layers:(fun _ _ () -> zero power_sum_absent)

(* Decodes each node's later-neighbour set (at most k ids) in
   degeneracy order: the decode the Theorem 5 referee performs. *)
let power_sum_layer sp ck ~k g =
  let n = Graph.order g in
  let order = Array.of_list (Degeneracy.elimination_order g) in
  let pos = Array.make (n + 1) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let sets =
    Array.map
      (fun v ->
        List.filter (fun w -> pos.(w) > pos.(v)) (Graph.neighbors g v)
        |> List.sort compare)
      order
  in
  let encs = Array.map (fun s -> Refnet_algebra.Power_sum.encode ~k s) sets in
  let decoded =
    Spans.with_span sp "power_sum.decode" (fun () ->
        Array.mapi
          (fun i enc ->
            Refnet_algebra.Power_sum.decode ~n ~deg:(List.length sets.(i)) enc)
          encs)
  in
  check ck "power_sum.decode"
    (Array.for_all2 (fun d s -> d = Some s) decoded sets)
    (lazy "a power-sum encoding did not decode to its set");
  [
    m "power_sum.decode_us" (Spans.self sp "power_sum.decode" *. 1e6) "us";
    m "power_sum.decode_calls" (float_of_int (Array.length encs)) "count";
  ]

let degeneracy cfg ck sp =
  let n = if cfg.smoke then 1000 else 2048 in
  let k = 5 in
  let build () =
    let st = Random.State.make [| cfg.seed; 2 |] in
    let g = Generators.random_k_degenerate st n ~k in
    (Graph_source.of_graph g, g)
  in
  in_process cfg ck sp ~name:"degeneracy" ~n ~width:1 ~build
    ~protocol:(Core.Degeneracy_protocol.reconstruct ~k ())
    ~ok:(fun g out -> match out with Some h -> Graph.equal g h | None -> false)
    ~extra_layers:(fun sp _ g -> power_sum_layer sp ck ~k g)

(* ---------- the serve daemon ---------- *)

type daemon = { pid : int; listen : Serve.Daemon.listen; mutable reaped : bool }

let live = ref []

(* SIGTERM, then wait; returns the exit status.  Safe to call twice. *)
let stop_daemon d =
  if d.reaped then Unix.WEXITED 0
  else (
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let rec wait () =
      match Unix.waitpid [] d.pid with
      | _, st -> st
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let st = wait () in
    d.reaped <- true;
    live := List.filter (fun x -> x != d) !live;
    st)

let stop_all () = List.iter (fun d -> ignore (stop_daemon d)) !live

(* A bound daemon must never outlive the benchmark, whatever the exit
   path.  A signal stops the daemons first and then leaves at once:
   exit's own handlers would join pool domains that may still be inside
   a measured window. *)
let () =
  at_exit stop_all;
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle
           (fun _ ->
             stop_all ();
             Unix._exit 3)))
    [ Sys.sigterm; Sys.sigint ]

exception Serve_setup of string

(* The kernel picks a free loopback port; the daemon binds it next.  The
   socket is never listened on, so the port is free again at once. *)
let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 (* lint: allow determinism -- port probe before the daemon boots; no model run is involved *) in
  Fun.protect
    ~finally:(fun () -> Unix.close s (* lint: allow determinism -- closes the port probe *))
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) (* lint: allow determinism -- port 0 asks the kernel for a free port *);
      match Unix.getsockname s (* lint: allow determinism -- reads back the port the kernel chose *) with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> invalid_arg "free_port: not an inet socket")

let daemon_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"REFNET_DOMAINS=" kv))
  |> List.cons "REFNET_DOMAINS=1"
  |> Array.of_list

(* Boots [refnet serve] on a free loopback port and returns it with a
   connected client once the daemon accepts. *)
let boot_daemon cfg =
  let port = free_port () in
  let addr = Printf.sprintf "tcp:127.0.0.1:%d" port in
  let args = [| cfg.refnet; "serve"; "--listen"; addr; "--max-run"; "170" |] in
  let pid = Unix.create_process_env cfg.refnet args (daemon_env ()) Unix.stdin Unix.stderr Unix.stderr in
  let d = { pid; listen = Serve.Daemon.Tcp ("127.0.0.1", port); reaped = false } in
  live := d :: !live;
  let deadline = now () +. 20. in
  let rec wait_accept () =
    match Serve.Client.connect d.listen with
    | Ok c -> c
    | Error e -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when now () < deadline ->
            Unix.sleepf 0.0005 (* lint: allow determinism -- polls the booting daemon; outside any timed window *);
            wait_accept ()
        | 0, _ -> raise (Serve_setup ("daemon did not accept within 20 s: " ^ e))
        | _ ->
            d.reaped <- true;
            raise (Serve_setup "daemon exited during boot"))
  in
  (d, wait_accept ())

let connect_client d =
  match Serve.Client.connect d.listen with
  | Ok c -> c
  | Error e -> raise (Serve_setup e)

let handshake c =
  match Serve.Client.handshake c with
  | Ok () -> ()
  | Error e -> raise (Serve_setup ("handshake: " ^ e))

(* ---------- serve workloads ---------- *)

type template = {
  graph : Graph.t;
  msgs : Message.t array;
  session : (int * Message.t) list;
  expected : string;
}

let templates_count = 16

(* Random trees, every fourth a cycle — the shape Selftest uses — drawn
   from the benchmark seed, and rendered offline through the same
   Registry entry the daemon runs. *)
let build_templates cfg (Serve.Registry.Entry { protocol = p; render }) ~n =
  Array.init templates_count (fun i ->
      let st = Random.State.make [| cfg.seed; 3; i |] in
      let graph =
        if i mod 4 = 3 && n >= 3 then Generators.cycle n else Generators.random_tree st n
      in
      let msgs = Sim.local_phase ~domains:1 p graph in
      let expected =
        match Protocol.run_referee p.Protocol.referee ~n msgs with
        | Core.Verdict.Decided a -> render a
        | Core.Verdict.Degraded _ | Core.Verdict.Inconclusive _ -> "offline-run-did-not-decide"
      in
      let sent =
        if cfg.inject = Corrupt_payload && i = 0 then
          Array.mapi (fun j msg -> if j = 0 then flip_first_bit msg else msg) msgs
        else msgs
      in
      let session = Array.to_list (Array.mapi (fun j msg -> (j + 1, msg)) sent) in
      { graph; msgs; session; expected })

type worker = {
  mutable spans : (float * float) list;  (** (sent Open, got Verdict) *)
  mutable ok : int;
  mutable bad : int;
  mutable first_bad : string;
  mutable next : int;  (** this worker's next session index *)
  mutable broken : bool;  (** its connection failed *)
}

(* A closed loop runs in slices of at most [slice_s] seconds, between
   calibration batches. *)
let slice_s = 2.0

type loop = {
  workers : worker array;
  wall : float;  (** the loop's wall time, calibration batches excluded *)
  scaled_wall : float;  (** each slice's wall time times its scale *)
  scaled_lat : float array;  (** each latency times its slice's scale *)
}

(* Closed loop: each of the two clients sends its next session only
   after the previous verdict, on the Parallel pool (two domains).
   Latency runs from sending Open to receiving the Verdict.  Without
   [cal], every scale is 1. *)
let closed_loop ?cal ~spec ~n ~templates ~clients ~seconds ~max_sessions () =
  let workers =
    Array.init 2 (fun w -> { spans = []; ok = 0; bad = 0; first_bad = ""; next = w; broken = false })
  in
  let live wk = (not wk.broken) && wk.next < max_sessions in
  let slice stop =
    Parallel.iter_range ~domains:2 2 (fun w ->
        let wk = workers.(w) in
        let c = clients.(w) in
        let rec loop () =
          if now () < stop && live wk then (
            let t = templates.(wk.next mod Array.length templates) in
            wk.next <- wk.next + 2;
            let t0 = now () in
            let r = Serve.Client.run_session c ~protocol:spec ~n t.session in
            let t1 = now () in
            wk.spans <- (t0, t1) :: wk.spans;
            let good, why =
              match r with
              | Ok v when v.Serve.Client.status = Serve.Frame.Decided && v.payload = t.expected -> (true, "")
              | Ok v when v.Serve.Client.status = Serve.Frame.Decided ->
                  (false, "Decided payload differs from the offline rendering")
              | Ok v -> (false, "verdict not Decided: " ^ v.Serve.Client.payload)
              | Error e -> (false, "session error: " ^ e)
            in
            if good then wk.ok <- wk.ok + 1
            else (
              if wk.bad = 0 then wk.first_bad <- why;
              wk.bad <- wk.bad + 1);
            (* a broken connection cannot carry further sessions *)
            match r with Error _ -> wk.broken <- true | Ok _ -> loop ())
        in
        loop ())
  in
  (* one slice: returns its latencies and its wall time *)
  let wall = ref 0. in
  let step () =
    let before = Array.map (fun wk -> wk.spans) workers in
    let t0 = now () in
    slice (t0 +. Float.min slice_s (seconds -. !wall));
    let dt = now () -. t0 in
    wall := !wall +. dt;
    (* spans are consed, so this slice's come before [before] *)
    let rec fresh acc l stop =
      match l with
      | l when l == stop -> acc
      | (a, b) :: rest -> fresh ((b -. a) :: acc) rest stop
      | [] -> acc
    in
    let lat = Array.to_list (Array.mapi (fun w wk -> fresh [] wk.spans before.(w)) workers) in
    (List.concat lat, dt)
  in
  let continue _ = !wall < seconds && Array.exists live workers in
  let slices =
    match cal with
    | Some cal -> Calib.series cal ~share:calib_share ~prepare:ignore ~continue step
    | None ->
        let rec go acc =
          if continue () then
            let l, dt = step () in
            go ((l, dt, 1.) :: acc)
          else acc
        in
        go []
  in
  {
    workers;
    wall = !wall;
    scaled_wall = List.fold_left (fun a (_, dt, scale) -> a +. (dt *. scale)) 0. slices;
    scaled_lat =
      Array.of_list (List.concat_map (fun (l, _, scale) -> List.map (fun x -> x *. scale) l) slices);
  }

let merge_workers ck workers =
  Array.iter
    (fun wk ->
      ck.attempted <- ck.attempted + wk.ok + wk.bad;
      if wk.bad > 0 then (
        fail ck "serve.session" wk.first_bad;
        ck.failed <- ck.failed + wk.bad - 1))
    workers;
  Array.of_list (List.concat_map (fun wk -> wk.spans) (Array.to_list workers))

(* Client frames of one session: Open, one Msg per node, Finish. *)
let session_frames ?(sid = 1) ~spec ~n t =
  (Serve.Frame.Open { open_id = sid; protocol = spec; n; trace = 0L }
  :: List.map (fun (node, payload) -> Serve.Frame.Msg { session = sid; node; payload }) t.session)
  @ [ Serve.Frame.Finish { session = sid } ]

let wire_counts ~spec ~n t =
  let encoded = List.map Serve.Frame.encode_client (session_frames ~spec ~n t) in
  (List.fold_left (fun a s -> a + String.length s) 0 encoded, List.length encoded)

let wire_layer sp ck ~spec ~n templates =
  let frames = Array.map (session_frames ~spec ~n) templates in
  let nframes = Array.fold_left (fun a f -> a + List.length f) 0 frames in
  let encoded = ref [||] in
  let reps_enc =
    Spans.with_span sp "wire.encode" (fun () ->
        repeat_for ~seconds:0.3 (fun () ->
            encoded := Array.map (fun fs -> String.concat "" (List.map Serve.Frame.encode_client fs)) frames))
  in
  let decoded = ref [] in
  (* frames travel as bytes, the form Wire.push takes off a socket *)
  let streams = Array.to_list (Array.map Bytes.of_string !encoded) (* lint: allow bit-accounting -- wire frame bytes, not message bits *) in
  let reps_dec =
    Spans.with_span sp "wire.decode" (fun () ->
        repeat_for ~seconds:0.3 (fun () ->
            decoded :=
              streams
              |> List.map (fun bytes ->
                     let d = Serve.Wire.decoder () in
                     let len = Bytes.length bytes (* lint: allow bit-accounting -- wire frame bytes, not message bits *) in
                     Serve.Wire.push d bytes ~off:0 ~len;
                     let rec go acc =
                       match Serve.Wire.next d with
                       | Serve.Wire.Frame { kind; payload } -> go (Serve.Frame.decode_client ~kind payload :: acc)
                       | Serve.Wire.Awaiting | Serve.Wire.Corrupt _ -> List.rev acc
                     in
                     go [])))
  in
  let reencoded =
    List.map
      (fun fs ->
        String.concat ""
          (List.map (function Ok f -> Serve.Frame.encode_client f | Error e -> "error:" ^ e) fs))
      !decoded
  in
  check ck "wire.round_trip" (reencoded = Array.to_list !encoded)
    (lazy "decoded client frames do not re-encode to the same bytes");
  let bytes, count = wire_counts ~spec ~n templates.(0) in
  [
    m "wire.encode_ns_per_frame"
      (ratio (Spans.self sp "wire.encode") (float_of_int (nframes * reps_enc)) *. 1e9)
      "ns";
    m "wire.decode_ns_per_frame"
      (ratio (Spans.self sp "wire.decode") (float_of_int (nframes * reps_dec)) *. 1e9)
      "ns";
    m "wire.bytes_per_session" (float_of_int bytes) "B";
    m "wire.frames_per_session" (float_of_int count) "count";
  ]

(* The Registry entry's hardened referee folded over each template. *)
let registry_layer sp ck (Serve.Registry.Entry { protocol = p; render }) ~n templates =
  let bad = ref 0 in
  let reps =
    Spans.with_span sp "registry.referee" (fun () ->
        repeat_for ~seconds:0.3 (fun () ->
            Array.iter
              (fun t ->
                match Protocol.run_referee p.Protocol.referee ~n t.msgs with
                | Core.Verdict.Decided a when render a = t.expected -> ()
                | _ -> incr bad)
              templates))
  in
  check ck "registry.referee" (!bad = 0) (lazy "the registry referee disagreed with a template");
  ratio (Spans.self sp "registry.referee") (float_of_int (reps * Array.length templates)) *. 1e6

let engine_layer sp ck cfg ~spec ~n =
  let sessions = if cfg.smoke then 50 else 400 in
  let st =
    {
      Serve.Selftest.sessions;
      conns = 2;
      n;
      protocol = spec;
      faulty = 0.;
      seed = cfg.seed;
      templates = templates_count;
    }
  in
  let o = Spans.with_span sp "engine.selftest" (fun () -> Serve.Selftest.run st) in
  check ck "engine.selftest"
    (Serve.Selftest.passed o = Ok ())
    (lazy (match Serve.Selftest.passed o with Error e -> e | Ok () -> ""));
  ratio (Spans.self sp "engine.selftest") (float_of_int o.Serve.Selftest.o_sessions) *. 1e6

(* Server frames in one connection's output. *)
let server_frames out =
  let d = Serve.Wire.decoder () in
  let b = Bytes.of_string out (* lint: allow bit-accounting -- wire frame bytes, not message bits *) in
  Serve.Wire.push d b ~off:0 ~len:(Bytes.length b (* lint: allow bit-accounting -- wire frame bytes, not message bits *));
  let rec go acc =
    match Serve.Wire.next d with
    | Serve.Wire.Frame { kind; payload } -> go (Serve.Frame.decode_server ~kind payload :: acc)
    | Serve.Wire.Awaiting | Serve.Wire.Corrupt _ -> List.rev acc
  in
  go []

let engine_block = 64

(* The engine alone, as the daemon runs it (one domain): a fresh engine
   per block of [engine_block] sessions on one connection, each session's
   client bytes pushed through [Engine.feed_bytes], then [Engine.tick]
   until idle and [Engine.take_output].  Session ids count from 1 on a
   fresh engine, so the frames are encoded up front and the span [name]
   covers only engine calls: no socket and no client work.  Returns the
   span's self time per session. *)
let engine_core sp ck ~name ~spec ~n ~seconds templates =
  let streams =
    Array.init engine_block (fun i ->
        let t = templates.(i mod Array.length templates) in
        let frames = session_frames ~sid:(i + 1) ~spec ~n t in
        Bytes.of_string (String.concat "" (List.map Serve.Frame.encode_client frames)) (* lint: allow bit-accounting -- wire frame bytes, not message bits *))
  in
  let hello = Bytes.of_string (Serve.Frame.encode_client (Serve.Frame.Hello { version = Serve.Frame.version })) (* lint: allow bit-accounting -- wire frame bytes, not message bits *) in
  let config = { Serve.Engine.default_config with Serve.Engine.domains = Some 1 } in
  let bad = ref 0 and first_bad = ref "" in
  let blocks =
    repeat_for ~seconds (fun () ->
        let e = Serve.Engine.create config in
        match Serve.Engine.open_conn e with
        | Error why ->
            incr bad;
            first_bad := "open_conn: " ^ why
        | Ok c ->
            Serve.Engine.feed_bytes e c hello ~off:0 ~len:(Bytes.length hello (* lint: allow bit-accounting -- wire frame bytes, not message bits *));
            ignore (Serve.Engine.take_output e c);
            let outs =
              Spans.with_span sp name (fun () ->
                  Array.map
                    (fun b ->
                      Serve.Engine.feed_bytes e c b ~off:0 ~len:(Bytes.length b (* lint: allow bit-accounting -- wire frame bytes, not message bits *));
                      let ticks = ref 0 in
                      while !ticks < 100 && not (Serve.Engine.idle e) do
                        Serve.Engine.tick e;
                        incr ticks
                      done;
                      Serve.Engine.take_output e c)
                    streams)
            in
            Array.iteri
              (fun i out ->
                let t = templates.(i mod Array.length templates) in
                let decided =
                  List.exists
                    (function
                      | Ok (Serve.Frame.Verdict { session; status = Serve.Frame.Decided; payload; _ }) ->
                          session = i + 1 && payload = t.expected
                      | _ -> false)
                    (server_frames out)
                in
                if not decided then (
                  incr bad;
                  first_bad := Printf.sprintf "session %d: no Decided verdict equal to the offline rendering" (i + 1)))
              outs)
  in
  check ck name (!bad = 0) (lazy !first_bad);
  ratio (Spans.self sp name) (float_of_int (blocks * engine_block)) *. 1e6

(* The socket loop, where it dominates: a short closed loop of protocol
   [count] sessions with n = 8 against the same daemon.  Daemon CPU per
   session minus the engine's own time per session (by [engine_core]) is
   the cost of the socket loop and of session open/verdict. *)
let socket_probe sp ck cfg d clients ~seconds ~max_sessions =
  let spec = "count" and n = 8 in
  let entry =
    match Serve.Registry.lookup ~spec ~n with Ok e -> e | Error e -> raise (Serve_setup e)
  in
  let templates = build_templates cfg entry ~n in
  let cpu0 = cpu_seconds d.pid in
  let { workers; _ } = closed_loop ~spec ~n ~templates ~clients ~seconds ~max_sessions () in
  let d_cpu = cpu_seconds d.pid -. cpu0 in
  let sessions = Array.length (merge_workers ck workers) in
  let daemon_us = ratio d_cpu (float_of_int sessions) *. 1e6 in
  let core_us = engine_core sp ck ~name:"engine.core_count_8" ~spec ~n ~seconds templates in
  Printf.printf "socket probe (count, n = 8): %d sessions, daemon %.2f us/session, engine %.2f us/session\n"
    sessions daemon_us core_us;
  daemon_us -. core_us

(* The simulator, protocol and codec layers of a serve workload: the
   registry's hardened protocol run in-process on the templates. *)
let serve_sim_layers sp ck ~cal (Serve.Registry.Entry { protocol = p; render }) ~n templates =
  let sources = Array.to_list (Array.map (fun t -> Graph_source.of_graph t.graph) templates) in
  let reference =
    Array.to_list (Array.map (fun t -> (Sim.transcript_of_messages t.msgs).Sim.message_bits) templates)
  in
  let run_all () = List.iter (fun src -> ignore (Sim.run_source ~domains:2 p src)) sources in
  let untraced = raw_durations (measure ~cal ~seconds:0.3 ~min:5 run_all) in
  let check_out i out =
    check ck "simulator.template_output"
      (match out with Core.Verdict.Decided a -> render a = templates.(i).expected | _ -> false)
      (lazy "in-process run of a template did not decide its rendering")
  in
  let split = layer_split sp ck ~width:2 p sources ~check_out ~reference in
  let codec_bits = codec_layer sp ck ~n split.msgs in
  split_metrics sp ~untraced_s:(median untraced) ~codec_bits split

let serve_workload cfg ck sp ~spec ~n =
  let max_sessions = if cfg.smoke then 50 else max_int in
  let entry =
    match Serve.Registry.lookup ~spec ~n with Ok e -> e | Error e -> raise (Serve_setup e)
  in
  let boot () =
    let templates = build_templates cfg entry ~n in
    let d, c0 = boot_daemon cfg in
    let c1 = connect_client d in
    handshake c0;
    handshake c1;
    (templates, d, [| c0; c1 |])
  in
  let teardown (_, d, clients) =
    Array.iter Serve.Client.close clients;
    let st = stop_daemon d in
    check ck "serve.daemon_exit" (st = Unix.WEXITED 0)
      (lazy
        (match st with
        | Unix.WEXITED c -> Printf.sprintf "daemon exited %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "daemon killed by signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "daemon stopped by signal %d" s))
  in
  let cal = Calib.create ~domains:2 in
  let ((templates, d, clients) as live_setup), setup_s = setup ~cal boot ~discard:teardown in
  Fun.protect
    ~finally:(fun () -> teardown live_setup)
    (fun () ->
      (* bit accounting: every template's vector has the same exact
         size, and so does every session's client byte stream *)
      let counts t =
        let tr = Sim.transcript_of_messages t.msgs in
        let bytes, frames = wire_counts ~spec ~n t in
        (tr.Sim.total_bits, tr.Sim.max_bits, bytes, frames)
      in
      let c0 = counts templates.(0) in
      let reference_bits = (Sim.transcript_of_messages templates.(0).msgs).Sim.message_bits in
      let reference_bits =
        if cfg.inject = Corrupt_transcript then perturb_bits reference_bits else reference_bits
      in
      Array.iter
        (fun t ->
          check ck "guard.templates_agree" (counts t = c0)
            (lazy "two templates of one n differ in bit or wire accounting");
          check ck "transcript.template_vs_reference"
            ((Sim.transcript_of_messages t.msgs).Sim.message_bits = reference_bits)
            (lazy "a template's message_bits differ from the reference"))
        templates;
      guard ck cfg ~n c0;
      let warm_s = if cfg.smoke then 0. else 0.5 in
      ignore
        (closed_loop ~spec ~n ~templates ~clients ~seconds:warm_s
           ~max_sessions:(if cfg.smoke then 2 else max_int) ());
      let window = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
      let d_cpu0 = cpu_seconds d.pid and c_cpu0 = own_cpu_seconds () in
      (* the traced run's CPU figures must not include calibration work *)
      let loop =
        closed_loop ?cal:(if cfg.trace then None else Some cal) ~spec ~n ~templates ~clients
          ~seconds:window ~max_sessions ()
      in
      let workers = loop.workers and wall = loop.wall in
      let d_cpu = cpu_seconds d.pid -. d_cpu0 and c_cpu = own_cpu_seconds () -. c_cpu0 in
      let intervals = merge_workers ck workers in
      let sessions = float_of_int (Array.length intervals) in
      let rate = ratio sessions wall in
      print_samples (durations intervals);
      if not cfg.trace then (
        Printf.printf "unscaled: %.2f sessions/s, p50 %.2f us, p99 %.2f us\n" rate
          (median (durations intervals) *. 1e6)
          (percentile (durations intervals) 0.99 *. 1e6);
        report_calibration cal;
        let lat = loop.scaled_lat in
        let rate = ratio sessions loop.scaled_wall in
        [
          m "setup_s" setup_s "s";
          m "nodes_per_s" (rate *. float_of_int n) "1/s";
          m "sessions_per_s" rate "1/s";
          m "session_p50_us" (median lat *. 1e6) "us";
          m "peak_rss_mb" (peak_rss_mb (string_of_int d.pid)) "MB";
        ])
      else
        (* a second window with one span per session *)
        let traced_rate =
          let id = Spans.enter sp "client.window" in
          let { workers; wall; _ } =
            closed_loop ~spec ~n ~templates ~clients ~seconds:window ~max_sessions ()
          in
          let spans = merge_workers ck workers in
          Array.iter (fun (t0, t1) -> Spans.record sp ~parent:id "client.session" ~t0 ~t1) spans;
          Spans.leave sp id;
          ratio (float_of_int (Array.length spans)) wall
        in
        let daemon_us = ratio d_cpu sessions *. 1e6 in
        let engine_us = engine_layer sp ck cfg ~spec ~n in
        let core_us =
          engine_core sp ck ~name:"engine.core" ~spec ~n ~seconds:(if cfg.smoke then 0.1 else 1.) templates
        in
        let socket_us =
          socket_probe sp ck cfg d clients ~seconds:(if cfg.smoke then 0.2 else 2.) ~max_sessions
        in
        let registry_us = registry_layer sp ck entry ~n templates in
        let wire = wire_layer sp ck ~spec ~n templates in
        serve_sim_layers sp ck ~cal entry ~n templates
        @ zero power_sum_absent
        @ wire
        @ [
            m "registry.referee_us_per_session" registry_us "us";
            m "engine.us_per_session" engine_us "us";
            m "engine.core_us_per_session" core_us "us";
            m "daemon.cpu_us_per_session" daemon_us "us";
            m "daemon.busy_frac" (ratio d_cpu wall) "frac";
            m "daemon.socket_us_per_session" socket_us "us";
            m "client.cpu_us_per_session" (ratio c_cpu sessions *. 1e6) "us";
            m "session_p99_us" (percentile (durations intervals) 0.99 *. 1e6) "us";
            m "trace.overhead_ratio" (ratio rate traced_rate) "x";
          ])

(* ---------- entry point ---------- *)

let workloads =
  [
    ("forest-tree-1m", forest);
    ("degeneracy-k5-2048", degeneracy);
    ("serve-forest-256", fun cfg ck sp -> serve_workload cfg ck sp ~spec:"forest" ~n:256);
  ]

type result = { ck : checks; metrics : metric list }

(* Where a traced run writes its spans, relative to the checkout root. *)
let spans_dir = "perfbench/out"

let run_workload cfg =
  let ck = checks () in
  let sp = Spans.create ~run_id:(Printf.sprintf "%s-seed%d-pid%d" cfg.workload cfg.seed (Unix.getpid ())) in
  let f = List.assoc cfg.workload workloads in
  let metrics =
    match f cfg ck sp with
    | ms -> ms
    | exception e ->
        fail ck (cfg.workload ^ ".exception") (Printexc.to_string e);
        []
  in
  if cfg.trace then (
    (try Unix.mkdir spans_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Spans.write sp
      (Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.jsonl" cfg.workload cfg.seed)));
  { ck; metrics }

let ok_frac ck = 1. -. ratio (float_of_int ck.failed) (float_of_int (max 1 ck.attempted))

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result cfg r =
  let metrics =
    if cfg.trace then r.metrics else r.metrics @ [ m "ok_frac" (ok_frac r.ck) "frac" ]
  in
  Hashtbl.iter
    (fun name (count, detail) -> Printf.printf "FAILED %s (%d): %s\n" name count detail)
    r.ck.failures;
  List.iter (fun x -> Printf.printf "%-40s %16.6g %s\n" x.name x.value x.unit_) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.ck.failed = 0) (max 1 r.ck.attempted) r.ck.failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_)
          metrics))

(* The benchmark's own tests: every workload at tiny size with every
   check, clean and with each corruption; a corruption must be counted
   as failed. *)
let smoke base =
  let cases =
    List.concat_map
      (fun (w, _) ->
        [
          (w, false, No_inject, false);
          (w, true, No_inject, false);
          (w, false, Corrupt_payload, true);
          (w, false, Corrupt_transcript, true);
        ])
      workloads
  in
  let bad =
    List.filter
      (fun (w, trace, inject, expect_fail) ->
        let r = run_workload { base with workload = w; trace; inject; smoke = true } in
        let failed = r.ck.failed > 0 in
        Printf.printf "smoke %-20s trace=%b inject=%s attempted=%d failed=%d %s\n%!" w trace
          (match inject with
          | No_inject -> "none"
          | Corrupt_payload -> "payload"
          | Corrupt_transcript -> "transcript")
          r.ck.attempted r.ck.failed
          (if failed = expect_fail then "ok" else "UNEXPECTED");
        Hashtbl.iter (fun name (count, detail) -> Printf.printf "  %s (%d): %s\n" name count detail) r.ck.failures;
        failed <> expect_fail)
      cases
  in
  if bad = [] then (
    print_endline "smoke: all cases behaved as expected";
    0)
  else 1

let usage =
  "refbench --workload NAME --seed N --seconds S --trace 0|1 --refnet PATH [--smoke]"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let refnet = ref "" and smoke_mode = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--refnet", Arg.Set_string refnet, "PATH to the refnet binary");
      ("--smoke", Arg.Set smoke_mode, " run every workload tiny, with negative cases");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let cfg =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      refnet = !refnet;
      smoke = false;
      inject = No_inject;
    }
  in
  if !refnet = "" || not (Sys.file_exists !refnet) then (
    prerr_endline "refbench: --refnet must name the built refnet binary";
    exit 2);
  if !smoke_mode then exit (smoke { cfg with seconds = 0.2 })
  else if not (List.mem_assoc cfg.workload workloads) then (
    prerr_endline ("refbench: unknown workload; one of " ^ String.concat ", " (List.map fst workloads));
    exit 2)
  else print_result cfg (run_workload cfg)

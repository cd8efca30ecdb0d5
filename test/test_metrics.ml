(* Metrics registry, bound audits and the offline report pipeline.

   The load-bearing contracts: log₂ bucket boundaries sit at exact
   powers of two, counters saturate instead of wrapping, snapshots of a
   deterministic run are byte-identical at every Parallel width, and
   [refnet report]'s offline aggregation of a JSONL trace reproduces the
   live aggregates byte-for-byte. *)

open Refnet_graph

(* ---------- histogram buckets ---------- *)

let test_bucket_boundaries () =
  let idx = Core.Metrics.Histogram.bucket_index in
  Alcotest.(check int) "0 -> bucket 0" 0 (idx 0);
  Alcotest.(check int) "1 -> bucket 1" 1 (idx 1);
  for i = 1 to 40 do
    (* A power of two starts a fresh bucket; one below it closes the
       previous bucket. *)
    Alcotest.(check int)
      (Printf.sprintf "2^%d starts bucket %d" i (i + 1))
      (i + 1)
      (idx (1 lsl i));
    Alcotest.(check int)
      (Printf.sprintf "2^%d - 1 closes bucket %d" i i)
      i
      (idx ((1 lsl i) - 1))
  done;
  Alcotest.(check int) "max_int bucket" 62 (idx max_int)

let test_bucket_range_roundtrip () =
  for i = 0 to 62 do
    let lo, hi = Core.Metrics.Histogram.bucket_range i in
    Alcotest.(check int) "lo lands in bucket i" i (Core.Metrics.Histogram.bucket_index lo);
    Alcotest.(check int) "hi lands in bucket i" i (Core.Metrics.Histogram.bucket_index hi);
    if i = 0 then Alcotest.(check (pair int int)) "bucket 0 = {0}" (0, 0) (lo, hi)
    else Alcotest.(check int) "lo = 2^(i-1)" (1 lsl (i - 1)) lo
  done

let test_histogram_observe () =
  let m = Core.Metrics.create ~clock:(fun () -> 0.) () in
  let h = Core.Metrics.Histogram.histogram m "h" in
  List.iter (Core.Metrics.Histogram.observe h) [ 0; 1; 1; 3; 4; 7; 8 ];
  Alcotest.(check int) "count" 7 (Core.Metrics.Histogram.count h);
  Alcotest.(check int) "sum" 24 (Core.Metrics.Histogram.sum h);
  Alcotest.(check int) "max" 8 (Core.Metrics.Histogram.max_value h);
  Alcotest.(check (list (pair int int)))
    "buckets" [ (0, 1); (1, 2); (2, 1); (3, 2); (4, 1) ]
    (Core.Metrics.Histogram.buckets h);
  Alcotest.check_raises "negative observation"
    (Invalid_argument "Metrics.Histogram.observe: negative value") (fun () ->
      Core.Metrics.Histogram.observe h (-1))

let test_histogram_quantiles () =
  let m = Core.Metrics.create ~clock:(fun () -> 0.) () in
  let h = Core.Metrics.Histogram.histogram m "h" in
  Alcotest.(check int) "empty histogram quantile" 0 (Core.Metrics.Histogram.quantile h 0.5);
  (* 100 observations of value 1..100: the log₂ buckets bound each
     quantile by its bucket's upper edge, and p100 is the exact max *)
  for v = 1 to 100 do
    Core.Metrics.Histogram.observe h v
  done;
  let q p = Core.Metrics.Histogram.quantile h p in
  Alcotest.(check int) "p50 in (32..63] bucket" 63 (q 0.5);
  Alcotest.(check int) "p90 clamped to observed max" 100 (q 0.9);
  Alcotest.(check int) "p99 capped at observed max" 100 (q 0.99);
  Alcotest.(check int) "p0 clamps to smallest bucket edge" 1 (q 0.0);
  Alcotest.(check int) "q>1 clamps to max" 100 (q 2.0);
  Alcotest.(check int) "q<0 clamps like q=0" (q 0.0) (q (-1.0));
  (* monotone in q *)
  let prev = ref 0 in
  List.iter
    (fun p ->
      let v = q p in
      if v < !prev then Alcotest.failf "quantile not monotone at %g" p;
      prev := v)
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ];
  (* snapshot agrees with the live accessor *)
  let s = Core.Metrics.snapshot m in
  match List.assoc_opt "h" s.Core.Metrics.histograms with
  | Some hs ->
    List.iter
      (fun p ->
        Alcotest.(check int)
          (Printf.sprintf "snapshot quantile %g" p)
          (q p)
          (Core.Metrics.snapshot_quantile hs p))
      [ 0.5; 0.9; 0.99 ]
  | None -> Alcotest.fail "histogram missing from snapshot"

let test_histogram_sum_saturates () =
  let m = Core.Metrics.create ~clock:(fun () -> 0.) () in
  let h = Core.Metrics.Histogram.histogram m "h" in
  Core.Metrics.Histogram.observe h max_int;
  Core.Metrics.Histogram.observe h max_int;
  Alcotest.(check int) "sum saturates" max_int (Core.Metrics.Histogram.sum h);
  Alcotest.(check int) "count exact" 2 (Core.Metrics.Histogram.count h)

(* ---------- counters ---------- *)

let test_counter_saturation () =
  let m = Core.Metrics.create ~clock:(fun () -> 0.) () in
  let c = Core.Metrics.Counter.counter m "c" in
  Core.Metrics.Counter.add c (max_int - 5);
  Core.Metrics.Counter.add c 10;
  Alcotest.(check int) "saturates at max_int" max_int (Core.Metrics.Counter.value c);
  Core.Metrics.Counter.incr c;
  Alcotest.(check int) "incr stays saturated" max_int (Core.Metrics.Counter.value c);
  Alcotest.check_raises "negative add" (Invalid_argument "Metrics.Counter.add: negative increment")
    (fun () -> Core.Metrics.Counter.add c (-1))

let test_kind_collision () =
  let m = Core.Metrics.create ~clock:(fun () -> 0.) () in
  let _ = Core.Metrics.Counter.counter m "x" in
  (* Same name, same kind: fine (same metric). *)
  Core.Metrics.Counter.incr (Core.Metrics.Counter.counter m "x");
  Alcotest.(check int) "same name, same counter" 1
    (Core.Metrics.Counter.value (Core.Metrics.Counter.counter m "x"));
  match Core.Metrics.Histogram.histogram m "x" with
  | (_ : Core.Metrics.Histogram.histogram) ->
    Alcotest.fail "registering \"x\" as a histogram should raise"
  | exception Invalid_argument _ -> ()

(* ---------- timers ---------- *)

let test_timer_spans_and_domains () =
  let ticks = ref [ 1.0; 3.5 ] in
  let clock () =
    match !ticks with
    | t :: rest ->
      ticks := rest;
      t
    | [] -> 100.
  in
  let m = Core.Metrics.create ~clock () in
  let v = Core.Metrics.time m "t" (fun () -> 42) in
  Alcotest.(check int) "time passes the result through" 42 v;
  let tm = Core.Metrics.Timer.timer m "t" in
  Alcotest.(check int) "one span" 1 (Core.Metrics.Timer.count tm);
  Alcotest.(check (float 1e-9)) "elapsed" 2.5 (Core.Metrics.Timer.total tm);
  (* add: no span count, out-of-range domains clamp, negatives clamp. *)
  Core.Metrics.Timer.add tm ~domain:999 1.0;
  Core.Metrics.Timer.add tm ~domain:(-3) 1.0;
  Core.Metrics.Timer.add tm (-5.0);
  Alcotest.(check int) "add does not bump span count" 1 (Core.Metrics.Timer.count tm);
  Alcotest.(check (float 1e-9)) "total accumulates" 4.5 (Core.Metrics.Timer.total tm);
  match Core.Metrics.Timer.by_domain tm with
  | [ (0, a); (63, b) ] ->
    (* Slot 0 holds the span's 2.5 plus the clamped -3 and -5.0 adds. *)
    Alcotest.(check (float 1e-9)) "slot 0" 3.5 a;
    Alcotest.(check (float 1e-9)) "slot 63 (clamped from 999)" 1.0 b
  | l -> Alcotest.failf "unexpected domain table (%d entries)" (List.length l)

(* ---------- snapshot determinism across Parallel widths ---------- *)

let snapshot_json_at_width ~domains g =
  let m = Core.Metrics.create ~clock:(fun () -> 0.) () in
  let _ = Core.Simulator.run ~domains ~metrics:m (Core.Degeneracy_protocol.reconstruct ~k:2 ()) g in
  let _ =
    Core.Simulator.run ~domains ~metrics:m
      ~faults:(Core.Faults.of_list [ (1, Core.Faults.Crash) ])
      Core.Forest_protocol.hardened g
  in
  Core.Metrics.to_json (Core.Metrics.snapshot m)

let test_snapshot_deterministic_across_widths () =
  let g = Generators.gnp (Random.State.make [| 5 |]) 24 0.2 in
  let reference = snapshot_json_at_width ~domains:1 g in
  List.iter
    (fun w ->
      Alcotest.(check string)
        (Printf.sprintf "width %d matches width 1" w)
        reference
        (snapshot_json_at_width ~domains:w g))
    [ 2; 4; 8 ];
  (* Snapshotting is read-only: a second export is byte-identical. *)
  Alcotest.(check string) "snapshot is repeatable" reference (snapshot_json_at_width ~domains:1 g)

let test_exports_shape () =
  let m = Core.Metrics.create ~clock:(fun () -> 0.) () in
  Core.Metrics.Counter.add (Core.Metrics.Counter.counter m "refnet_runs_total") 3;
  let h = Core.Metrics.Histogram.histogram m "refnet_message_bits" in
  List.iter (Core.Metrics.Histogram.observe h) [ 0; 1; 4 ];
  Core.Metrics.Gauge.set (Core.Metrics.Gauge.gauge m "refnet_n") 24.;
  let _ = Core.Metrics.time m "refnet_local_phase" (fun () -> ()) in
  let s = Core.Metrics.snapshot m in
  Alcotest.(check string) "canonical json"
    ("{\"counters\":{\"refnet_runs_total\":3},\"gauges\":{\"refnet_n\":24.0},"
    ^ "\"histograms\":{\"refnet_message_bits\":{\"count\":3,\"sum\":5,\"max\":4,"
    ^ "\"p50\":1,\"p90\":4,\"p99\":4,"
    ^ "\"buckets\":{\"0\":1,\"1\":1,\"3\":1}}},"
    ^ "\"timers\":{\"refnet_local_phase\":{\"count\":1,\"total_seconds\":0.0,\"by_domain\":{}}}}")
    (Core.Metrics.to_json s);
  let prom = Core.Metrics.to_prometheus s in
  let contains sub =
    Alcotest.(check bool) (Printf.sprintf "prometheus has %S" sub) true
      (let n = String.length prom and k = String.length sub in
       let rec go i = i + k <= n && (String.sub prom i k = sub || go (i + 1)) in
       go 0)
  in
  contains "# TYPE refnet_runs_total counter";
  contains "refnet_runs_total 3";
  contains "# TYPE refnet_message_bits histogram";
  contains "refnet_message_bits_bucket{le=\"+Inf\"} 3";
  contains "refnet_message_bits_sum 5";
  contains "refnet_message_bits_count 3";
  contains "refnet_message_bits{quantile=\"0.5\"} 1";
  contains "refnet_message_bits{quantile=\"0.9\"} 4";
  contains "refnet_message_bits{quantile=\"0.99\"} 4";
  contains "# TYPE refnet_local_phase_seconds_total counter";
  contains "refnet_local_phase_spans_total 1"

(* ---------- report: offline JSONL replay = live aggregation ---------- *)

let traced_runs trace =
  let g = Generators.gnp (Random.State.make [| 9 |]) 18 0.25 in
  let tree = Generators.random_tree (Random.State.make [| 10 |]) 18 in
  let _ = Core.Simulator.run ~trace Core.Forest_protocol.reconstruct tree in
  let _ = Core.Simulator.run ~trace (Core.Degeneracy_protocol.reconstruct ~k:3 ()) g in
  let _ =
    Core.Simulator.run ~trace
      ~faults:(Core.Faults.of_list
                 [ (1, Core.Faults.Crash); (2, Core.Faults.Duplicate); (3, Core.Faults.Flip [ 0 ]) ])
      Core.Forest_protocol.hardened g
  in
  let _ =
    Core.Coalition.run ~trace Core.Connectivity_parts.decide g
      ~parts:(Core.Coalition.partition_by_ranges ~n:18 ~parts:3)
  in
  ()

let test_report_roundtrip () =
  (* One run records events in memory; the same events then reach the
     aggregator by three routes — live sink, re-parsed JSON lines, and a
     JSONL file on disk — and all four reports must render identically. *)
  let sink, events = Core.Trace.memory () in
  let live = Core.Report.create () in
  let both = Core.Trace.make (fun ev ->
      Core.Trace.emit sink ev;
      Core.Report.ingest_event live ev)
  in
  traced_runs both;
  let evs = events () in
  let from_events = Core.Report.create () in
  List.iter (Core.Report.ingest_event from_events) evs;
  let from_lines = Core.Report.create () in
  List.iter
    (fun ev -> Core.Report.ingest_line from_lines (Core.Trace.json_of_event ev))
    evs;
  let path = Filename.temp_file "refnet_report" ".jsonl" in
  let from_file = Core.Report.create () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter
        (fun ev ->
          output_string oc (Core.Trace.json_of_event ev);
          output_char oc '\n')
        evs;
      close_out oc;
      Core.Report.ingest_file from_file path);
  let reference = Core.Report.to_json live in
  Alcotest.(check string) "replay from events" reference (Core.Report.to_json from_events);
  Alcotest.(check string) "replay from lines" reference (Core.Report.to_json from_lines);
  Alcotest.(check string) "replay from file" reference (Core.Report.to_json from_file);
  Alcotest.(check int) "event count" (List.length evs) (Core.Report.events live);
  (* The faulty run's injections are visible by kind. *)
  let has sub =
    let n = String.length reference and k = String.length sub in
    let rec go i = i + k <= n && (String.sub reference i k = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "fault kinds counted" true
    (has "\"crash\":1" && has "\"duplicate\":1" && has "\"flip\":1")

let test_report_rejects_garbage () =
  let r = Core.Report.create () in
  Core.Report.ingest_line r "";
  Core.Report.ingest_line r "   ";
  Alcotest.(check int) "blank lines ignored" 0 (Core.Report.events r);
  let bad line =
    match Core.Report.ingest_line r line with
    | () -> Alcotest.failf "accepted %S" line
    | exception Failure _ -> ()
  in
  bad "not json";
  bad "{\"event\":\"span_begin\",\"label\":\"x\",\"n\":3} trailing";
  bad "{\"event\":\"mystery\",\"n\":1}"

(* ---------- bound audits ---------- *)

let test_budget_of_label () =
  let shape label =
    match Core.Bound_audit.budget_of_label label with
    | Some b -> Some b.Core.Bound_audit.b_shape
    | None -> None
  in
  Alcotest.(check bool) "forest" true (shape "forest-reconstruct" = Some Core.Bound_audit.Log_n);
  Alcotest.(check bool) "degeneracy k=3" true
    (shape "degeneracy-3-reconstruct" = Some (Core.Bound_audit.K2_log_n 3));
  Alcotest.(check bool) "bounded degree 4" true
    (shape "bounded-degree-4" = Some (Core.Bound_audit.K_log_n 4));
  Alcotest.(check bool) "coalition parts=4" true
    (shape "coalition-connectivity[parts=4]" = Some (Core.Bound_audit.K_log_n 4));
  Alcotest.(check bool) "sketch" true
    (shape "sketch-connectivity(seed=7)" = Some Core.Bound_audit.Log_sq);
  Alcotest.(check bool) "full information" true
    (shape "full-information" = Some Core.Bound_audit.Linear);
  Alcotest.(check bool) "hardened variants excluded" true
    (shape "forest-recognize+hardened" = None);
  Alcotest.(check bool) "sealed variants excluded" true
    (shape "forest-reconstruct+sealed" = None);
  Alcotest.(check bool) "unknown labels excluded" true (shape "delta-square" = None)

let test_shape_units () =
  let w n = Core.Bounds.id_bits n in
  Alcotest.(check int) "Log_n" (w 64) (Core.Bound_audit.shape_units Core.Bound_audit.Log_n 64);
  Alcotest.(check int) "K_log_n" (4 * w 64)
    (Core.Bound_audit.shape_units (Core.Bound_audit.K_log_n 4) 64);
  Alcotest.(check int) "K2_log_n" (9 * w 64)
    (Core.Bound_audit.shape_units (Core.Bound_audit.K2_log_n 3) 64);
  Alcotest.(check int) "Log_sq" (w 64 * w 64)
    (Core.Bound_audit.shape_units Core.Bound_audit.Log_sq 64);
  Alcotest.(check int) "Linear" 64 (Core.Bound_audit.shape_units Core.Bound_audit.Linear 64)

let test_audit_pass_and_fail () =
  let budget = { Core.Bound_audit.b_shape = Core.Bound_audit.Log_n; c_max = 4.0; n_min = 8 } in
  let obs n max_bits = { Core.Bound_audit.o_n = n; o_max_bits = max_bits } in
  (* Within budget: c_fit is the worst audited ratio; n=4 is skipped. *)
  let v =
    Core.Bound_audit.audit ~label:"x" budget
      [ obs 4 1000; obs 16 10; obs 64 21 ]
  in
  Alcotest.(check bool) "passes" true v.Core.Bound_audit.v_passed;
  Alcotest.(check int) "audited" 2 v.Core.Bound_audit.v_observations;
  Alcotest.(check int) "skipped" 1 v.Core.Bound_audit.v_skipped;
  (* id_bits 16 = 5 -> 10/5 = 2.0; id_bits 64 = 7 -> 21/7 = 3.0. *)
  Alcotest.(check (float 1e-9)) "c_fit" 3.0 v.Core.Bound_audit.v_c_fit;
  Alcotest.(check int) "worst n" 64 v.Core.Bound_audit.v_worst_n;
  (* Over budget fails. *)
  let v = Core.Bound_audit.audit ~label:"x" budget [ obs 16 25 ] in
  Alcotest.(check bool) "fails over budget" false v.Core.Bound_audit.v_passed;
  (* Nothing audited (all below n_min): vacuously passes. *)
  let v = Core.Bound_audit.audit ~label:"x" budget [ obs 4 1000 ] in
  Alcotest.(check bool) "vacuous pass" true v.Core.Bound_audit.v_passed;
  Alcotest.(check int) "vacuous worst n" 0 v.Core.Bound_audit.v_worst_n

let test_report_audits_flagships () =
  (* A small sweep through the report pipeline: every flagship protocol
     label is audited and passes its budget. *)
  let r = Core.Report.create () in
  let trace = Core.Report.sink r in
  List.iter
    (fun n ->
      let rng = Random.State.make [| 3; n |] in
      let _ = Core.Simulator.run ~trace Core.Forest_protocol.reconstruct
          (Generators.random_tree rng n)
      in
      let _ = Core.Simulator.run ~trace
          (Core.Degeneracy_protocol.reconstruct ~k:2 ())
          (Generators.gnp rng n 0.15)
      in
      ())
    [ 16; 32; 64 ];
  let verdicts = Core.Report.verdicts r in
  Alcotest.(check int) "two audited labels" 2 (List.length verdicts);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (v.Core.Bound_audit.v_label ^ " passes")
        true v.Core.Bound_audit.v_passed)
    verdicts;
  Alcotest.(check int) "no violations" 0 (List.length (Core.Report.violations r))

let () =
  Alcotest.run "metrics"
    [
      ( "histograms",
        [
          Alcotest.test_case "bucket boundaries at powers of two" `Quick test_bucket_boundaries;
          Alcotest.test_case "bucket_range round-trips" `Quick test_bucket_range_roundtrip;
          Alcotest.test_case "observe" `Quick test_histogram_observe;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "sum saturates" `Quick test_histogram_sum_saturates;
        ] );
      ( "counters",
        [
          Alcotest.test_case "saturation and guards" `Quick test_counter_saturation;
          Alcotest.test_case "kind collision" `Quick test_kind_collision;
        ] );
      ( "timers", [ Alcotest.test_case "spans and domains" `Quick test_timer_spans_and_domains ] );
      ( "snapshots",
        [
          Alcotest.test_case "deterministic across widths" `Quick
            test_snapshot_deterministic_across_widths;
          Alcotest.test_case "export formats" `Quick test_exports_shape;
        ] );
      ( "report",
        [
          Alcotest.test_case "offline replay equals live" `Quick test_report_roundtrip;
          Alcotest.test_case "rejects malformed lines" `Quick test_report_rejects_garbage;
        ] );
      ( "bound audit",
        [
          Alcotest.test_case "budgets from labels" `Quick test_budget_of_label;
          Alcotest.test_case "shape units" `Quick test_shape_units;
          Alcotest.test_case "pass and fail" `Quick test_audit_pass_and_fail;
          Alcotest.test_case "flagship sweep passes" `Quick test_report_audits_flagships;
        ] );
    ]

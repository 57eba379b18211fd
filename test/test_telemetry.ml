(* The deterministic telemetry layer: tracer semantics, the metrics
   registry, the three exporters (round-tripped where a parser
   exists), and the stack-level contract — telemetry observes the
   tuning computation and never steers it. *)

open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space
module Telemetry = Harmony_telemetry.Telemetry
module Export = Harmony_telemetry.Export
module Tjson = Harmony_telemetry.Tjson

(* ------------------------------------------------------------------ *)
(* Tracer semantics *)

let event_name = function
  | Telemetry.Begin { name; _ }
  | Telemetry.End { name; _ }
  | Telemetry.Instant { name; _ } ->
      name

let event_ts = function
  | Telemetry.Begin { ts; _ } | Telemetry.End { ts; _ }
  | Telemetry.Instant { ts; _ } ->
      ts

(* Open spans: begins minus ends among the recorded events. *)
let depth t =
  List.fold_left
    (fun d -> function
      | Telemetry.Begin _ -> d + 1
      | Telemetry.End _ -> d - 1
      | Telemetry.Instant _ -> d)
    0 (Telemetry.events t)

let gauge_value t name = List.assoc_opt name (Telemetry.gauges t)

let test_span_nesting () =
  let t = Telemetry.create () in
  let r =
    Telemetry.span t "outer" (fun () ->
        Alcotest.(check int) "depth inside outer" 1 (depth t);
        Telemetry.span t "inner" (fun () ->
            Alcotest.(check int) "depth inside inner" 2 (depth t));
        17)
  in
  Alcotest.(check int) "span returns f's value" 17 r;
  Alcotest.(check int) "all spans closed" 0 (depth t);
  let names = List.map event_name (Telemetry.events t) in
  Alcotest.(check (list string))
    "record order" [ "outer"; "inner"; "inner"; "outer" ] names;
  (match Telemetry.events t with
  | [ Telemetry.Begin _; Telemetry.Begin _; Telemetry.End _; Telemetry.End _ ]
    ->
      ()
  | _ -> Alcotest.fail "expected Begin Begin End End");
  (* The default clock is logical: event sequence numbers. *)
  Alcotest.(check (list (float 1e-9)))
    "logical timestamps" [ 0.0; 1.0; 2.0; 3.0 ]
    (List.map event_ts (Telemetry.events t))

let test_span_end_on_exception () =
  let t = Telemetry.create () in
  (try Telemetry.span t "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span closed by the exception path" 0 (depth t);
  match Telemetry.events t with
  | [ Telemetry.Begin _; Telemetry.End _ ] -> ()
  | _ -> Alcotest.fail "expected a Begin/End pair"

let test_injected_clock () =
  let fake = ref 100.0 in
  let t = Telemetry.create ~clock:(fun () -> !fake) () in
  Telemetry.instant t "a";
  fake := 250.0;
  Telemetry.instant t "b";
  Alcotest.(check (list (float 1e-9)))
    "clock readings recorded" [ 100.0; 250.0 ]
    (List.map event_ts (Telemetry.events t))

let test_off_is_noop () =
  let t = Telemetry.off in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  let r = Telemetry.span t "s" (fun () -> 3) in
  Alcotest.(check int) "span still runs f" 3 r;
  Telemetry.instant t "i";
  Telemetry.incr t "c";
  Telemetry.gauge t "g" 1.0;
  Telemetry.observe t "h" 1.0;
  Alcotest.(check int) "no events" 0 (Telemetry.event_count t);
  Alcotest.(check int) "counter reads 0" 0 (Telemetry.counter_value t "c");
  Alcotest.(check bool) "no gauge" true (gauge_value t "g" = None);
  Alcotest.(check int) "no histograms" 0 (List.length (Telemetry.histograms t))

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_gauge_handle () =
  let t = Telemetry.create () in
  let g = Telemetry.gauge_handle t "g" in
  Alcotest.(check bool) "resolving exports nothing" true
    (Telemetry.gauges t = [] && gauge_value t "g" = None);
  Telemetry.set g 2.5;
  Alcotest.(check bool) "set through the handle" true
    (gauge_value t "g" = Some 2.5);
  Telemetry.gauge t "g" 4.0;
  Telemetry.gauge_max t "g" 1.0;
  Alcotest.(check bool) "the name writes the same slot" true
    (Telemetry.gauges t = [ ("g", 4.0) ]);
  Telemetry.set g 0.5;
  Alcotest.(check bool) "and the handle sees it" true
    (gauge_value t "g" = Some 0.5);
  Telemetry.set (Telemetry.gauge_handle Telemetry.off "g") 1.0;
  Alcotest.(check bool) "off's handle is inert" true
    (gauge_value Telemetry.off "g" = None)

let test_registry () =
  let t = Telemetry.create () in
  Telemetry.incr t "b.counter";
  Telemetry.incr t ~by:4 "a.counter";
  Telemetry.incr t "b.counter";
  Telemetry.gauge t "g" 2.0;
  Telemetry.gauge_max t "hw" 3.0;
  Telemetry.gauge_max t "hw" 1.0;
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("a.counter", 4); ("b.counter", 2) ]
    (Telemetry.counters t);
  Alcotest.(check bool) "gauge set" true (gauge_value t "g" = Some 2.0);
  Alcotest.(check bool)
    "gauge_max keeps the high-water mark" true
    (gauge_value t "hw" = Some 3.0);
  Telemetry.observe t ~bounds:[| 1.0; 10.0 |] "h" 0.5;
  Telemetry.observe t "h" 5.0;
  Telemetry.observe t "h" 99.0;
  match Telemetry.histograms t with
  | [ ("h", snap) ] ->
      Alcotest.(check int) "count" 3 snap.Telemetry.count;
      Alcotest.(check (float 1e-9)) "sum" 104.5 snap.Telemetry.sum;
      Alcotest.(check (list (pair (float 1e-9) int)))
        "buckets: bounds fixed at first observe, plus overflow"
        [ (1.0, 1); (10.0, 1); (infinity, 1) ]
        snap.Telemetry.buckets
  | _ -> Alcotest.fail "expected one histogram"

let test_declare_histogram () =
  let t = Telemetry.create () in
  Telemetry.declare_histogram t ~bounds:[| 1.0; 5.0; 20.0 |] "lat";
  (* Bounds at a later observe are ignored: the declaration fixed them. *)
  Telemetry.observe t ~bounds:[| 1000.0 |] "lat" 3.0;
  Telemetry.observe t "lat" 0.5;
  Telemetry.observe t "lat" 99.0;
  (match Telemetry.histograms t with
  | [ ("lat", snap) ] ->
      Alcotest.(check (list (pair (float 1e-9) int)))
        "declared bounds stick"
        [ (1.0, 1); (5.0, 1); (20.0, 0); (infinity, 1) ]
        snap.Telemetry.buckets
  | _ -> Alcotest.fail "expected one histogram");
  (* Re-declaring an existing histogram is a no-op. *)
  Telemetry.declare_histogram t ~bounds:[| 7.0 |] "lat";
  match Telemetry.histograms t with
  | [ ("lat", snap) ] ->
      Alcotest.(check int) "observations survive re-declare" 3
        snap.Telemetry.count
  | _ -> Alcotest.fail "expected one histogram"

let test_record_events_off () =
  let t = Telemetry.create ~record_events:false () in
  Alcotest.(check bool) "handle still enabled" true (Telemetry.enabled t);
  let r = Telemetry.span t "s" (fun () -> Telemetry.incr t "inside"; 11) in
  Alcotest.(check int) "span still runs f" 11 r;
  Telemetry.instant t "i";
  Telemetry.observe t "h" 2.0;
  Alcotest.(check int) "no event payloads retained" 0
    (List.length (Telemetry.events t));
  (* The logical clock still ticks so span latencies stay measurable. *)
  Alcotest.(check bool) "event_count still advances" true
    (Telemetry.event_count t > 0);
  Alcotest.(check int) "counters still live" 1 (Telemetry.counter_value t "inside");
  Alcotest.(check int) "histograms still live" 1
    (List.length (Telemetry.histograms t))

let test_quantile () =
  let snap count buckets = { Telemetry.count; sum = 0.0; buckets } in
  let b = [ (1.0, 5); (10.0, 4); (100.0, 1); (infinity, 0) ] in
  Alcotest.(check (float 1e-9)) "p50 in first bucket" 1.0
    (Telemetry.quantile (snap 10 b) 0.5);
  Alcotest.(check (float 1e-9)) "p90 in second bucket" 10.0
    (Telemetry.quantile (snap 10 b) 0.9);
  Alcotest.(check (float 1e-9)) "p99 rounds up to the last occupied" 100.0
    (Telemetry.quantile (snap 10 b) 0.99);
  Alcotest.(check (float 1e-9)) "q=0 is the smallest bound" 1.0
    (Telemetry.quantile (snap 10 b) 0.0);
  Alcotest.(check bool) "overflow lands at infinity" true
    (Telemetry.quantile (snap 1 [ (1.0, 0); (infinity, 1) ]) 0.99 = infinity);
  Alcotest.(check bool) "empty histogram is nan" true
    (Float.is_nan (Telemetry.quantile (snap 0 b) 0.5));
  Alcotest.(check bool) "out-of-range q is nan" true
    (Float.is_nan (Telemetry.quantile (snap 10 b) 1.5))

let test_merged () =
  let a = Telemetry.create () in
  let b = Telemetry.create () in
  Telemetry.incr a ~by:3 "msgs";
  Telemetry.incr b ~by:4 "msgs";
  Telemetry.incr b "only_b";
  Telemetry.gauge a "hw" 2.0;
  Telemetry.gauge b "hw" 5.0;
  let bounds = [| 1.0; 10.0 |] in
  Telemetry.observe a ~bounds "lat" 0.5;
  Telemetry.observe a ~bounds "lat" 40.0;
  Telemetry.observe b ~bounds "lat" 7.0;
  let m = Telemetry.merged [ a; b; Telemetry.off ] in
  Alcotest.(check int) "counters sum" 7 (Telemetry.counter_value m "msgs");
  Alcotest.(check int) "singleton counter kept" 1
    (Telemetry.counter_value m "only_b");
  Alcotest.(check bool) "gauges take the max" true
    (gauge_value m "hw" = Some 5.0);
  (match List.assoc_opt "lat" (Telemetry.histograms m) with
  | Some snap ->
      Alcotest.(check int) "histogram count sums" 3 snap.Telemetry.count;
      Alcotest.(check (float 1e-9)) "histogram sum sums" 47.5
        snap.Telemetry.sum;
      Alcotest.(check (list (pair (float 1e-9) int)))
        "same bounds merge pointwise"
        [ (1.0, 1); (10.0, 1); (infinity, 1) ]
        snap.Telemetry.buckets
  | None -> Alcotest.fail "merged histogram missing");
  (* Sources with disagreeing bounds still merge conservatively:
     count/sum exact, occupancies credited at source upper bounds. *)
  let c = Telemetry.create () in
  Telemetry.observe c ~bounds:[| 5.0 |] "lat" 2.0;
  (match List.assoc_opt "lat" (Telemetry.histograms (Telemetry.merged [ a; c ]))
   with
  | Some snap ->
      Alcotest.(check int) "mismatched-bounds count exact" 3
        snap.Telemetry.count;
      Alcotest.(check (float 1e-9)) "mismatched-bounds sum exact" 42.5
        snap.Telemetry.sum
  | None -> Alcotest.fail "merged histogram missing");
  (* The merged handle is an ordinary handle: exporters accept it. *)
  let text = Export.prometheus m in
  Alcotest.(check bool) "prometheus export of merged registry" true
    (String.length text > 0)

(* ------------------------------------------------------------------ *)
(* Exporters *)

let populated () =
  let t = Telemetry.create () in
  Telemetry.span t "outer" (fun () ->
      Telemetry.instant t ~args:[ ("k", Telemetry.Str "v") ] "tick";
      Telemetry.span t "inner" (fun () -> ()));
  Telemetry.incr t ~by:7 "evals";
  Telemetry.gauge t "depth" 4.0;
  Telemetry.observe t "latency" 0.5;
  Telemetry.observe t "latency" 50.0;
  t

let test_jsonl_roundtrip () =
  let t = populated () in
  let text = Export.jsonl t in
  (* Every line is a standalone JSON object. *)
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match Tjson.parse line with
        | Ok (Tjson.Obj _) -> ()
        | Ok _ -> Alcotest.fail ("non-object line: " ^ line)
        | Error msg -> Alcotest.fail ("unparseable line: " ^ msg))
    (String.split_on_char '\n' text);
  match Trace_core.of_string text with
  | Error msg | Ok { Trace_core.malformed = Some msg; _ } ->
      Alcotest.fail ("the trace loader rejected the export: " ^ msg)
  | Ok t -> (
      let events =
        List.concat_map (fun seg -> seg.Trace_core.events) t.Trace_core.segments
      in
      Alcotest.(check int) "events" 5 (List.length events);
      Alcotest.(check int) "nothing dropped" 0 t.Trace_core.dropped;
      (* The stats rendering: no unmatched spans, span aggregates by
         name, then the instants, counters, gauges and histograms. *)
      let stats = String.split_on_char '\n' (Trace_core.render_stats t) in
      Alcotest.(check bool)
        "no unmatched spans" false
        (List.exists (String.starts_with ~prefix:"unmatched") stats);
      Alcotest.(check (list (list string)))
        "rows by section"
        [
          [ "inner"; "1" ]; [ "outer"; "1" ]; [ "tick"; "1" ]; [ "evals"; "7" ];
          [ "depth"; "4.000" ]; [ "latency"; "2" ];
        ]
        (List.filter_map
           (fun l ->
             if String.starts_with ~prefix:"  " l then
               match List.filter (( <> ) "") (String.split_on_char ' ' l) with
               | name :: v :: _ -> Some [ name; v ]
               | _ -> None
             else None)
           stats);
      match List.concat_map (fun seg -> seg.Trace_core.histograms) t.Trace_core.segments with
      | [ h ] ->
          Alcotest.(check string) "histogram name" "latency" h.Trace_core.h_name;
          Alcotest.(check int) "histogram count" 2 h.Trace_core.h_count;
          Alcotest.(check (float 1e-9)) "histogram sum" 50.5 h.Trace_core.h_sum
      | _ -> Alcotest.fail "expected the latency histogram")

let test_summary_rejects_garbage () =
  let loaded text =
    match Trace_core.of_string text with
    | Ok t -> t.Trace_core.malformed
    | Error msg -> Some msg
  in
  List.iter
    (fun (what, text, line) ->
      match loaded text with
      | Some msg ->
          Alcotest.(check bool)
            (what ^ ": error names the line") true
            (String.starts_with ~prefix:line msg)
      | None -> Alcotest.fail (what ^ " accepted"))
    [
      ("unparsable JSON", "{\"type\":\"instant\",\"name\":\"a\",\"ts\":0}\nnot json\n", "line 2");
      ("missing name", "{\"type\":\"begin\",\"ts\":0}\n", "line 1: missing type or name");
      ("missing type", "\n{\"name\":\"a\"}\n", "line 2: missing type or name");
      ("unknown type", "{\"type\":\"weird\",\"name\":\"a\"}\n", "line 1: unknown record type");
    ]

let test_chrome_valid () =
  let t = populated () in
  match Tjson.parse (Export.chrome t) with
  | Error msg -> Alcotest.fail ("chrome export is not valid JSON: " ^ msg)
  | Ok json -> (
      match Tjson.member "traceEvents" json with
      | Some (Tjson.List events) ->
          let phase e =
            match Tjson.member "ph" e with Some (Tjson.Str p) -> p | _ -> "?"
          in
          let count p =
            List.length (List.filter (fun e -> phase e = p) events)
          in
          Alcotest.(check int) "B/E balanced" (count "B") (count "E");
          Alcotest.(check int) "two spans" 2 (count "B");
          Alcotest.(check int) "one instant" 1 (count "i");
          Alcotest.(check bool) "metric counter events" true (count "C" > 0)
      | _ -> Alcotest.fail "no traceEvents array")

let test_prometheus_grammar () =
  let t = populated () in
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (Export.prometheus t))
  in
  Alcotest.(check bool) "non-empty" true (lines <> []);
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then
        (* Only well-formed TYPE comments. *)
        Alcotest.(check bool)
          ("TYPE comment: " ^ line)
          true
          (String.length line > 7 && String.sub line 0 7 = "# TYPE ")
      else begin
        (* name{labels} value — sample names carry the harmony_ prefix
           and the value parses as a float. *)
        Alcotest.(check bool)
          ("prefixed: " ^ line)
          true
          (String.length line > 8 && String.sub line 0 8 = "harmony_");
        match String.rindex_opt line ' ' with
        | None -> Alcotest.fail ("no value separator: " ^ line)
        | Some i ->
            let value =
              String.sub line (i + 1) (String.length line - i - 1)
            in
            Alcotest.(check bool)
              ("float value: " ^ line)
              true
              (float_of_string_opt value <> None || value = "+Inf")
      end)
    lines

let test_format_selection () =
  let fmt = Alcotest.testable (Fmt.of_to_string Export.format_to_string) ( = ) in
  Alcotest.(check (option fmt))
    "chrome alias" (Some Export.Chrome)
    (Export.format_of_string "trace-event");
  Alcotest.(check (option fmt))
    "prometheus alias" (Some Export.Prometheus)
    (Export.format_of_string "PROM");
  Alcotest.(check (option fmt)) "unknown" None (Export.format_of_string "xml");
  Alcotest.(check fmt) "by extension: .json is chrome" Export.Chrome
    (Export.format_of_filename "run.json");
  Alcotest.(check fmt) "by extension: .prom" Export.Prometheus
    (Export.format_of_filename "metrics.prom");
  Alcotest.(check fmt) "default jsonl" Export.Jsonl
    (Export.format_of_filename "trace.dat")

(* ------------------------------------------------------------------ *)
(* Stack integration *)

let space =
  Space.create
    [
      Param.int_range ~name:"a" ~lo:0 ~hi:10 ~default:5 ();
      Param.int_range ~name:"b" ~lo:0 ~hi:10 ~default:5 ();
      Param.int_range ~name:"c" ~lo:0 ~hi:10 ~default:5 ();
    ]

let obj =
  Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
      (50.0 *. c.(0)) +. (5.0 *. c.(1)) -. (0.1 *. c.(2)))

let test_tune_identical_with_telemetry () =
  (* The determinism contract: a live handle records the run and never
     steers it.  Render both results to text and compare bytes. *)
  let run telemetry =
    let session = Session.create ~objective:obj ~telemetry () in
    let r = Session.tune ~top_n:2 session in
    Printf.sprintf "%s|%.17g|%d|%s"
      (String.concat ","
         (List.map string_of_int r.Session.tuned_indices))
      r.Session.outcome.Tuner.best_performance
      r.Session.outcome.Tuner.evaluations
      (Session.trace_csv session r)
  in
  let off = run Telemetry.off in
  let live = Telemetry.create () in
  let on = run live in
  Alcotest.(check string) "byte-identical result" off on;
  Alcotest.(check bool) "and the run was actually traced" true
    (Telemetry.event_count live > 0)

let test_seeded_run_trace_is_reproducible () =
  let run () =
    let telemetry = Telemetry.create () in
    let session = Session.create ~objective:obj ~telemetry () in
    ignore (Session.tune ~top_n:2 session);
    Export.jsonl telemetry
  in
  Alcotest.(check string) "same trace bytes" (run ()) (run ())

let test_session_spans_present () =
  (* The acceptance criterion: a seeded tune's Chrome export contains
     spans for the sensitivity sweep, the simplex steps and the
     measurements. *)
  let telemetry = Telemetry.create () in
  let session = Session.create ~objective:obj ~telemetry () in
  ignore (Session.tune ~top_n:2 session);
  let chrome = Export.chrome telemetry in
  (match Tjson.parse chrome with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("chrome export invalid: " ^ msg));
  let names =
    List.map
      (fun e -> event_name e)
      (Telemetry.events telemetry)
  in
  List.iter
    (fun required ->
      Alcotest.(check bool) ("span " ^ required) true (List.mem required names))
    [ "session.tune"; "sensitivity"; "simplex.init"; "simplex.step"; "measure" ];
  Alcotest.(check bool) "evaluations counted" true
    (Telemetry.counter_value telemetry "tuner.evaluations" > 0);
  Alcotest.(check bool) "all spans closed" true (depth telemetry = 0)

let test_memo_counters_are_the_registry () =
  (* Satellite: Objective.stats is a thin view over the registry. *)
  let telemetry = Telemetry.create () in
  let cached = Objective.cached ~telemetry obj in
  let c = Space.defaults space in
  ignore (cached.Objective.eval c);
  ignore (cached.Objective.eval c);
  ignore (cached.Objective.eval (Array.map (fun v -> v +. 1.0) c));
  (match Objective.stats cached with
  | None -> Alcotest.fail "cached objective reports no stats"
  | Some s ->
      Alcotest.(check int) "hits view" s.Objective.hits
        (Telemetry.counter_value telemetry "objective.memo.hits");
      Alcotest.(check int) "misses view" s.Objective.misses
        (Telemetry.counter_value telemetry "objective.memo.misses");
      Alcotest.(check int) "hits" 1 s.Objective.hits;
      Alcotest.(check int) "misses" 2 s.Objective.misses);
  (* And without a caller handle the counts still work (private
     registry fallback). *)
  let plain = Objective.cached obj in
  ignore (plain.Objective.eval c);
  ignore (plain.Objective.eval c);
  match Objective.stats plain with
  | Some s ->
      Alcotest.(check int) "fallback hits" 1 s.Objective.hits;
      Alcotest.(check int) "fallback misses" 1 s.Objective.misses
  | None -> Alcotest.fail "no stats on the fallback path"

let test_measure_counters_are_the_registry () =
  let telemetry = Telemetry.create () in
  let measured, handle = Measure.robust ~telemetry obj in
  let c = Space.defaults space in
  ignore (measured.Objective.eval c);
  ignore (measured.Objective.eval c);
  let s = Measure.summary handle in
  Alcotest.(check int) "measurements view" s.Measure.measurements
    (Telemetry.counter_value telemetry "measure.measurements");
  Alcotest.(check int) "attempts view" s.Measure.attempts
    (Telemetry.counter_value telemetry "measure.attempts");
  Alcotest.(check int) "faults view" s.Measure.faults
    (Telemetry.counter_value telemetry "measure.faults");
  Alcotest.(check int) "two measurements" 2 s.Measure.measurements

let test_trace_csv_full_space () =
  (* Satellite: after --top-n the trace still renders every parameter,
     frozen ones as constant columns at their pinned values. *)
  let telemetry = Telemetry.create () in
  let session = Session.create ~objective:obj ~telemetry () in
  let r = Session.tune ~top_n:1 session in
  let csv = Session.trace_csv session r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (match lines with
  | header :: rows ->
      Alcotest.(check string)
        "header covers the full space"
        "iteration,a,b,c,performance" header;
      Alcotest.(check bool) "has rows" true (rows <> []);
      List.iter
        (fun row ->
          match String.split_on_char ',' row with
          | [ _; _; b; c; _ ] ->
              (* b and c were frozen at their defaults. *)
              Alcotest.(check string) "b pinned" "5" b;
              Alcotest.(check string) "c pinned" "5" c
          | _ -> Alcotest.fail ("bad row arity: " ^ row))
        rows
  | [] -> Alcotest.fail "empty csv")

(* ------------------------------------------------------------------ *)
(* Trace contexts, exemplars, and the flight recorder *)

module Flight = Harmony_telemetry.Flight

let qcheck_seed = [| 0x5eed; 16 |]

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make qcheck_seed) t

let is_hex16 s =
  String.length s = 16
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s

let test_ctx_ids_deterministic () =
  let c = Telemetry.Ctx.root ~client:"alpha" ~seq:3 in
  let c' = Telemetry.Ctx.root ~client:"alpha" ~seq:3 in
  Alcotest.(check string)
    "same inputs, same trace id"
    (Telemetry.Ctx.trace_id c) (Telemetry.Ctx.trace_id c');
  Alcotest.(check bool) "trace id is 16 hex chars" true
    (is_hex16 (Telemetry.Ctx.trace_id c));
  Alcotest.(check string)
    "root span id is the trace id"
    (Telemetry.Ctx.trace_id c) (Telemetry.Ctx.span_id c);
  Alcotest.(check string) "root has no parent" "" (Telemetry.Ctx.parent_id c);
  Alcotest.(check bool) "seq distinguishes traces" true
    (not
       (String.equal
          (Telemetry.Ctx.trace_id c)
          (Telemetry.Ctx.trace_id (Telemetry.Ctx.root ~client:"alpha" ~seq:4))));
  Alcotest.(check bool) "client distinguishes traces" true
    (not
       (String.equal
          (Telemetry.Ctx.trace_id c)
          (Telemetry.Ctx.trace_id (Telemetry.Ctx.root ~client:"bravo" ~seq:3))));
  let k = Telemetry.Ctx.child c "server.search" in
  Alcotest.(check string)
    "child keeps the trace id"
    (Telemetry.Ctx.trace_id c) (Telemetry.Ctx.trace_id k);
  Alcotest.(check string)
    "child's parent is the root span"
    (Telemetry.Ctx.span_id c) (Telemetry.Ctx.parent_id k);
  Alcotest.(check bool) "child span id is fresh" true
    (not (String.equal (Telemetry.Ctx.span_id k) (Telemetry.Ctx.span_id c)));
  Alcotest.(check string)
    "child is deterministic"
    (Telemetry.Ctx.span_id k)
    (Telemetry.Ctx.span_id (Telemetry.Ctx.child c "server.search"));
  Alcotest.(check bool) "indexed children are distinct" true
    (not
       (String.equal
          (Telemetry.Ctx.span_id (Telemetry.Ctx.child_i c "measure" 0))
          (Telemetry.Ctx.span_id (Telemetry.Ctx.child_i c "measure" 1))));
  (* args carry the correlation triple: parent only on children. *)
  let keys ctx = List.map fst (Telemetry.Ctx.args ctx) in
  Alcotest.(check (list string))
    "root args" [ "trace_id"; "span_id" ] (keys c);
  Alcotest.(check (list string))
    "child args"
    [ "trace_id"; "span_id"; "parent_id" ]
    (keys k)

let test_exemplars_recorded_and_merged () =
  let bounds = [| 1.0; 5.0; 10.0 |] in
  let a = Telemetry.create () in
  let b = Telemetry.create () in
  let trace client = Telemetry.Ctx.root ~client ~seq:1 in
  let id client = Telemetry.Ctx.trace_id (trace client) in
  Telemetry.observe a ~bounds ~ctx:(trace "aaaa") "h" 2.0;
  Telemetry.observe a ~bounds ~ctx:(trace "cccc") "h" 3.0;
  Telemetry.observe b ~bounds ~ctx:(trace "bbbb") "h" 7.0;
  (match Telemetry.exemplars a "h" with
  | [ { Telemetry.ex_bound; ex_trace_id; ex_val } ] ->
      Alcotest.(check (float 1e-9)) "bucket bound" 5.0 ex_bound;
      Alcotest.(check string) "last observation wins the bucket" (id "cccc")
        ex_trace_id;
      Alcotest.(check (float 1e-9)) "observed value kept" 3.0 ex_val
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected one bucket exemplar, got %d" (List.length l)));
  (* Merging copies exemplars along with the bucket counts. *)
  let m = Telemetry.merged [ a; b ] in
  let bucket_of id =
    List.find_opt
      (fun e -> String.equal e.Telemetry.ex_trace_id id)
      (Telemetry.exemplars m "h")
  in
  Alcotest.(check bool) "merged keeps a's bucket exemplar" true
    (Option.is_some (bucket_of (id "cccc")));
  Alcotest.(check bool) "merged keeps b's bucket exemplar" true
    (Option.is_some (bucket_of (id "bbbb")));
  (* And the Prometheus text renders OpenMetrics exemplar syntax. *)
  let prom = Export.prometheus m in
  Alcotest.(check bool) "prometheus exemplar syntax" true
    (let affix = Printf.sprintf {|# {trace_id="%s"}|} (id "bbbb") in
     let n = String.length affix and len = String.length prom in
     let rec go i =
       i + n <= len && (String.equal (String.sub prom i n) affix || go (i + 1))
     in
     go 0)

(* A flight ring's window as (type, name, trace id) triples, read
   back from its JSONL dump. *)
let flight_window flight =
  let field name obj =
    Option.value ~default:""
      (Option.bind (Tjson.member name obj) Tjson.to_str)
  in
  String.split_on_char '\n' (Flight.to_jsonl flight)
  |> List.filter (fun l -> not (String.equal l ""))
  |> List.map (fun line ->
         match Tjson.parse line with
         | Error e -> Alcotest.fail e
         | Ok obj ->
             let trace =
               match Tjson.member "args" obj with
               | Some args -> field "trace_id" args
               | None -> ""
             in
             (field "type" obj, field "name" obj, trace))

let test_flight_mirrors_metrics_only_handle () =
  let flight = Flight.create ~capacity:8 in
  let t = Telemetry.create ~record_events:false ~flight () in
  let ctx = Telemetry.Ctx.root ~client:"alpha" ~seq:1 in
  Telemetry.span t ~ctx "server.handle" (fun () -> ());
  Alcotest.(check int) "no events retained by the handle" 0
    (List.length (Telemetry.events t));
  (* The logical clock still advanced — metrics-only handles tick
     identically to recording ones. *)
  Alcotest.(check int) "clock ticked" 2 (Telemetry.event_count t);
  match flight_window flight with
  | [ (b_type, b_name, b_trace); (e_type, _, _) ] ->
      Alcotest.(check string) "begin mirrored" "server.handle" b_name;
      Alcotest.(check string) "begin kind" "begin" b_type;
      Alcotest.(check string)
        "trace id captured" (Telemetry.Ctx.trace_id ctx) b_trace;
      Alcotest.(check string) "end mirrored" "end" e_type
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 2 mirrored events, got %d" (List.length l))

(* The ring against the obvious reference: the last min(n, capacity)
   events, oldest first, at every (capacity, n) — including wraparound
   several times over. *)
let flight_wraparound_qcheck =
  QCheck2.Test.make ~count:200 ~name:"flight ring keeps the newest events"
    QCheck2.Gen.(pair (int_range 1 20) (int_range 0 200))
    (fun (capacity, n) ->
      let f = Flight.create ~capacity in
      let t = Telemetry.create ~record_events:false ~flight:f () in
      for i = 0 to n - 1 do
        Telemetry.instant t (Printf.sprintf "e%d" i)
      done;
      let kept = min n capacity in
      let expected =
        List.init kept (fun j -> Printf.sprintf "e%d" (n - kept + j))
      in
      List.map (fun (_, name, _) -> name) (flight_window f) = expected)

let suite =
  [
    ("span nesting and ordering", `Quick, test_span_nesting);
    ("span closes on exception", `Quick, test_span_end_on_exception);
    ("injected clock", `Quick, test_injected_clock);
    ("off handle is a no-op", `Quick, test_off_is_noop);
    ("metrics registry", `Quick, test_registry);
    ("gauge handle", `Quick, test_gauge_handle);
    ("declare_histogram pins bounds", `Quick, test_declare_histogram);
    ("record_events:false keeps metrics only", `Quick, test_record_events_off);
    ("quantile is a conservative upper bound", `Quick, test_quantile);
    ("merged aggregates registries", `Quick, test_merged);
    ("jsonl round-trips through Summary", `Quick, test_jsonl_roundtrip);
    ("summary rejects malformed lines", `Quick, test_summary_rejects_garbage);
    ("chrome export is valid trace JSON", `Quick, test_chrome_valid);
    ("prometheus text grammar", `Quick, test_prometheus_grammar);
    ("format selection", `Quick, test_format_selection);
    ( "tune is byte-identical with telemetry on",
      `Quick,
      test_tune_identical_with_telemetry );
    ( "seeded trace is reproducible",
      `Quick,
      test_seeded_run_trace_is_reproducible );
    ("whole-stack spans present", `Quick, test_session_spans_present);
    ("memo stats are registry views", `Quick, test_memo_counters_are_the_registry);
    ( "measure summary is a registry view",
      `Quick,
      test_measure_counters_are_the_registry );
    ("trace csv covers the full space", `Quick, test_trace_csv_full_space);
    ("ctx ids deterministic", `Quick, test_ctx_ids_deterministic);
    ( "exemplars recorded and merged",
      `Quick,
      test_exemplars_recorded_and_merged );
    ( "flight mirrors a metrics-only handle",
      `Quick,
      test_flight_mirrors_metrics_only_handle );
    to_alcotest flight_wraparound_qcheck;
  ]

(* The offline trace analyzer (tools/trace): loading both on-disk
   formats, reconstructing server.handle spans, phase attribution,
   critical paths, and the exemplar end-to-end check — all on
   synthetic traces small enough to verify by hand, plus one
   round-trip through the real exporter. *)

module Telemetry = Harmony_telemetry.Telemetry
module Export = Harmony_telemetry.Export

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) affix || go (i + 1)) in
  n = 0 || go 0

let load text =
  match Trace_core.of_string text with
  | Ok t -> t
  | Error e -> Alcotest.fail ("trace load: " ^ e)

(* One handle span with a journal child (2 ticks), a search child
   (3 ticks) and 3 ticks of self time:
     ts 10 begin handle | 11 begin journal | 13 end journal
     14 begin search | 17 end search | 18 end handle *)
let handle_span ~trace ~t0 =
  let ev kind name ts =
    Printf.sprintf
      {|{"type":"%s","name":"%s","ts":%g,"args":{"trace_id":"%s"}}|} kind name
      ts trace
  in
  String.concat "\n"
    [
      ev "begin" "server.handle" t0;
      ev "begin" "server.journal.append" (t0 +. 1.0);
      ev "end" "server.journal.append" (t0 +. 3.0);
      ev "begin" "server.search" (t0 +. 4.0);
      ev "end" "server.search" (t0 +. 7.0);
      ev "end" "server.handle" (t0 +. 8.0);
    ]

let test_attribution_splits_phases () =
  let t = load (handle_span ~trace:"aa11" ~t0:10.0) in
  match Trace_core.attribution t with
  | None -> Alcotest.fail "no handle spans reconstructed"
  | Some a ->
      Alcotest.(check int) "one span" 1 a.Trace_core.a_spans;
      Alcotest.(check (float 1e-9)) "total" 8.0 a.Trace_core.a_total;
      let phase p = a.Trace_core.a_phases.(Trace_core.phase_index p) in
      Alcotest.(check (float 1e-9)) "journal" 2.0 (phase Trace_core.Journal);
      Alcotest.(check (float 1e-9)) "search" 3.0 (phase Trace_core.Search);
      Alcotest.(check (float 1e-9)) "self" 3.0 (phase Trace_core.Handle);
      Alcotest.(check (float 1e-9)) "nothing unattributed" 0.0
        (phase Trace_core.Other);
      Alcotest.(check (float 1e-9)) "fully named" 1.0
        a.Trace_core.a_p99_attributed

let test_unknown_spans_are_unattributed () =
  let text =
    String.concat "\n"
      [
        {|{"type":"begin","name":"server.handle","ts":0}|};
        {|{"type":"begin","name":"mystery.work","ts":1}|};
        {|{"type":"end","name":"mystery.work","ts":5}|};
        {|{"type":"end","name":"server.handle","ts":6}|};
      ]
  in
  match Trace_core.attribution (load text) with
  | None -> Alcotest.fail "no handle spans"
  | Some a ->
      Alcotest.(check (float 1e-9))
        "unknown time lands in Other" 4.0
        a.Trace_core.a_phases.(Trace_core.phase_index Trace_core.Other);
      Alcotest.(check bool) "attribution fraction drops" true
        (a.Trace_core.a_p99_attributed < 0.95)

let test_suspended_spans_are_clipped () =
  (* The search kernel's effect-based spans can suspend at a Measure
     effect and close in a later message: a begin with no end inside
     the handle, and a stray end with no begin.  Neither may derail
     the walker. *)
  let text =
    String.concat "\n"
      [
        {|{"type":"begin","name":"server.handle","ts":0,"args":{"trace_id":"s1"}}|};
        {|{"type":"begin","name":"simplex.step","ts":1}|};
        {|{"type":"end","name":"server.handle","ts":4}|};
        {|{"type":"begin","name":"server.handle","ts":10,"args":{"trace_id":"s2"}}|};
        {|{"type":"end","name":"simplex.step","ts":12}|};
        {|{"type":"end","name":"server.handle","ts":13}|};
      ]
  in
  let t = load text in
  let recs = Trace_core.handles t in
  Alcotest.(check int) "both handles reconstructed" 2 (List.length recs);
  (match recs with
  | [ r1; r2 ] ->
      Alcotest.(check (float 1e-9))
        "suspended step attributed to search" 3.0
        r1.Trace_core.r_phases.(Trace_core.phase_index Trace_core.Search);
      (* The stray end is ignored; its preceding interval is handle
         self time. *)
      Alcotest.(check (float 1e-9))
        "resumed handle keeps self time" 3.0
        r2.Trace_core.r_phases.(Trace_core.phase_index Trace_core.Handle)
  | _ -> Alcotest.fail "expected exactly two records");
  match Trace_core.render_path t "s1" with
  | Error e -> Alcotest.fail e
  | Ok text ->
      Alcotest.(check bool) "clipped child marked suspended" true
        (contains ~affix:"(suspended)" text)

let test_segments_split () =
  let marker name = Printf.sprintf {|{"type":"segment","name":"%s","ts":0}|} name in
  let text =
    String.concat "\n"
      [
        marker "shard0";
        handle_span ~trace:"t0" ~t0:0.0;
        marker "shard1";
        handle_span ~trace:"t1" ~t0:0.0;
        marker "merged";
        {|{"type":"counter","name":"service.messages","value":2}|};
      ]
  in
  let t = load text in
  Alcotest.(check (list string))
    "segment names"
    [ "shard0"; "shard1"; "merged" ]
    (List.map (fun s -> s.Trace_core.seg_name) t.Trace_core.segments);
  Alcotest.(check int) "one handle per shard segment" 2
    (List.length (Trace_core.handles t))

let test_flight_dump_shards_segment () =
  (* A flight dump has no markers; the shard field changes mid-stream. *)
  let ev shard ts name kind =
    Printf.sprintf {|{"type":"%s","name":"%s","ts":%g,"shard":%d}|} kind name ts
      shard
  in
  let text =
    String.concat "\n"
      [
        ev 0 5.0 "server.handle" "begin";
        ev 0 7.0 "server.handle" "end";
        ev 1 2.0 "server.handle" "begin";
        ev 1 3.0 "server.handle" "end";
      ]
  in
  let t = load text in
  Alcotest.(check (list string))
    "shard segments" [ "shard0"; "shard1" ]
    (List.map (fun s -> s.Trace_core.seg_name) t.Trace_core.segments);
  Alcotest.(check int) "dropped nothing" 0 t.Trace_core.dropped

let test_malformed_lines_counted () =
  let text =
    String.concat "\n"
      [
        "flight";
        {|{"type":"begin","name":"server.handle","ts":0}|};
        "{torn";
        {|{"type":"end","name":"server.handle","ts":2}|};
      ]
  in
  let t = load text in
  Alcotest.(check int) "two unparsable lines skipped" 2 t.Trace_core.dropped;
  Alcotest.(check bool)
    "the first is named" true
    (match t.Trace_core.malformed with
    | Some first -> String.starts_with ~prefix:"line 1: " first
    | None -> false);
  Alcotest.(check int) "span still reconstructed" 1
    (List.length (Trace_core.handles t))

let test_chrome_round_trip () =
  (* The analyzer must read back what Export.chrome writes. *)
  let tel = Telemetry.create () in
  let ctx = Telemetry.Ctx.root ~client:"alpha" ~seq:1 in
  Telemetry.span tel ~args:(Telemetry.Ctx.args ctx) "server.handle" (fun () ->
      Telemetry.span tel "server.search" (fun () -> ()));
  let t = load (Export.chrome tel) in
  match Trace_core.handles t with
  | [ r ] ->
      Alcotest.(check string)
        "trace id survives the chrome round trip"
        (Telemetry.Ctx.trace_id ctx) r.Trace_core.r_trace;
      (* Logical clock: begin search at tick 1, end at tick 2. *)
      Alcotest.(check (float 1e-9))
        "search child attributed" 1.0
        r.Trace_core.r_phases.(Trace_core.phase_index Trace_core.Search)
  | _ -> Alcotest.fail "expected one handle span from the chrome trace"

let test_jsonl_round_trip () =
  (* And what Export.jsonl writes, exemplars included. *)
  let tel = Telemetry.create () in
  let ctx = Telemetry.Ctx.root ~client:"alpha" ~seq:1 in
  Telemetry.span tel ~args:(Telemetry.Ctx.args ctx) "server.handle" (fun () ->
      ());
  Telemetry.observe tel
    ~bounds:[| 1.0; 5.0; 10.0 |]
    ~ctx "server.handle_ms" 2.0;
  let t = load (Export.jsonl tel) in
  (match Trace_core.find_histogram t "server.handle_ms" with
  | None -> Alcotest.fail "histogram lost in the round trip"
  | Some h -> (
      Alcotest.(check int) "count" 1 h.Trace_core.h_count;
      match Trace_core.p99_exemplar h with
      | None -> Alcotest.fail "exemplar lost in the round trip"
      | Some (trace_id, v) ->
          Alcotest.(check string)
            "exemplar trace id" (Telemetry.Ctx.trace_id ctx) trace_id;
          Alcotest.(check (float 1e-9)) "exemplar value" 2.0 v));
  match Trace_core.check_exemplar t with
  | Error e -> Alcotest.fail ("exemplar check: " ^ e)
  | Ok text ->
      Alcotest.(check bool) "critical path printed" true
        (contains ~affix:"critical path: server.handle" text)

let test_hist_quantile () =
  let h =
    {
      Trace_core.h_name = "x";
      h_count = 100;
      h_sum = 0.0;
      h_buckets = [ (1.0, 50); (5.0, 48); (10.0, 2) ];
      h_exemplars = [ (10.0, "deadbeef", 7.0) ];
    }
  in
  Alcotest.(check (option (float 1e-9)))
    "p50 in the first bucket" (Some 1.0)
    (Trace_core.hist_quantile h 0.5);
  Alcotest.(check (option (float 1e-9)))
    "p99 in the last bucket" (Some 10.0)
    (Trace_core.hist_quantile h 0.99);
  (match Trace_core.p99_exemplar h with
  | Some (id, _) -> Alcotest.(check string) "p99 exemplar" "deadbeef" id
  | None -> Alcotest.fail "expected the last bucket's exemplar");
  Alcotest.(check (option (float 1e-9)))
    "empty histogram has no quantile" None
    (Trace_core.hist_quantile { h with Trace_core.h_count = 0 } 0.99)

let test_critical_path () =
  let text =
    String.concat "\n"
      [
        {|{"type":"begin","name":"server.handle","ts":0,"args":{"trace_id":"cp"}}|};
        {|{"type":"begin","name":"server.journal.append","ts":1}|};
        {|{"type":"end","name":"server.journal.append","ts":2}|};
        {|{"type":"begin","name":"server.search","ts":2}|};
        {|{"type":"begin","name":"simplex.step","ts":3}|};
        {|{"type":"end","name":"simplex.step","ts":7}|};
        {|{"type":"end","name":"server.search","ts":8}|};
        {|{"type":"end","name":"server.handle","ts":9}|};
      ]
  in
  match Trace_core.render_path (load text) "cp" with
  | Error e -> Alcotest.fail e
  | Ok rendered ->
      (* The longest child chain is search -> step, not journal. *)
      Alcotest.(check bool) "path descends through search" true
        (Astring.String.is_infix
           ~affix:"server.handle -> server.search [6] -> simplex.step [4]"
           rendered)

let test_diff_and_top_render () =
  let ta = load (handle_span ~trace:"a" ~t0:0.0) in
  let tb =
    load
      (String.concat "\n"
         [
           handle_span ~trace:"b" ~t0:0.0;
           {|{"type":"gauge","name":"gc.major_collections","value":3}|};
         ])
  in
  match (Trace_core.attribution ta, Trace_core.attribution tb) with
  | Some a, Some b ->
      let diff = Trace_core.render_diff ta a tb b in
      Alcotest.(check bool) "diff lists phases" true
        (contains ~affix:"journal" diff);
      let top = Trace_core.render_top tb in
      Alcotest.(check bool) "top lists the gauge" true
        (contains ~affix:"gc.major_collections" top)
  | (None, (Some _ | None)) | (Some _, None) ->
      Alcotest.fail "attribution missing"

let suite =
  [
    ("attribution splits phases", `Quick, test_attribution_splits_phases);
    ( "unknown spans are unattributed",
      `Quick,
      test_unknown_spans_are_unattributed );
    ("suspended spans are clipped", `Quick, test_suspended_spans_are_clipped);
    ("segment markers split segments", `Quick, test_segments_split);
    ("flight dumps segment by shard", `Quick, test_flight_dump_shards_segment);
    ("malformed lines are counted", `Quick, test_malformed_lines_counted);
    ("chrome export round-trips", `Quick, test_chrome_round_trip);
    ("jsonl export round-trips with exemplars", `Quick, test_jsonl_round_trip);
    ("histogram quantiles and exemplars", `Quick, test_hist_quantile);
    ("critical path picks the longest chain", `Quick, test_critical_path);
    ("diff and top render", `Quick, test_diff_and_top_render);
  ]

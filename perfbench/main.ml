(* perfbench: the wall-clock benchmark of the tuning service and of the
   paper's history-reuse loop (README.md in this directory).

     main.exe --workload svc-mem|svc-wal|tune-history --seed N
              --seconds S --trace 0|1 [--work DIR] [--trace-file PATH]

   A run plays an untimed warm-up round, then timed rounds until S
   seconds have passed, each round a fresh set-up and stream drawn from
   the run's seed; the outputs of every round are checked afterwards.
   Standard output ends with two JSON lines: the exact counts and
   outcome digests of the warm-up and first timed round (which two runs
   of one seed repeat), then the result.  With --trace 0 the result
   carries the end-to-end metrics.  With --trace 1 each stream is
   played twice, untraced then traced; the result carries the
   per-layer metrics of the traced round with the median op time and
   the tracing overhead, and the spans go to PATH as JSONL for
   harmony_trace. *)

let end_to_end =
  [
    ("ops_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_p90_ms", "ms");
    ("setup_s", "s");
    ("heap_mb", "MB");
    ("converge_evals", "count");
    ("tuned_wips", "WIPS");
  ]

let per_layer =
  [
    ("trace.op_us", "us");
    ("trace.overhead", "ratio");
    ("service.self_us_per_op", "us");
    ("server.us_per_op", "us");
    ("server.handle_us.register", "us");
    ("server.handle_us.report", "us");
    ("server.handle_us.query", "us");
    ("admission.admitted", "count");
    ("admission.rejected", "count");
    ("persist.fsyncs_per_op", "count");
    ("persist.fsync_us_per_op", "us");
    ("persist.journal_bytes_per_op", "bytes");
    ("persist.write_us_per_op", "us");
    ("persist.compactions", "count");
    ("persist.compact_us_per_op", "us");
    ("persist.compact_ms", "ms");
    ("persist.snapshot_bytes_per_op", "bytes");
    ("persist.write_amplification", "ratio");
    ("persist.recover_replayed", "count");
    ("persist.recover_dropped", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("objective.evals_per_run", "count");
    ("objective.eval_us", "us");
    ("measure.retries_per_run", "count");
    ("measure.faults_per_run", "count");
    ("measure.give_ups", "count");
    ("analyzer.prepare_ms", "ms");
    ("analyzer.trusted_share", "ratio");
    ("history.entries", "count");
    ("history.add_ms", "ms");
    ("tuner.self_ms", "ms");
  ]

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)

(* A run's timed rounds cycle through [streams] streams of its seed; a
   traced run plays each stream twice in a row, untraced then traced, so
   every traced round has an untraced twin that did the same work.  The
   warm-up round plays stream 0. *)
let streams = 3
let round_seed seed stream = (seed * 1000) + stream

let stream ~trace i =
  let k = if trace then (i + 1) / 2 else i in
  ((k - 1) mod streams) + 1

type 'a timed = { traced : bool; stream : int; result : 'a }

(* Timed rounds until [seconds] of wall time have passed: every stream
   at least once, and whole pairs in a traced run. *)
let schedule ~seconds ~trace play =
  let start = Meter.now () in
  let least = if trace then 2 * streams else streams in
  let rec go i acc =
    let whole = (not trace) || i mod 2 = 1 in
    if i > least && whole && Meter.now () -. start >= seconds then List.rev acc
    else begin
      Gc.compact ();
      let traced = trace && i mod 2 = 0 and stream = stream ~trace i in
      go (i + 1) ({ traced; stream; result = play ~stream ~traced } :: acc)
    end
  in
  go 1 []

let throughput (r : Meter.round) = float_of_int r.Meter.ops /. r.Meter.busy_s

(* Per stream, its first untraced round (checked in full; every other
   round of the stream must repeat it) and its slowest untraced round. *)
let per_stream round_of timed =
  List.filter_map
    (fun s ->
      match
        List.filter_map
          (fun t -> if (not t.traced) && t.stream = s then Some t.result else None)
          timed
      with
      | [] -> None
      | first :: _ as rs ->
          let slower a b =
            if throughput (round_of b) < throughput (round_of a) then b else a
          in
          Some (s, first, List.fold_left slower first rs))
    (List.init streams (fun i -> i + 1))

(* (untraced twin, traced round) pairs of a traced run. *)
let rec pairs = function
  | { traced = false; result = a; _ } :: { traced = true; result = b; _ } :: rest ->
      (a, b) :: pairs rest
  | _ :: rest -> pairs rest
  | [] -> []

let layer (r : Meter.round) name =
  Option.value ~default:0.0 (List.assoc_opt name r.Meter.layers)

(* The pair whose traced round has the median op time: every per-layer
   time comes from it, so the parts add up to its op time exactly. *)
let median_pair round_of ps =
  let op (_, b) = layer (round_of b) "op_us" in
  let sorted = List.sort (fun a b -> Float.compare (op a) (op b)) ps in
  List.nth sorted ((List.length sorted - 1) / 2)

(* Ops of a round whose outcome differs from the first round of its
   stream. *)
let divergence (first : Meter.round) (r : Meter.round) =
  let a = first.Meter.outcomes and b = r.Meter.outcomes in
  if Array.length a <> Array.length b then max 1 r.Meter.ops
  else begin
    let d = ref 0 in
    Array.iteri (fun i x -> if x <> b.(i) then incr d) a;
    if !d = 0 && r.Meter.counts <> first.Meter.counts then 1 else !d
  end

let diverged round_of timed firsts =
  List.fold_left
    (fun acc t ->
      match List.assoc_opt t.stream firsts with
      | Some first when first != t.result ->
          acc + divergence (round_of first) (round_of t.result)
      | Some _ | None -> acc)
    0 timed

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type run = {
  warm : Meter.round;
  timed : Meter.round timed list;
  checked_failed : int;  (* failures found outside the timed calls *)
  layers : (string * float) list;  (* per-layer times, traced run only *)
}

(* A traced run records spans for its first traced round only, and for
   one replay of the service workloads, to bound their memory. *)
let allow_first tracer events =
  let first = ref true in
  fun ~traced ->
    match tracer with
    | Some tr when traced ->
        Meter.allow tr (if !first then events else 0);
        first := false;
        Some tr
    | Some _ | None -> None

let run_svc ~wal ~seed ~seconds ~trace ~dir tracer =
  let recording = allow_first tracer 150_000 in
  let play ~stream ~traced =
    let seed = round_seed seed stream and tracer = recording ~traced in
    if wal then Svc.wal_round ~seed ~dir ?tracer () else Svc.mem_round ~seed ?tracer ()
  in
  let warm = play ~stream:0 ~traced:false in
  let timed = schedule ~seconds ~trace play in
  let round (o : Svc.outcome) = o.Svc.round in
  let firsts = List.map (fun (s, first, _) -> (s, first)) (per_stream round timed) in
  (* Every conversation of the warm-up and of each stream's first round
     is replayed on dedicated servers; later rounds must repeat them. *)
  let replaying = allow_first tracer 40_000 in
  let replays =
    List.map
      (fun (o : Svc.outcome) ->
        let tracer = replaying ~traced:true in
        (o, Svc.verify ~seed:o.Svc.seed ?tracer o.Svc.convs))
      (warm :: List.map snd firsts)
  in
  let mismatches = List.fold_left (fun acc (_, (m, _)) -> acc + m) 0 replays in
  if mismatches > 0 then
    Printf.eprintf "perfbench: %d conversations differ from a dedicated server\n%!"
      mismatches;
  let layers =
    match pairs timed with
    | [] -> []
    | ps ->
        let twin, r = median_pair round ps in
        let first =
          List.assoc (List.find (fun t -> t.result == twin) timed).stream firsts
        in
        let _, sm = List.assq first replays in
        let round = r.Svc.round in
        let server_us = sm.Svc.timed_s *. 1e6 /. float_of_int round.Meter.ops in
        let kind k =
          match Hashtbl.find_opt sm.Svc.kinds k with
          | Some (total, count) -> !total *. 1e6 /. float_of_int (max 1 !count)
          | None -> 0.0
        in
        let persist_us =
          layer round "persist.write_us_per_op"
          +. layer round "persist.fsync_us_per_op"
          +. layer round "persist.compact_us_per_op"
        in
        [
          ("trace.op_us", layer round "op_us");
          ("service.self_us_per_op", layer round "op_us" -. server_us -. persist_us);
          ("server.us_per_op", server_us);
          ("server.handle_us.register", kind "register");
          ("server.handle_us.report", kind "report");
          ("server.handle_us.query", kind "query");
        ]
        @ List.filter (fun (name, _) -> not (String.equal name "op_us")) round.Meter.layers
  in
  {
    warm = round warm;
    timed = List.map (fun t -> { t with result = round t.result }) timed;
    checked_failed = mismatches + diverged round timed firsts;
    layers;
  }

let run_tune ~seed ~seconds ~trace tracer =
  let recording = allow_first tracer 150_000 in
  let play ~stream ~traced =
    Tune.round ~seed:(round_seed seed stream) ?tracer:(recording ~traced) ()
  in
  let warm = play ~stream:0 ~traced:false in
  let timed = schedule ~seconds ~trace play in
  let firsts = List.map (fun (s, first, _) -> (s, first)) (per_stream Fun.id timed) in
  let layers =
    match pairs timed with
    | [] -> []
    | ps ->
        let _, r = median_pair Fun.id ps in
        List.map
          (fun (name, v) -> ((if String.equal name "op_us" then "trace.op_us" else name), v))
          r.Meter.layers
  in
  { warm; timed; checked_failed = diverged Fun.id timed firsts; layers }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number v = Printf.sprintf "%.17g" v

let metrics_json names values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0.0 (List.assoc_opt name values) in
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
       names)

let counts_json pairs =
  String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) pairs)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let work = ref ".perfbench" and trace_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  svc-mem | svc-wal | tune-history");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  timed rounds run until S seconds pass");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--work", Arg.Set_string work, "DIR  where svc-wal journals (default .perfbench)");
      ("--trace-file", Arg.Set_string trace_file, "PATH  where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: need --seed >= 0, --seconds > 0, --trace 0|1";
    exit 2
  end;
  let tracer = if traced then Some (Meter.tracer ()) else None in
  let run =
    match !workload with
    | "svc-mem" -> run_svc ~wal:false ~seed:!seed ~seconds:!seconds ~trace:traced ~dir:"" tracer
    | "svc-wal" ->
        let dir = Filename.concat !work (Printf.sprintf "run-%d" (Unix.getpid ())) in
        Unix.mkdir dir 0o755;
        Fun.protect
          ~finally:(fun () -> Unix.rmdir dir)
          (fun () -> run_svc ~wal:true ~seed:!seed ~seconds:!seconds ~trace:traced ~dir tracer)
    | "tune-history" -> run_tune ~seed:!seed ~seconds:!seconds ~trace:traced tracer
    | w ->
        Printf.eprintf "perfbench: unknown workload %S\n" w;
        exit 2
  in
  let timed = List.map (fun t -> t.result) run.timed in
  let first = List.hd timed in
  let by_stream = per_stream Fun.id run.timed in
  let failed =
    run.checked_failed
    + List.fold_left (fun acc r -> acc + r.Meter.failed) 0 (run.warm :: timed)
  in
  let attempted = List.fold_left (fun acc r -> acc + r.Meter.ops) 0 (run.warm :: timed) in
  List.iteri
    (fun i t ->
      let r = t.result in
      Printf.eprintf
        "round %d%s (stream %d): setup %.4f s, %d ops in %.3f s busy (%.0f ops/s), p50 %.4f ms, p90 %.4f ms\n"
        (i + 1) (if t.traced then " traced" else "") t.stream r.Meter.setup_s r.Meter.ops r.Meter.busy_s
        (throughput r)
        (Meter.percentile r.Meter.latencies 0.5 *. 1e3)
        (Meter.percentile r.Meter.latencies 0.9 *. 1e3))
    run.timed;
  let values =
    if not traced then begin
      (* Time: each stream's slowest repetition (see README.md, host
         noise); set-up: the median of every round's; quality: each
         stream once. *)
      let slowest = List.map (fun (_, _, r) -> r) by_stream in
      let sum f rs = List.fold_left (fun acc r -> acc +. f r) 0.0 rs in
      let pooled = Array.concat (List.map (fun r -> r.Meter.latencies) slowest) in
      (* Convergence is right-skewed (most runs converge at once, a few
         near the budget), so its typical value is the geometric mean. *)
      let quality name mean =
        ( name,
          mean
            (List.concat_map
               (fun (_, first, _) ->
                 Option.value ~default:[] (List.assoc_opt name first.Meter.quality))
               by_stream) )
      in
      let untraced = List.filter_map (fun t -> if t.traced then None else Some t.result) run.timed in
      [
        ("ops_per_s", sum (fun r -> float_of_int r.Meter.ops) slowest /. sum (fun r -> r.Meter.busy_s) slowest);
        ("op_p50_ms", Meter.percentile pooled 0.5 *. 1e3);
        ("op_p90_ms", Meter.percentile pooled 0.9 *. 1e3);
        ("setup_s", Meter.median (Array.of_list (List.map (fun r -> r.Meter.setup_s) untraced)));
        ( "heap_mb",
          float_of_int (first.Meter.heap_words * (Sys.word_size / 8)) /. 1048576.0 );
        quality "converge_evals" Meter.geometric_mean;
        quality "tuned_wips" Meter.arithmetic_mean;
      ]
    end
    else begin
      let c name = float_of_int (Meter.count first name) in
      let per_op name = c name /. float_of_int first.Meter.ops in
      let gc name = float_of_int (Option.value ~default:0 (List.assoc_opt name first.Meter.gc)) in
      let journal = c "persist.journal_bytes" in
      [
        ( "trace.overhead",
          Meter.median
            (Array.of_list
               (List.map (fun (a, b) -> 1.0 -. (throughput b /. throughput a)) (pairs run.timed))) );
        ("admission.admitted", c "admission.admitted");
        ("admission.rejected", c "admission.rejected");
        ("persist.fsyncs_per_op", per_op "persist.fsyncs");
        ("persist.journal_bytes_per_op", per_op "persist.journal_bytes");
        ("persist.compactions", c "persist.compactions");
        ("persist.snapshot_bytes_per_op", per_op "persist.snapshot_bytes");
        ( "persist.write_amplification",
          if journal = 0.0 then 0.0 else (journal +. c "persist.snapshot_bytes") /. journal );
        ("persist.recover_replayed", c "persist.recover_replayed");
        ("persist.recover_dropped", c "persist.recover_dropped");
        ("gc.minor_words_per_op", gc "gc.minor_words" /. float_of_int first.Meter.ops);
        ("gc.major_collections", gc "gc.major_collections");
        ("objective.evals_per_run", per_op "objective.evals");
        ("measure.retries_per_run", per_op "measure.retries");
        ("measure.faults_per_run", per_op "measure.faults");
        ("measure.give_ups", c "measure.give_ups");
        ("analyzer.trusted_share", per_op "analyzer.trusted");
        ("history.entries", c "history.entries");
      ]
      @ run.layers
    end
  in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) values in
  (match tracer with
  | Some tr when not (String.equal !trace_file "") ->
      Meter.write_trace tr !trace_file;
      Printf.eprintf "perfbench: spans written to %s\n" !trace_file
  | Some _ | None -> ());
  Printf.printf "{\"workload\": %S, \"seed\": %d, \"digests\": [%S, %S], \"counts\": {%s}}\n"
    !workload !seed run.warm.Meter.digest first.Meter.digest
    (counts_json (first.Meter.counts @ first.Meter.gc));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && finite) attempted failed
    (metrics_json (if traced then per_layer else end_to_end) values)

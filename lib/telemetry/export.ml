(* Exporters: serialize a telemetry handle's events and metrics.

   Three formats:
   - JSONL: one JSON object per line (events in order, then the
     registry) — the format [harmony_cli stats] and [harmony_trace]
     parse back.
   - Chrome trace_event JSON: loadable in about:tracing / Perfetto.
   - Prometheus text exposition: the metrics registry only. *)

type format = Jsonl | Chrome | Prometheus

let format_to_string = function
  | Jsonl -> "jsonl"
  | Chrome -> "chrome"
  | Prometheus -> "prom"

let format_of_string s =
  match String.lowercase_ascii s with
  | "jsonl" | "json-lines" -> Some Jsonl
  | "chrome" | "trace" | "trace-event" -> Some Chrome
  | "prom" | "prometheus" | "metrics" -> Some Prometheus
  | _ -> None

let format_of_filename path =
  match String.lowercase_ascii (Filename.extension path) with
  | ".jsonl" -> Jsonl
  | ".json" -> Chrome
  | ".prom" | ".txt" | ".metrics" -> Prometheus
  | _ -> Jsonl

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)

let json_of_value = function
  | Telemetry.Str s -> Tjson.Str s
  | Telemetry.Num v -> Tjson.Num v
  | Telemetry.Int i -> Tjson.Num (float_of_int i)
  | Telemetry.Bool b -> Tjson.Bool b

let json_of_args args =
  Tjson.Obj (List.map (fun (k, v) -> (k, json_of_value v)) args)

(* The textual upper bound of a histogram bucket, Prometheus style:
   "+Inf" for the overflow bucket. *)
let bound_to_string bound =
  if Float.is_finite bound then Tjson.number_to_string bound else "+Inf"

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)

let jsonl_event ev =
  let line kind name ts args =
    Tjson.Obj
      [
        ("type", Tjson.Str kind);
        ("name", Tjson.Str name);
        ("ts", Tjson.Num ts);
        ("args", json_of_args args);
      ]
  in
  match ev with
  | Telemetry.Begin { name; ts; args } -> line "begin" name ts args
  | Telemetry.End { name; ts; args } -> line "end" name ts args
  | Telemetry.Instant { name; ts; args } -> line "instant" name ts args

let jsonl_metrics t =
  List.map
    (fun (name, v) ->
      Tjson.Obj
        [
          ("type", Tjson.Str "counter");
          ("name", Tjson.Str name);
          ("value", Tjson.Num (float_of_int v));
        ])
    (Telemetry.counters t)
  @ List.map
      (fun (name, v) ->
        Tjson.Obj
          [
            ("type", Tjson.Str "gauge");
            ("name", Tjson.Str name);
            ("value", Tjson.Num v);
          ])
      (Telemetry.gauges t)
  @ List.map
      (fun (name, h) ->
        let exemplars =
          match Telemetry.exemplars t name with
          | [] -> []
          | exs ->
              [
                ( "exemplars",
                  Tjson.List
                    (List.map
                       (fun e ->
                         Tjson.Obj
                           [
                             ( "le",
                               Tjson.Str (bound_to_string e.Telemetry.ex_bound)
                             );
                             ("trace_id", Tjson.Str e.Telemetry.ex_trace_id);
                             ("value", Tjson.Num e.Telemetry.ex_val);
                           ])
                       exs) );
              ]
        in
        Tjson.Obj
          ([
             ("type", Tjson.Str "histogram");
             ("name", Tjson.Str name);
             ("count", Tjson.Num (float_of_int h.Telemetry.count));
             ("sum", Tjson.Num h.Telemetry.sum);
             ( "buckets",
               Tjson.List
                 (List.map
                    (fun (bound, occupancy) ->
                      Tjson.Obj
                        [
                          ("le", Tjson.Str (bound_to_string bound));
                          ("n", Tjson.Num (float_of_int occupancy));
                        ])
                    h.Telemetry.buckets) );
           ]
          @ exemplars))
      (Telemetry.histograms t)

let jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun line ->
      Buffer.add_string buf (Tjson.to_string line);
      Buffer.add_char buf '\n')
    (List.map jsonl_event (Telemetry.events t) @ jsonl_metrics t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace_event                                                  *)

let chrome t =
  let entry ph name ts extra args =
    Tjson.Obj
      ([
         ("ph", Tjson.Str ph);
         ("name", Tjson.Str name);
         ("cat", Tjson.Str "harmony");
         ("ts", Tjson.Num ts);
         ("pid", Tjson.Num 1.0);
         ("tid", Tjson.Num 1.0);
       ]
      @ extra
      @ [ ("args", args) ])
  in
  let events =
    List.map
      (function
        | Telemetry.Begin { name; ts; args } ->
            entry "B" name ts [] (json_of_args args)
        | Telemetry.End { name; ts; args } ->
            entry "E" name ts [] (json_of_args args)
        | Telemetry.Instant { name; ts; args } ->
            entry "i" name ts [ ("s", Tjson.Str "t") ] (json_of_args args))
      (Telemetry.events t)
  in
  let last_ts =
    match List.rev (Telemetry.events t) with
    | [] -> 0.0
    | (Telemetry.Begin { ts; _ } | Telemetry.End { ts; _ }
      | Telemetry.Instant { ts; _ })
      :: _ ->
        ts
  in
  let metric_events =
    List.map
      (fun (name, v) ->
        entry "C" name last_ts []
          (Tjson.Obj [ ("value", Tjson.Num (float_of_int v)) ]))
      (Telemetry.counters t)
    @ List.map
        (fun (name, v) ->
          entry "C" name last_ts [] (Tjson.Obj [ ("value", Tjson.Num v) ]))
        (Telemetry.gauges t)
  in
  Tjson.to_string
    (Tjson.Obj
       [
         ("traceEvents", Tjson.List (events @ metric_events));
         ("displayTimeUnit", Tjson.Str "ms");
       ])

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)

(* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; the registry uses
   dotted lower-case names, so map every illegal byte to '_' and add
   the harmony_ namespace prefix. *)
let sanitize name =
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name
  in
  let mapped =
    if String.length mapped > 0 then
      match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped
    else mapped
  in
  "harmony_" ^ mapped

let prom_float v =
  if Float.is_finite v then Tjson.number_to_string v
  else if v > 0.0 then "+Inf"
  else if v < 0.0 then "-Inf"
  else "NaN"

let prometheus t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let name = sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n" name);
      Buffer.add_string buf (Printf.sprintf "%s %d\n" name v))
    (Telemetry.counters t);
  List.iter
    (fun (name, v) ->
      let name = sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name);
      Buffer.add_string buf (Printf.sprintf "%s %s\n" name (prom_float v)))
    (Telemetry.gauges t);
  List.iter
    (fun (name, h) ->
      let exemplars = Telemetry.exemplars t name in
      let name = sanitize name in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
      let cumulative = ref 0 in
      List.iter
        (fun (bound, occupancy) ->
          cumulative := !cumulative + occupancy;
          (* OpenMetrics exemplar syntax: the last trace to land in
             this bucket, with its observed value. *)
          let exemplar =
            match
              List.find_opt
                (fun e -> Float.equal e.Telemetry.ex_bound bound)
                exemplars
            with
            | None -> ""
            | Some e ->
                Printf.sprintf " # {trace_id=\"%s\"} %s"
                  e.Telemetry.ex_trace_id
                  (prom_float e.Telemetry.ex_val)
          in
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d%s\n" name
               (bound_to_string bound) !cumulative exemplar))
        h.Telemetry.buckets;
      Buffer.add_string buf
        (Printf.sprintf "%s_sum %s\n" name (prom_float h.Telemetry.sum));
      Buffer.add_string buf
        (Printf.sprintf "%s_count %d\n" name h.Telemetry.count))
    (Telemetry.histograms t);
  Buffer.contents buf

let render t = function
  | Jsonl -> jsonl t
  | Chrome -> chrome t
  | Prometheus -> prometheus t

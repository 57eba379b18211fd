(* harmony_trace core — offline analysis of harmony trace files.

   Input is what the system itself emits: Export.jsonl streams
   (optionally concatenated into segments by {"type":"segment"} marker
   lines, the loadgen's --trace format), flight-recorder dumps (the
   same event lines with a "shard" field), or Export.chrome JSON.
   Per-shard logical clocks overlap, so events are only ordered within
   a segment; every analysis below works segment by segment.

   The analyses:
   - attribution: for every server.handle span, split its duration
     across named phases (queue / journal / search / handle self-time)
     by walking the interior events with a span stack;
   - critical path: the span tree of one trace id, with the
     longest-child chain called out;
   - self time: per-span-name self-time totals across every span;
   - top: a metrics snapshot view (counters, gauges, histogram
     quantiles);
   - diff: phase attribution compared across two trace files;
   - exemplar check: resolve the p99 bucket's exemplar trace id to a
     span whose critical path prints end to end.

   Everything is total — malformed lines are counted and skipped, the
   way the journal recovery treats torn tails — and pure: the library
   returns renderings, the CLI prints them. *)

module Tjson = Harmony_telemetry.Tjson

type ev_kind = Begin | End | Instant

type event = {
  kind : ev_kind;
  name : string;
  ts : float;
  trace_id : string;  (* "" when the event carries no correlation args *)
  span_id : string;
  parent_id : string;
}

type histogram = {
  h_name : string;
  h_count : int;
  h_sum : float;
  h_buckets : (float * int) list;  (* (upper bound, occupancy) ascending *)
  h_exemplars : (float * string * float) list;
      (* (bucket bound, trace id, observed value) *)
}

type segment = {
  seg_name : string;
  events : event list;  (* record order *)
  counters : (string * float) list;
  gauges : (string * float) list;
  histograms : histogram list;
}

type t = {
  segments : segment list;
  dropped : int;  (* malformed records skipped by the loader *)
  malformed : string option;  (* the first of them, "line N: reason" *)
}

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)

let bound_of_le s =
  match float_of_string_opt s with Some v -> v | None -> infinity

let str_field name j =
  match Option.bind (Tjson.member name j) Tjson.to_str with
  | Some s -> s
  | None -> ""

let num_field name j =
  match Option.bind (Tjson.member name j) Tjson.to_float with
  | Some v -> v
  | None -> 0.0

let list_field name j =
  match Tjson.member name j with
  | Some (Tjson.List l) -> l
  | Some (Tjson.Null | Tjson.Bool _ | Tjson.Num _ | Tjson.Str _ | Tjson.Obj _)
  | None ->
      []

type builder = {
  mutable bname : string;
  mutable bshard : int option;  (* flight dumps segment on shard changes *)
  mutable bevents : event list;  (* reversed *)
  mutable bcounters : (string * float) list;
  mutable bgauges : (string * float) list;
  mutable bhists : histogram list;
  mutable bsegs : segment list;  (* reversed *)
  mutable bdropped : int;
  mutable bmalformed : string option;
}

let new_builder () =
  {
    bname = "trace";
    bshard = None;
    bevents = [];
    bcounters = [];
    bgauges = [];
    bhists = [];
    bsegs = [];
    bdropped = 0;
    bmalformed = None;
  }

let segment_empty b =
  match (b.bevents, b.bcounters, b.bgauges, b.bhists) with
  | [], [], [], [] -> true
  | _ :: _, _, _, _ | _, _ :: _, _, _ | _, _, _ :: _, _ | _, _, _, _ :: _ ->
      false

let flush_segment b =
  if not (segment_empty b) then
    b.bsegs <-
      {
        seg_name = b.bname;
        events = List.rev b.bevents;
        counters = List.rev b.bcounters;
        gauges = List.rev b.bgauges;
        histograms = List.rev b.bhists;
      }
      :: b.bsegs;
  b.bevents <- [];
  b.bcounters <- [];
  b.bgauges <- [];
  b.bhists <- []

let event_of_json kind j =
  let args =
    match Tjson.member "args" j with
    | Some a -> a
    | None -> Tjson.Obj []
  in
  {
    kind;
    name = str_field "name" j;
    ts = num_field "ts" j;
    trace_id = str_field "trace_id" args;
    span_id = str_field "span_id" args;
    parent_id = str_field "parent_id" args;
  }

let histogram_of_json j =
  {
    h_name = str_field "name" j;
    h_count = int_of_float (num_field "count" j);
    h_sum = num_field "sum" j;
    h_buckets =
      List.map
        (fun b -> (bound_of_le (str_field "le" b), int_of_float (num_field "n" b)))
        (list_field "buckets" j);
    h_exemplars =
      List.map
        (fun e ->
          ( bound_of_le (str_field "le" e),
            str_field "trace_id" e,
            num_field "value" e ))
        (list_field "exemplars" j);
  }

(* A flight dump has no segment markers; its events carry a "shard"
   field instead, and the dump is written shard by shard — a change of
   shard is a segment boundary. *)
let note_shard b j =
  match Option.bind (Tjson.member "shard" j) Tjson.to_float with
  | None -> ()
  | Some s ->
      let s = int_of_float s in
      (match b.bshard with
      | Some prev when prev = s -> ()
      | Some _ | None ->
          flush_segment b;
          b.bname <- Printf.sprintf "shard%d" s);
      b.bshard <- Some s

(* Skip malformed record [what n], remembering the first one's reason. *)
let skip b what n reason =
  b.bdropped <- b.bdropped + 1;
  if Option.is_none b.bmalformed then
    b.bmalformed <- Some (Printf.sprintf "%s %d: %s" what n reason)

(* Every record names its type and carries a name. *)
let add_line b lineno line =
  let line = String.trim line in
  if String.equal line "" then ()
  else
    match Tjson.parse line with
    | Error msg -> skip b "line" lineno msg
    | Ok j -> (
        let field key = Option.bind (Tjson.member key j) Tjson.to_str in
        match (field "type", field "name") with
        | None, _ | _, None -> skip b "line" lineno "missing type or name"
        | Some kind, Some name -> (
            match kind with
            | "segment" ->
                flush_segment b;
                b.bname <- name;
                b.bshard <- None
            | "begin" ->
                note_shard b j;
                b.bevents <- event_of_json Begin j :: b.bevents
            | "end" ->
                note_shard b j;
                b.bevents <- event_of_json End j :: b.bevents
            | "instant" ->
                note_shard b j;
                b.bevents <- event_of_json Instant j :: b.bevents
            | "counter" ->
                b.bcounters <- (name, num_field "value" j) :: b.bcounters
            | "gauge" -> b.bgauges <- (name, num_field "value" j) :: b.bgauges
            | "histogram" -> b.bhists <- histogram_of_json j :: b.bhists
            | _ -> skip b "line" lineno (Printf.sprintf "unknown record type %S" kind)))

let finish b =
  flush_segment b;
  { segments = List.rev b.bsegs; dropped = b.bdropped; malformed = b.bmalformed }

let of_jsonl text =
  let b = new_builder () in
  List.iteri (fun i line -> add_line b (i + 1) line) (String.split_on_char '\n' text);
  finish b

(* Chrome trace_event JSON: one object with a traceEvents list; B/E/i
   phases map onto begin/end/instant, trailing C events onto gauges. *)
let of_chrome text =
  match Tjson.parse text with
  | Error e -> Error e
  | Ok j ->
      let b = new_builder () in
      List.iteri
        (fun i ev ->
          match str_field "ph" ev with
          | "B" -> b.bevents <- event_of_json Begin ev :: b.bevents
          | "E" -> b.bevents <- event_of_json End ev :: b.bevents
          | "i" -> b.bevents <- event_of_json Instant ev :: b.bevents
          | "C" ->
              let v =
                match Tjson.member "args" ev with
                | Some a -> num_field "value" a
                | None -> 0.0
              in
              b.bgauges <- (str_field "name" ev, v) :: b.bgauges
          | ph -> skip b "event" (i + 1) (Printf.sprintf "unknown phase %S" ph))
        (list_field "traceEvents" j);
      Ok (finish b)

let of_string text =
  (* A Chrome trace is a single JSON object; JSONL never starts with a
     line whose object carries "traceEvents". *)
  let looks_chrome =
    match Tjson.parse (String.trim text) with
    | Ok j -> Option.is_some (Tjson.member "traceEvents" j)
    | Error _ -> false
  in
  if looks_chrome then of_chrome text else Ok (of_jsonl text)

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)

type phase = Queue | Journal | Search | Handle | Backoff | Other

let phase_to_string = function
  | Queue -> "queue"
  | Journal -> "journal"
  | Search -> "search"
  | Handle -> "handle"
  | Backoff -> "backoff"
  | Other -> "unattributed"

let phase_index = function
  | Queue -> 0
  | Journal -> 1
  | Search -> 2
  | Handle -> 3
  | Backoff -> 4
  | Other -> 5

let phases = [ Queue; Journal; Search; Handle; Backoff; Other ]
let named p = match p with Queue | Journal | Search | Handle | Backoff -> true | Other -> false

let starts p s = String.starts_with ~prefix:p s

let phase_of_name name =
  if starts "server.journal." name || starts "service.journal." name then
    Journal
  else if starts "admission." name || starts "service.admission" name then Queue
  else if
    String.equal name "server.search"
    || starts "simplex" name || starts "controller" name || starts "tuner" name
    || starts "measure" name || starts "session." name || starts "history." name
    || starts "sensitivity" name || starts "subspace" name
  then Search
  else if String.equal name "server.handle" then Handle
  else Other

(* ------------------------------------------------------------------ *)
(* Handle-span reconstruction and phase attribution                    *)

type child = {
  c_name : string;
  c_start : float;
  c_finish : float;
  c_depth : int;  (* 1 = direct child of the handle span *)
  c_closed : bool;  (* false: clipped at the handle end (suspended) *)
}

type handle_rec = {
  r_trace : string;
  r_seg : string;
  r_start : float;
  r_finish : float;
  r_phases : float array;  (* indexed by phase_index *)
  r_children : child list;  (* start order *)
}

let duration r = r.r_finish -. r.r_start

type walk_state = {
  w_trace : string;
  w_start : float;
  mutable w_last : float;
  mutable w_stack : (string * float) list;  (* innermost first *)
  w_phases : float array;
  mutable w_children : child list;  (* reversed *)
}

let attribute_interval st until =
  let p =
    match st.w_stack with
    | [] -> Handle
    | (name, _) :: _ -> phase_of_name name
  in
  let i = phase_index p in
  st.w_phases.(i) <- st.w_phases.(i) +. (until -. st.w_last);
  st.w_last <- until

(* Pop the stack down to (and including) [name], recording a child for
   every popped entry: entries above the match never saw their end
   (they suspended — the search kernel's effect-based spans can close
   in a later message), so they are clipped here.  An end with no
   matching begin in this handle is itself a suspended span resuming;
   intervals before it were already attributed to whatever was on the
   stack, so it is simply ignored. *)
let pop_span st name ts =
  let rec split acc stack =
    match stack with
    | [] -> None
    | (n, start) :: rest ->
        if String.equal n name then Some (List.rev acc, (n, start), rest)
        else split ((n, start) :: acc) rest
  in
  match split [] st.w_stack with
  | None -> ()
  | Some (above, (n, start), rest) ->
      let depth_of i = List.length rest + 1 + i in
      List.iteri
        (fun i (an, astart) ->
          st.w_children <-
            {
              c_name = an;
              c_start = astart;
              c_finish = ts;
              c_depth = depth_of (List.length above - i);
              c_closed = false;
            }
            :: st.w_children)
        above;
      st.w_children <-
        {
          c_name = n;
          c_start = start;
          c_finish = ts;
          c_depth = List.length rest + 1;
          c_closed = true;
        }
        :: st.w_children;
      st.w_stack <- rest

let finish_record seg st ts =
  attribute_interval st ts;
  List.iteri
    (fun i (n, start) ->
      st.w_children <-
        {
          c_name = n;
          c_start = start;
          c_finish = ts;
          c_depth = List.length st.w_stack - i;
          c_closed = false;
        }
        :: st.w_children)
    st.w_stack;
  {
    r_trace = st.w_trace;
    r_seg = seg.seg_name;
    r_start = st.w_start;
    r_finish = ts;
    r_phases = st.w_phases;
    r_children = List.rev st.w_children;
  }

let handles_of_segment seg =
  let recs = ref [] in
  let current = ref None in
  List.iter
    (fun ev ->
      match !current with
      | None -> (
          match ev.kind with
          | Begin when String.equal ev.name "server.handle" ->
              current :=
                Some
                  {
                    w_trace = ev.trace_id;
                    w_start = ev.ts;
                    w_last = ev.ts;
                    w_stack = [];
                    w_phases = Array.make 6 0.0;
                    w_children = [];
                  }
          | Begin | End | Instant -> ())
      | Some st -> (
          attribute_interval st ev.ts;
          match ev.kind with
          | Begin -> st.w_stack <- (ev.name, ev.ts) :: st.w_stack
          | End ->
              if String.equal ev.name "server.handle" then begin
                recs := finish_record seg st ev.ts :: !recs;
                current := None
              end
              else pop_span st ev.name ev.ts
          | Instant -> ()))
    seg.events;
  List.rev !recs

let handles t = List.concat_map handles_of_segment t.segments

(* ------------------------------------------------------------------ *)
(* Aggregated attribution                                              *)

type attribution = {
  a_spans : int;
  a_total : float;
  a_phases : float array;  (* all handle spans, by phase_index *)
  a_p99 : float;  (* p99 handle duration (exact, over span durations) *)
  a_p99_spans : int;
  a_p99_total : float;
  a_p99_phases : float array;
  a_p99_attributed : float;  (* named fraction of the p99 spans' time *)
}

let percentile_exact durations q =
  let n = Array.length durations in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy durations in
    Array.sort Float.compare sorted;
    let idx =
      min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))
    in
    sorted.(idx)
  end

let attribution t =
  let recs = handles t in
  match recs with
  | [] -> None
  | _ :: _ ->
      let durations = Array.of_list (List.map duration recs) in
      let p99 = percentile_exact durations 0.99 in
      let all = Array.make 6 0.0 in
      let tail = Array.make 6 0.0 in
      let tail_spans = ref 0 in
      List.iter
        (fun r ->
          Array.iteri (fun i v -> all.(i) <- all.(i) +. v) r.r_phases;
          if duration r >= p99 then begin
            incr tail_spans;
            Array.iteri (fun i v -> tail.(i) <- tail.(i) +. v) r.r_phases
          end)
        recs;
      let sum a = Array.fold_left ( +. ) 0.0 a in
      let p99_total = sum tail in
      let p99_named = p99_total -. tail.(phase_index Other) in
      Some
        {
          a_spans = List.length recs;
          a_total = sum all;
          a_phases = all;
          a_p99 = p99;
          a_p99_spans = !tail_spans;
          a_p99_total = p99_total;
          a_p99_phases = tail;
          a_p99_attributed =
            (if p99_total <= 0.0 then 1.0 else p99_named /. p99_total);
        }

(* ------------------------------------------------------------------ *)
(* Metric lookups                                                      *)

(* Search segments from the end: the loadgen writes the merged
   (fleet-wide) registry as the last segment. *)
let find_histogram t name =
  List.fold_left
    (fun acc seg ->
      match List.find_opt (fun h -> String.equal h.h_name name) seg.histograms with
      | Some h -> Some h
      | None -> acc)
    None t.segments

let hist_quantile h q =
  if h.h_count = 0 then None
  else begin
    let target =
      max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count)))
    in
    let rec walk cum buckets =
      match buckets with
      | [] -> None
      | (bound, n) :: rest ->
          let cum = cum + n in
          if cum >= target then Some bound else walk cum rest
    in
    walk 0 h.h_buckets
  end

(* The exemplar of the bucket the p99 observation falls in. *)
let p99_exemplar h =
  match hist_quantile h 0.99 with
  | None -> None
  | Some bound ->
      List.find_opt
        (fun (b, _, _) -> Float.equal b bound || (b >= bound && b < infinity))
        h.h_exemplars
      |> fun found ->
      (match found with
      | Some _ -> found
      | None ->
          List.find_opt (fun (b, _, _) -> Float.equal b bound) h.h_exemplars)
      |> Option.map (fun (_, trace_id, v) -> (trace_id, v))

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)

let fg v = Printf.sprintf "%g" v

let pct part total =
  if total <= 0.0 then "-" else Printf.sprintf "%.1f%%" (100.0 *. part /. total)

let render_attribution ?(markdown = false) t a =
  let buf = Buffer.create 1024 in
  let backoff = find_histogram t "measure.backoff_wait" in
  let queue = find_histogram t "service.admission.queue_delay" in
  if markdown then begin
    Buffer.add_string buf
      "| phase | total (ticks) | share | p99-span total | p99 share |\n";
    Buffer.add_string buf "|---|---|---|---|---|\n";
    List.iter
      (fun p ->
        let i = phase_index p in
        Buffer.add_string buf
          (Printf.sprintf "| %s | %s | %s | %s | %s |\n" (phase_to_string p)
             (fg a.a_phases.(i))
             (pct a.a_phases.(i) a.a_total)
             (fg a.a_p99_phases.(i))
             (pct a.a_p99_phases.(i) a.a_p99_total)))
      phases;
    Buffer.add_string buf
      (Printf.sprintf
         "\n%d handle spans, %s ticks total; p99 duration %s ticks over %d \
          spans; %.1f%% of p99 latency attributed to named phases.\n"
         a.a_spans (fg a.a_total) (fg a.a_p99) a.a_p99_spans
         (100.0 *. a.a_p99_attributed))
  end
  else begin
    Buffer.add_string buf
      (Printf.sprintf "handle spans: %d   total: %s ticks   p99: %s ticks (%d spans)\n"
         a.a_spans (fg a.a_total) (fg a.a_p99) a.a_p99_spans);
    Buffer.add_string buf "phase         total    share   p99-total  p99-share\n";
    List.iter
      (fun p ->
        let i = phase_index p in
        Buffer.add_string buf
          (Printf.sprintf "%-12s %8s %8s %10s %10s\n" (phase_to_string p)
             (fg a.a_phases.(i))
             (pct a.a_phases.(i) a.a_total)
             (fg a.a_p99_phases.(i))
             (pct a.a_p99_phases.(i) a.a_p99_total)))
      phases;
    Buffer.add_string buf
      (Printf.sprintf "p99 attribution: %.1f%% named\n"
         (100.0 *. a.a_p99_attributed))
  end;
  (* Phases the spans cannot see, from the registries: time spent
     before admission and backoff waited out by the measurement
     pipeline. *)
  (match queue with
  | None -> ()
  | Some h ->
      Buffer.add_string buf
        (Printf.sprintf "queue wait (histogram): n=%d sum=%s p99=%s\n" h.h_count
           (fg h.h_sum)
           (match hist_quantile h 0.99 with None -> "-" | Some b -> fg b)));
  (match backoff with
  | None -> ()
  | Some h ->
      Buffer.add_string buf
        (Printf.sprintf "measure backoff (histogram): n=%d sum=%s ms\n" h.h_count
           (fg h.h_sum)));
  Buffer.contents buf

let render_path t trace_id =
  let matching = List.filter (fun r -> String.equal r.r_trace trace_id) (handles t) in
  match matching with
  | [] -> Error (Printf.sprintf "trace id %s: no server.handle span found" trace_id)
  | _ :: _ ->
      let buf = Buffer.create 512 in
      List.iter
        (fun r ->
          Buffer.add_string buf
            (Printf.sprintf "trace %s (segment %s): server.handle %s..%s [%s ticks]\n"
               r.r_trace r.r_seg (fg r.r_start) (fg r.r_finish) (fg (duration r)));
          List.iter
            (fun c ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s..%s [%s]%s\n"
                   (String.make (2 * c.c_depth) ' ')
                   c.c_name (fg c.c_start) (fg c.c_finish)
                   (fg (c.c_finish -. c.c_start))
                   (if c.c_closed then "" else " (suspended)")))
            r.r_children;
          (* Critical path: at each depth keep the longest child nested
             inside the incumbent. *)
          let rec chain depth lo hi acc =
            let best =
              List.fold_left
                (fun best c ->
                  if c.c_depth = depth && c.c_start >= lo && c.c_finish <= hi
                  then
                    match best with
                    | Some b
                      when b.c_finish -. b.c_start >= c.c_finish -. c.c_start
                      ->
                        best
                    | Some _ | None -> Some c
                  else best)
                None r.r_children
            in
            match best with
            | None -> List.rev acc
            | Some c -> chain (depth + 1) c.c_start c.c_finish (c :: acc)
          in
          let path = chain 1 r.r_start r.r_finish [] in
          Buffer.add_string buf "critical path: server.handle";
          List.iter
            (fun c ->
              Buffer.add_string buf
                (Printf.sprintf " -> %s [%s]" c.c_name
                   (fg (c.c_finish -. c.c_start))))
            path;
          Buffer.add_string buf
            (Printf.sprintf "\nphases:%s\n"
               (String.concat ""
                  (List.filter_map
                     (fun p ->
                       let v = r.r_phases.(phase_index p) in
                       if v > 0.0 then
                         Some (Printf.sprintf " %s=%s" (phase_to_string p) (fg v))
                       else None)
                     phases))))
        matching;
      Ok (Buffer.contents buf)

(* Per-name self time over every span (not only handles): intervals go
   to the innermost open span; gaps outside any span are dropped. *)
let render_self t =
  let totals : (string, float ref) Hashtbl.t = Hashtbl.create 64 in
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let bump tbl zero name f =
    let r =
      match Hashtbl.find_opt tbl name with
      | Some r -> r
      | None ->
          let r = ref zero in
          Hashtbl.replace tbl name r;
          r
    in
    f r
  in
  List.iter
    (fun seg ->
      let stack = ref [] in
      let last = ref 0.0 in
      List.iter
        (fun ev ->
          (match !stack with
          | [] -> ()
          | name :: _ ->
              bump totals 0.0 name (fun r -> r := !r +. (ev.ts -. !last)));
          last := ev.ts;
          match ev.kind with
          | Begin ->
              bump counts 0 ev.name (fun r -> incr r);
              stack := ev.name :: !stack
          | End ->
              let rec drop st =
                match st with
                | [] -> []
                | n :: rest -> if String.equal n ev.name then rest else drop rest
              in
              if List.exists (String.equal ev.name) !stack then
                stack := drop !stack
          | Instant -> ())
        seg.events)
    t.segments;
  let rows =
    Hashtbl.fold (fun name r acc -> (name, !r) :: acc) totals []
    |> List.sort (fun (n1, v1) (n2, v2) ->
           match Float.compare v2 v1 with 0 -> String.compare n1 n2 | c -> c)
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "span                           count   self-ticks\n";
  List.iter
    (fun (name, v) ->
      let n =
        match Hashtbl.find_opt counts name with Some r -> !r | None -> 0
      in
      Buffer.add_string buf (Printf.sprintf "%-30s %5d %12s\n" name n (fg v)))
    rows;
  Buffer.contents buf

let render_top t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun seg ->
      match (seg.counters, seg.gauges, seg.histograms) with
      | [], [], [] -> ()
      | _ :: _, _, _ | _, _ :: _, _ | _, _, _ :: _ ->
          Buffer.add_string buf (Printf.sprintf "[%s]\n" seg.seg_name);
          List.iter
            (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-40s %s\n" n (fg v)))
            seg.counters;
          List.iter
            (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-40s %s\n" n (fg v)))
            seg.gauges;
          List.iter
            (fun h ->
              Buffer.add_string buf
                (Printf.sprintf "  %-40s n=%d sum=%s p50=%s p99=%s\n" h.h_name
                   h.h_count (fg h.h_sum)
                   (match hist_quantile h 0.5 with None -> "-" | Some b -> fg b)
                   (match hist_quantile h 0.99 with None -> "-" | Some b -> fg b)))
            seg.histograms)
    t.segments;
  Buffer.contents buf

(* The whole-trace summary: one span stack over every event in record
   order (segments included), per-name aggregates sorted by name, and
   the metrics in record order, stably sorted by name. *)
type span_acc = {
  mutable s_count : int;
  mutable s_total : float;
  mutable s_max : float;
}

let render_stats t =
  let events = List.concat_map (fun seg -> seg.events) t.segments in
  let spans : (string, span_acc) Hashtbl.t = Hashtbl.create 16 in
  let instants : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let unmatched = ref 0 in
  let stack = ref [] in
  List.iter
    (fun e ->
      match e.kind with
      | Begin -> stack := (e.name, e.ts) :: !stack
      | End -> (
          match !stack with
          | (name, start) :: rest when String.equal name e.name ->
              stack := rest;
              let d = e.ts -. start in
              let a =
                match Hashtbl.find_opt spans name with
                | Some a -> a
                | None ->
                    let a = { s_count = 0; s_total = 0.0; s_max = 0.0 } in
                    Hashtbl.replace spans name a;
                    a
              in
              a.s_count <- a.s_count + 1;
              a.s_total <- a.s_total +. d;
              a.s_max <- Float.max a.s_max d
          | _ :: _ | [] -> incr unmatched)
      | Instant ->
          Hashtbl.replace instants e.name
            (1 + Option.value ~default:0 (Hashtbl.find_opt instants e.name)))
    events;
  let by_name l = List.stable_sort (fun (a, _) (b, _) -> String.compare a b) l in
  let sorted tbl = by_name (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  let metrics f = by_name (List.concat_map f t.segments) in
  let buf = Buffer.create 1024 in
  let section title rows row =
    if rows <> [] then begin
      Printf.bprintf buf "\n%s:\n" title;
      List.iter row rows
    end
  in
  Printf.bprintf buf "events: %d\n" (List.length events);
  let unmatched = !unmatched + List.length !stack in
  if unmatched > 0 then Printf.bprintf buf "unmatched spans: %d\n" unmatched;
  section "spans (count / total / mean / max)" (sorted spans) (fun (name, a) ->
      Printf.bprintf buf "  %-28s %6d  %10.3f %10.3f %10.3f\n" name a.s_count
        a.s_total
        (a.s_total /. float_of_int a.s_count)
        a.s_max);
  section "instants" (sorted instants) (fun (name, n) ->
      Printf.bprintf buf "  %-28s %6d\n" name n);
  section "counters" (metrics (fun seg -> seg.counters)) (fun (name, v) ->
      Printf.bprintf buf "  %-28s %6d\n" name (int_of_float v));
  section "gauges" (metrics (fun seg -> seg.gauges)) (fun (name, v) ->
      Printf.bprintf buf "  %-28s %10.3f\n" name v);
  section "histograms (count / sum)"
    (metrics (fun seg -> List.map (fun h -> (h.h_name, h)) seg.histograms))
    (fun (name, h) -> Printf.bprintf buf "  %-28s %6d %10.3f\n" name h.h_count h.h_sum);
  Buffer.contents buf

let render_diff ta a tb b =
  ignore ta;
  ignore tb;
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "spans: %d -> %d   total: %s -> %s   p99: %s -> %s\n"
       a.a_spans b.a_spans (fg a.a_total) (fg b.a_total) (fg a.a_p99)
       (fg b.a_p99));
  Buffer.add_string buf "phase              A        B    delta\n";
  List.iter
    (fun p ->
      let i = phase_index p in
      Buffer.add_string buf
        (Printf.sprintf "%-12s %8s %8s %8s\n" (phase_to_string p)
           (fg a.a_phases.(i))
           (fg b.a_phases.(i))
           (fg (b.a_phases.(i) -. a.a_phases.(i)))))
    phases;
  Buffer.contents buf

(* Resolve the handle-latency histogram's p99 bucket exemplar to a
   handle span and print its critical path end to end — the
   wire-to-wire check that exemplars, trace ids, and span
   reconstruction agree with each other. *)
let check_exemplar t =
  match find_histogram t "server.handle_ms" with
  | None -> Error "no server.handle_ms histogram in the trace"
  | Some h -> (
      match p99_exemplar h with
      | None -> Error "server.handle_ms: p99 bucket carries no exemplar"
      | Some (trace_id, v) -> (
          match render_path t trace_id with
          | Error e -> Error (Printf.sprintf "exemplar %s (value %s): %s" trace_id (fg v) e)
          | Ok text ->
              Ok
                (Printf.sprintf "p99 exemplar %s (observed %s ticks):\n%s"
                   trace_id (fg v) text)))

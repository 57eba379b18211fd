(* Telemetry against plain references kept here, which trade speed for
   obviousness:

   - trace contexts against the Printf/concat derivation: ids are
     [Printf.sprintf "%016Lx"] of FNV-1a over [client ^ "\x00" ^
     string_of_int seq] (roots) and over [parent_span_id ^ "\x00" ^
     name] (children), held as strings;
   - the metrics registry against a string-keyed registry (every
     counter, gauge and histogram a Hashtbl entry created on first
     use, exemplars as trace-id strings) with the exporters' metric
     rendering over it.

   Random scripts drive both sides; every accessor and every exported
   byte must agree. *)

module Telemetry = Harmony_telemetry.Telemetry
module Export = Harmony_telemetry.Export
module Tjson = Harmony_telemetry.Tjson

(* ------------------------------------------------------------------ *)
(* Reference trace contexts                                            *)

module Ref_ctx = struct
  type t = { trace_id : string; span_id : string; parent_id : string }

  let fnv64 s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      s;
    !h

  let hex h = Printf.sprintf "%016Lx" h

  let root ~client ~seq =
    let id = hex (fnv64 (client ^ "\x00" ^ string_of_int seq)) in
    { trace_id = id; span_id = id; parent_id = "" }

  let child c name =
    {
      trace_id = c.trace_id;
      span_id = hex (fnv64 (c.span_id ^ "\x00" ^ name));
      parent_id = c.span_id;
    }

  let child_i c name i = child c (name ^ "#" ^ string_of_int i)

  let args c =
    let base =
      [ ("trace_id", Telemetry.Str c.trace_id); ("span_id", Telemetry.Str c.span_id) ]
    in
    if String.equal c.parent_id "" then base
    else base @ [ ("parent_id", Telemetry.Str c.parent_id) ]
end

type step = Child of string | Child_i of string * int

let gen_client =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ ""; " "; "a b"; "session"; "server"; "\x00"; "\xff\x80" ];
        string_size ~gen:char (int_range 0 12);
      ])

let gen_int =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ 0; -1; 1; 9; 10; -10; max_int; min_int; max_int - 1; min_int + 1 ];
        int;
        small_signed_int;
      ])

let gen_name =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ ""; "server.search"; "measure"; "service.journal.append"; "#" ];
        string_size ~gen:char (int_range 0 8);
      ])

let gen_step =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Child n) gen_name;
        map2 (fun n i -> Child_i (n, i)) gen_name gen_int;
      ])

let ctx_matches c r =
  String.equal (Telemetry.Ctx.trace_id c) r.Ref_ctx.trace_id
  && String.equal (Telemetry.Ctx.span_id c) r.Ref_ctx.span_id
  && String.equal (Telemetry.Ctx.parent_id c) r.Ref_ctx.parent_id
  && Telemetry.Ctx.args c = Ref_ctx.args r

let ctx_matches_reference =
  QCheck2.Test.make ~count:500
    ~name:"Ctx ids and args match the Printf/concat derivation"
    QCheck2.Gen.(triple gen_client gen_int (list_size (int_range 0 6) gen_step))
    (fun (client, seq, steps) ->
      let c = Telemetry.Ctx.root ~client ~seq in
      let r = Ref_ctx.root ~client ~seq in
      let rec walk c r = function
        | [] -> true
        | Child name :: rest ->
            let c = Telemetry.Ctx.child c name and r = Ref_ctx.child r name in
            ctx_matches c r && walk c r rest
        | Child_i (name, i) :: rest ->
            let c = Telemetry.Ctx.child_i c name i
            and r = Ref_ctx.child_i r name i in
            ctx_matches c r && walk c r rest
      in
      ctx_matches c r && walk c r steps)

(* ------------------------------------------------------------------ *)
(* Reference registry                                                  *)

module Ref_registry = struct
  type hist = {
    mutable h_count : int;
    mutable h_sum : float;
    bounds : float array;
    occupancy : int array;
    ex_trace : string array; (* "" = none *)
    ex_value : float array;
  }

  type t = {
    counters : (string, int ref) Hashtbl.t;
    gauges : (string, float ref) Hashtbl.t;
    histograms : (string, hist) Hashtbl.t;
  }

  let create () =
    {
      counters = Hashtbl.create 8;
      gauges = Hashtbl.create 8;
      histograms = Hashtbl.create 8;
    }

  let incr t ?(by = 1) name =
    match Hashtbl.find_opt t.counters name with
    | Some r -> r := !r + by
    | None -> Hashtbl.replace t.counters name (ref by)

  let gauge t name v =
    match Hashtbl.find_opt t.gauges name with
    | Some r -> r := v
    | None -> Hashtbl.replace t.gauges name (ref v)

  let gauge_max t name v =
    match Hashtbl.find_opt t.gauges name with
    | Some r -> r := Float.max !r v
    | None -> Hashtbl.replace t.gauges name (ref v)

  let default_bounds =
    [| 0.001; 0.01; 0.1; 1.0; 10.0; 100.0; 1_000.0; 10_000.0; 100_000.0 |]

  let fresh bounds =
    let n = Array.length bounds + 1 in
    {
      h_count = 0;
      h_sum = 0.0;
      bounds;
      occupancy = Array.make n 0;
      ex_trace = Array.make n "";
      ex_value = Array.make n 0.0;
    }

  let hist t ?bounds name =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
        let bounds =
          match bounds with
          | Some b ->
              let b = Array.copy b in
              Array.sort Float.compare b;
              b
          | None -> default_bounds
        in
        let h = fresh bounds in
        Hashtbl.replace t.histograms name h;
        h

  let declare_histogram t ?bounds name = ignore (hist t ?bounds name)

  let observe t ?bounds ?exemplar name v =
    let h = hist t ?bounds name in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    let rec slot i =
      if i >= Array.length h.bounds then i
      else if v <= h.bounds.(i) then i
      else slot (i + 1)
    in
    let i = slot 0 in
    h.occupancy.(i) <- h.occupancy.(i) + 1;
    match exemplar with
    | None -> ()
    | Some trace ->
        h.ex_trace.(i) <- trace;
        h.ex_value.(i) <- v

  let sorted table f =
    Hashtbl.fold (fun k v acc -> (k, f v) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let counters t = sorted t.counters ( ! )
  let gauges t = sorted t.gauges ( ! )

  let snapshot h =
    {
      Telemetry.count = h.h_count;
      sum = h.h_sum;
      buckets =
        List.init (Array.length h.occupancy) (fun i ->
            ( (if i < Array.length h.bounds then h.bounds.(i) else infinity),
              h.occupancy.(i) ));
    }

  let histograms t = sorted t.histograms snapshot

  let exemplars t name =
    match Hashtbl.find_opt t.histograms name with
    | None -> []
    | Some h ->
        List.filter_map
          (fun i ->
            if String.equal h.ex_trace.(i) "" then None
            else
              Some
                {
                  Telemetry.ex_bound =
                    (if i < Array.length h.bounds then h.bounds.(i) else infinity);
                  ex_trace_id = h.ex_trace.(i);
                  ex_val = h.ex_value.(i);
                })
          (List.init (Array.length h.ex_trace) Fun.id)

  let same_bounds a b =
    Array.length a = Array.length b && Array.for_all2 Float.equal a b

  let merge_hist dst src =
    dst.h_count <- dst.h_count + src.h_count;
    dst.h_sum <- dst.h_sum +. src.h_sum;
    let take i j =
      if not (String.equal src.ex_trace.(i) "") then begin
        dst.ex_trace.(j) <- src.ex_trace.(i);
        dst.ex_value.(j) <- src.ex_value.(i)
      end
    in
    Array.iteri
      (fun i occupancy ->
        let j =
          if same_bounds dst.bounds src.bounds then i
          else
            let v = if i < Array.length src.bounds then src.bounds.(i) else infinity in
            let rec slot j =
              if j >= Array.length dst.bounds then j
              else if v <= dst.bounds.(j) then j
              else slot (j + 1)
            in
            slot 0
        in
        dst.occupancy.(j) <- dst.occupancy.(j) + occupancy;
        take i j)
      src.occupancy

  let merged ts =
    let dst = create () in
    List.iter
      (fun src ->
        Hashtbl.iter (fun name r -> incr dst ~by:!r name) src.counters;
        Hashtbl.iter (fun name r -> gauge_max dst name !r) src.gauges;
        Hashtbl.iter
          (fun name h ->
            let d =
              match Hashtbl.find_opt dst.histograms name with
              | Some d -> d
              | None ->
                  let d = fresh (Array.copy h.bounds) in
                  Hashtbl.replace dst.histograms name d;
                  d
            in
            merge_hist d h)
          src.histograms)
      ts;
    dst

  (* The exporters' metric rendering, over this registry. *)
  let bound_to_string b =
    if Float.is_finite b then Tjson.number_to_string b else "+Inf"

  let prom_float v =
    if Float.is_finite v then Tjson.number_to_string v
    else if v > 0.0 then "+Inf"
    else if v < 0.0 then "-Inf"
    else "NaN"

  let sanitize name =
    let mapped =
      String.map
        (function
          | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':') as c -> c
          | _ -> '_')
        name
    in
    let mapped =
      if String.length mapped > 0 then
        match mapped.[0] with '0' .. '9' -> "_" ^ mapped | _ -> mapped
      else mapped
    in
    "harmony_" ^ mapped

  let prometheus t =
    let buf = Buffer.create 1024 in
    List.iter
      (fun (name, v) ->
        let name = sanitize name in
        Printf.bprintf buf "# TYPE %s counter\n%s %d\n" name name v)
      (counters t);
    List.iter
      (fun (name, v) ->
        let name = sanitize name in
        Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" name name (prom_float v))
      (gauges t);
    List.iter
      (fun (name, (h : Telemetry.histogram_snapshot)) ->
        let exemplars = exemplars t name in
        let name = sanitize name in
        Printf.bprintf buf "# TYPE %s histogram\n" name;
        let cumulative = ref 0 in
        List.iter
          (fun (bound, occupancy) ->
            cumulative := !cumulative + occupancy;
            let exemplar =
              match
                List.find_opt
                  (fun e -> Float.equal e.Telemetry.ex_bound bound)
                  exemplars
              with
              | None -> ""
              | Some e ->
                  Printf.sprintf " # {trace_id=\"%s\"} %s" e.Telemetry.ex_trace_id
                    (prom_float e.Telemetry.ex_val)
            in
            Printf.bprintf buf "%s_bucket{le=\"%s\"} %d%s\n" name
              (bound_to_string bound) !cumulative exemplar)
          h.buckets;
        Printf.bprintf buf "%s_sum %s\n%s_count %d\n" name (prom_float h.sum)
          name h.count)
      (histograms t);
    Buffer.contents buf

  let jsonl t =
    let line kind name fields =
      Tjson.to_string
        (Tjson.Obj ([ ("type", Tjson.Str kind); ("name", Tjson.Str name) ] @ fields))
      ^ "\n"
    in
    String.concat ""
      (List.map
         (fun (name, v) ->
           line "counter" name [ ("value", Tjson.Num (float_of_int v)) ])
         (counters t)
      @ List.map
          (fun (name, v) -> line "gauge" name [ ("value", Tjson.Num v) ])
          (gauges t)
      @ List.map
          (fun (name, (h : Telemetry.histogram_snapshot)) ->
            let exemplars =
              match exemplars t name with
              | [] -> []
              | exs ->
                  [
                    ( "exemplars",
                      Tjson.List
                        (List.map
                           (fun e ->
                             Tjson.Obj
                               [
                                 ("le", Tjson.Str (bound_to_string e.Telemetry.ex_bound));
                                 ("trace_id", Tjson.Str e.Telemetry.ex_trace_id);
                                 ("value", Tjson.Num e.Telemetry.ex_val);
                               ])
                           exs) );
                  ]
            in
            line "histogram" name
              ([
                 ("count", Tjson.Num (float_of_int h.count));
                 ("sum", Tjson.Num h.sum);
                 ( "buckets",
                   Tjson.List
                     (List.map
                        (fun (b, n) ->
                          Tjson.Obj
                            [
                              ("le", Tjson.Str (bound_to_string b));
                              ("n", Tjson.Num (float_of_int n));
                            ])
                        h.buckets) );
               ]
              @ exemplars))
          (histograms t))
end

(* ------------------------------------------------------------------ *)
(* Scripts                                                             *)

(* Every op names one of three handles.  Resolve ops have no
   string-keyed counterpart: the reference does nothing for them. *)
type op =
  | Incr of int * string * int option
  | Add of int * string * int
  | Resolve_counter of int * string
  | Resolve_histogram of int * string * float array option
  | Observe of int * string * float array option * int option * float
  | Observe_into of int * string * float array option * int option * float
  | Declare of int * string * float array option
  | Gauge of int * string * float
  | Gauge_max of int * string * float
  | Resolve_gauge of int * string
  | Set of int * string * float

let handles = 3

let gen_op =
  let open QCheck2.Gen in
  let h = int_range 0 (handles - 1) in
  let name = oneofl [ "a"; "b.c"; "9x"; "h-1"; "" ] in
  let bounds =
    oneofl
      [ None; Some [| 1.0; 5.0; 10.0 |]; Some [| 10.0; 1.0 |]; Some [||];
        Some [| 0.0; 2.0 |] ]
  in
  let value =
    oneof
      [
        oneofl [ 0.0; 1.0; 5.0; -3.0; 1e6; 0.5; Float.nan; Float.infinity ];
        float_range (-20.0) 20.0;
      ]
  in
  let exemplar = opt (int_range 0 5) in
  let by = oneofl [ 0; 1; 2; -1; 7 ] in
  oneof
    [
      map3 (fun h n b -> Incr (h, n, b)) h name (opt by);
      map3 (fun h n b -> Add (h, n, b)) h name by;
      map2 (fun h n -> Resolve_counter (h, n)) h name;
      map3 (fun h n b -> Resolve_histogram (h, n, b)) h name bounds;
      map3 (fun (h, n) (b, e) v -> Observe (h, n, b, e, v))
        (pair h name) (pair bounds exemplar) value;
      map3 (fun (h, n) (b, e) v -> Observe_into (h, n, b, e, v))
        (pair h name) (pair bounds exemplar) value;
      map3 (fun h n b -> Declare (h, n, b)) h name bounds;
      map3 (fun h n v -> Gauge (h, n, v)) h name value;
      map3 (fun h n v -> Gauge_max (h, n, v)) h name value;
      map2 (fun h n -> Resolve_gauge (h, n)) h name;
      map3 (fun h n v -> Set (h, n, v)) h name value;
    ]

let op_to_string = function
  | Incr (h, n, b) ->
      Printf.sprintf "incr %d %S %s" h n
        (match b with Some b -> string_of_int b | None -> "-")
  | Add (h, n, b) -> Printf.sprintf "add %d %S %d" h n b
  | Resolve_counter (h, n) -> Printf.sprintf "counter %d %S" h n
  | Resolve_histogram (h, n, _) -> Printf.sprintf "histogram %d %S" h n
  | Observe (h, n, _, e, v) ->
      Printf.sprintf "observe %d %S %s %h" h n
        (match e with Some e -> string_of_int e | None -> "-")
        v
  | Observe_into (h, n, _, e, v) ->
      Printf.sprintf "observe_into %d %S %s %h" h n
        (match e with Some e -> string_of_int e | None -> "-")
        v
  | Declare (h, n, _) -> Printf.sprintf "declare %d %S" h n
  | Gauge (h, n, v) -> Printf.sprintf "gauge %d %S %h" h n v
  | Gauge_max (h, n, v) -> Printf.sprintf "gauge_max %d %S %h" h n v
  | Resolve_gauge (h, n) -> Printf.sprintf "gauge_handle %d %S" h n
  | Set (h, n, v) -> Printf.sprintf "set %d %S %h" h n v

(* The reference side of one handle: the registry, plus the bounds of
   the resolve that created each still-unused histogram slot — what an
   [observe_into] through any handle of that name fixes. *)
type ref_handle = {
  reg : Ref_registry.t;
  pending : (string, float array option) Hashtbl.t;
}

let run_script ops =
  let tel = Array.init handles (fun _ -> Telemetry.create ()) in
  let refs =
    Array.init handles (fun _ ->
        { reg = Ref_registry.create (); pending = Hashtbl.create 4 })
  in
  let ctx e = Telemetry.Ctx.root ~client:"x" ~seq:e in
  let ref_id e = (Ref_ctx.root ~client:"x" ~seq:e).Ref_ctx.trace_id in
  let resolve r name bounds =
    if not (Hashtbl.mem r.reg.Ref_registry.histograms name || Hashtbl.mem r.pending name)
    then Hashtbl.add r.pending name bounds
  in
  List.iter
    (fun op ->
      match op with
      | Incr (h, n, by) ->
          Telemetry.incr tel.(h) ?by n;
          Ref_registry.incr refs.(h).reg ?by n
      | Add (h, n, by) ->
          Telemetry.add (Telemetry.counter tel.(h) n) by;
          Ref_registry.incr refs.(h).reg ~by n
      | Resolve_counter (h, n) -> ignore (Telemetry.counter tel.(h) n : Telemetry.counter)
      | Resolve_histogram (h, n, bounds) ->
          ignore (Telemetry.histogram tel.(h) ?bounds n : Telemetry.histogram);
          resolve refs.(h) n bounds
      | Observe (h, n, bounds, e, v) ->
          Telemetry.observe tel.(h) ?bounds ?ctx:(Option.map ctx e) n v;
          Ref_registry.observe refs.(h).reg ?bounds
            ?exemplar:(Option.map ref_id e) n v
      | Observe_into (h, n, bounds, e, v) ->
          Telemetry.observe_into ?ctx:(Option.map ctx e)
            (Telemetry.histogram tel.(h) ?bounds n)
            v;
          resolve refs.(h) n bounds;
          let bounds = Option.join (Hashtbl.find_opt refs.(h).pending n) in
          Ref_registry.observe refs.(h).reg ?bounds
            ?exemplar:(Option.map ref_id e) n v
      | Declare (h, n, bounds) ->
          Telemetry.declare_histogram tel.(h) ?bounds n;
          Ref_registry.declare_histogram refs.(h).reg ?bounds n
      | Gauge (h, n, v) ->
          Telemetry.gauge tel.(h) n v;
          Ref_registry.gauge refs.(h).reg n v
      | Gauge_max (h, n, v) ->
          Telemetry.gauge_max tel.(h) n v;
          Ref_registry.gauge_max refs.(h).reg n v
      | Resolve_gauge (h, n) ->
          ignore (Telemetry.gauge_handle tel.(h) n : Telemetry.gauge)
      | Set (h, n, v) ->
          Telemetry.set (Telemetry.gauge_handle tel.(h) n) v;
          Ref_registry.gauge refs.(h).reg n v)
    ops;
  ( Array.to_list tel @ [ Telemetry.merged (Array.to_list tel) ],
    Array.to_list (Array.map (fun r -> r.reg) refs)
    @ [ Ref_registry.merged (Array.to_list (Array.map (fun r -> r.reg) refs)) ] )

let snapshot_equal (a : Telemetry.histogram_snapshot) (b : Telemetry.histogram_snapshot) =
  a.count = b.count && Float.equal a.sum b.sum
  && List.length a.buckets = List.length b.buckets
  && List.for_all2
       (fun (x, n) (y, m) -> Float.equal x y && n = m)
       a.buckets b.buckets

let exemplar_equal (a : Telemetry.exemplar) (b : Telemetry.exemplar) =
  Float.equal a.ex_bound b.ex_bound
  && String.equal a.ex_trace_id b.ex_trace_id
  && Float.equal a.ex_val b.ex_val

let list_equal eq a b = List.length a = List.length b && List.for_all2 eq a b

let handle_agrees tel reg =
  let hists = Telemetry.histograms tel in
  Telemetry.counters tel = Ref_registry.counters reg
  && list_equal
       (fun (n, a) (m, b) -> String.equal n m && snapshot_equal a b)
       hists (Ref_registry.histograms reg)
  && List.for_all
       (fun (name, _) ->
         list_equal exemplar_equal (Telemetry.exemplars tel name)
           (Ref_registry.exemplars reg name))
       hists
  && String.equal (Export.prometheus tel) (Ref_registry.prometheus reg)
  && String.equal (Export.jsonl tel) (Ref_registry.jsonl reg)

let registry_matches_reference =
  QCheck2.Test.make ~count:400
    ~name:"registry and exports match the string-keyed registry"
    ~print:(fun ops -> String.concat "\n" (List.map op_to_string ops))
    QCheck2.Gen.(list_size (int_range 0 40) gen_op)
    (fun ops ->
      let tels, regs = run_script ops in
      List.for_all2 handle_agrees tels regs)

let qcheck_seed = [| 0x5eed; 18 |]

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make qcheck_seed) t

let suite =
  [ to_alcotest ctx_matches_reference; to_alcotest registry_matches_reference ]

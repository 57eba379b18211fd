(* The deterministic telemetry handle: a span tracer plus a
   counters/gauges/histograms registry.

   Designed around the repo's determinism invariants (DESIGN.md §8):
   no ambient clocks and no module-toplevel mutable state.  All
   instrumentation goes through an explicit [t]; timestamps come from
   an injectable clock that defaults to a *logical* clock (the event
   sequence number), so a seeded run produces a byte-identical trace.
   [bin/] may inject a wall clock — the library never reads one.

   Cost model: an operation costs what its consumer keeps.
   - An event takes the handle's lock once: the clock tick, the span
     depth, the retained event (only with [record_events]) and the
     flight-ring slot are written in one critical section.  With a
     ring attached the handle's lock is the ring's mutex.
   - Trace ids are raw [int64] hashes; correlation args are built only
     for events the handle retains, and hex text only at export.
   - Counters, gauges and histograms are per-name slots, resolved once
     into typed handles.  A counter slot is atomic, so bumping it takes
     no lock; gauge and histogram slots are updated under the handle's
     lock.  The string-keyed [incr]/[gauge]/[observe] resolve and then
     use the same slots.

   Span begin/end pairs are meaningful only when emitted from a single
   domain (the tuning loop is sequential, and a service shard's
   messages run on one domain at a time). *)

type value = Str of string | Num of float | Int of int | Bool of bool

type event =
  | Begin of { name : string; ts : float; args : (string * value) list }
  | End of { name : string; ts : float; args : (string * value) list }
  | Instant of { name : string; ts : float; args : (string * value) list }

(* Trace correlation context.  Ids are derived by hashing, never drawn
   from a counter or RNG, so the same (client, seq) always yields the
   same trace id — traces stay byte-reproducible at any domain count
   and there is no ambient state to thread (D1/D2 clean). *)
module Ctx = struct
  type t = {
    trace : int64;
    span : int64;
    parent : int64;  (* equal to [span] on a root, which has no parent *)
    is_root : bool;
  }

  (* FNV-1a, 64-bit, over the bytes that define the ids (recorded
     traces depend on them): for a root, [client ^ "\x00" ^
     string_of_int seq]; for a child, the parent span id's 16 hex
     digits, ["\x00"] and the name.  The bytes are fed one at a time
     instead of being concatenated, so deriving an id builds no
     string. *)
  let offset = 0xcbf29ce484222325L

  let[@inline] byte h b =
    Int64.mul (Int64.logxor h (Int64.of_int b)) 0x100000001b3L

  let[@inline] bytes h s =
    let h = ref h in
    for i = 0 to String.length s - 1 do
      h := byte !h (Char.code (String.unsafe_get s i))
    done;
    !h

  (* The digits of [string_of_int n].  Works on the non-positive value
     so that [min_int] needs no negation. *)
  let[@inline] decimal h n =
    let h = ref (if n < 0 then byte h (Char.code '-') else h) in
    let m = if n < 0 then n else -n in
    let p = ref 1 in
    while m / !p <= -10 do
      p := !p * 10
    done;
    while !p > 0 do
      h := byte !h (Char.code '0' - ((m / !p) mod 10));
      p := !p / 10
    done;
    !h

  (* The digits of [Trace_id.to_hex id]. *)
  let[@inline] hex h id =
    let h = ref h in
    for k = 15 downto 0 do
      let nibble =
        Int64.to_int (Int64.logand (Int64.shift_right_logical id (4 * k)) 0xfL)
      in
      h := byte !h (Char.code (String.unsafe_get "0123456789abcdef" nibble))
    done;
    !h

  let root ~client ~seq =
    (* Boxed once and shared by the three fields, instead of boxed per
       field. *)
    let id = Sys.opaque_identity (decimal (byte (bytes offset client) 0) seq) in
    { trace = id; span = id; parent = id; is_root = true }

  let child c name =
    let span = bytes (byte (hex offset c.span) 0) name in
    { trace = c.trace; span; parent = c.span; is_root = false }

  let child_i c name i =
    let span =
      decimal (byte (bytes (byte (hex offset c.span) 0) name) (Char.code '#')) i
    in
    { trace = c.trace; span; parent = c.span; is_root = false }

  let trace_id c = Trace_id.to_hex c.trace
  let span_id c = Trace_id.to_hex c.span
  let parent_id c = if c.is_root then "" else Trace_id.to_hex c.parent

  let args c =
    let base =
      [ ("trace_id", Str (trace_id c)); ("span_id", Str (span_id c)) ]
    in
    if c.is_root then base else base @ [ ("parent_id", Str (parent_id c)) ]
end

type histogram_snapshot = {
  count : int;
  sum : float;
  buckets : (float * int) list;
      (* (upper bound, occupancy) per bucket, ascending; the final
         bucket's bound is [infinity] *)
}

(* A counter slot.  Resolving a name creates it untouched; it is
   exported from its first [add] on (even [~by:0]), so resolving ahead
   of use changes no export. *)
type counter =
  | Counter_off
  | Counter of { value : int Atomic.t; touched : bool Atomic.t }

(* A histogram slot, updated under the owning handle's lock.  Its
   bounds are fixed by the first touch — [declare_histogram],
   [observe] (its [bounds] or the defaults), or [observe_into] (the
   bounds the slot was resolved with) — and it is exported from then
   on. *)
type hist = {
  h_lock : Mutex.t;
  mutable touched : bool;
  mutable bounds : float array; (* ascending finite upper bounds *)
  mutable occupancy : int array;
      (* length bounds + 1; last is the overflow bucket *)
  mutable ex_set : bool array;
  mutable ex_trace : int64 array;
      (* OpenMetrics exemplars: the raw id of the last trace that
         landed in each bucket (when [ex_set]), with the observed value
         alongside — the p99 offender becomes a named trace, not a
         number. *)
  mutable ex_value : float array;
  mutable h_count : int;
  h_sum : float array; (* one cell: a float field would box on every write *)
}

type histogram = Histogram_off | Histogram of hist

(* A gauge slot, written under the owning handle's lock.  Resolving a
   name creates it unset; it is exported from its first write on, so
   resolving ahead of use changes no export.  The value sits in a
   one-cell float array, so a write boxes nothing. *)
type gslot = { g_lock : Mutex.t; mutable g_set : bool; g_value : float array }

type gauge = Gauge_off | Gauge of gslot

type exemplar = { ex_bound : float; ex_trace_id : string; ex_val : float }

type state = {
  lock : Mutex.t;
  clock : (unit -> float) option;
  record_events : bool;
      (* false = metrics-only handle: the logical clock and the event
         count still advance identically (so byte-reproducibility of
         every metric is preserved), but event payloads are not
         retained — a service holding thousands of sessions on one
         shard handle would otherwise accumulate unbounded trace
         memory. *)
  mutable ticks : int; (* events recorded: the logical clock *)
  mutable rev_events : event list;
  mutable depth_now : int;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  flight : Flight.t option;
      (* Ring of recent events, kept even when [record_events] is
         false; its mutex is [lock]. *)
  gc_stats : bool;
      (* Sample Gc.quick_stat into gauges at root-span close.  GC
         counters are not deterministic, so this is opt-in the same
         way wall clocks are: only [bin/] turns it on. *)
}

type t = Off | On of state

let off = Off

let make ?clock ~record_events ?flight ~gc_stats () =
  {
    lock =
      (match flight with Some f -> Flight.mutex f | None -> Mutex.create ());
    clock;
    record_events;
    ticks = 0;
    rev_events = [];
    depth_now = 0;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 8;
    flight;
    gc_stats;
  }

let create ?clock ?(record_events = true) ?flight ?(gc_stats = false) () =
  On (make ?clock ~record_events ?flight ~gc_stats ())

let enabled = function Off -> false | On _ -> true
let retains_events = function Off -> false | On s -> s.record_events

let now_locked s =
  match s.clock with
  | Some f -> f ()
  | None -> float_of_int s.ticks

(* Read once or twice per message (handle latency), so no closure. *)
let now = function
  | Off -> 0.0
  | On s -> (
      Mutex.lock s.lock;
      match now_locked s with
      | ts ->
          Mutex.unlock s.lock;
          ts
      | exception e ->
          Mutex.unlock s.lock;
          raise e)

(* The table holds the handles themselves, as for counters: resolving
   an existing name builds nothing. *)
let gauge_locked s name =
  match Hashtbl.find_opt s.gauges name with
  | Some g -> g
  | None ->
      let g = Gauge { g_lock = s.lock; g_set = false; g_value = [| 0.0 |] } in
      Hashtbl.replace s.gauges name g;
      g

let write_locked g v =
  match g with
  | Gauge_off -> ()
  | Gauge g ->
      g.g_value.(0) <- v;
      g.g_set <- true

let max_locked g v =
  match g with
  | Gauge g when g.g_set -> g.g_value.(0) <- Float.max g.g_value.(0) v
  | Gauge _ | Gauge_off -> write_locked g v

let value_if_set = function
  | Gauge g when g.g_set -> Some g.g_value.(0)
  | Gauge _ | Gauge_off -> None

(* Not deterministic (the whole point); opt-in via [gc_stats], never
   on by default, so the byte-identity contract is untouched. *)
let sample_gc_locked s =
  let st = Gc.quick_stat () in
  let put name v = write_locked (gauge_locked s name) v in
  put "telemetry.gc.minor_words" st.Gc.minor_words;
  put "telemetry.gc.major_words" st.Gc.major_words;
  put "telemetry.gc.promoted_words" st.Gc.promoted_words;
  put "telemetry.gc.compactions" (float_of_int st.Gc.compactions);
  put "telemetry.gc.heap_words" (float_of_int st.Gc.heap_words)

(* A retained event's args: the caller's, then the context's
   correlation ids. *)
let event_args args ctx =
  match (args, ctx) with
  | None, None -> []
  | Some a, None -> a
  | None, Some c -> Ctx.args c
  | Some a, Some c -> a @ Ctx.args c

(* One event, one critical section.  Every recorded event advances the
   logical clock by one, so default timestamps are the event sequence
   number — strictly increasing and fully deterministic.  Only the
   injected clock can raise. *)
let record s kind name ctx args =
  Mutex.lock s.lock;
  match now_locked s with
  | exception e ->
      Mutex.unlock s.lock;
      raise e
  | ts ->
      s.ticks <- s.ticks + 1;
      (match kind with
      | Flight.Begin -> s.depth_now <- s.depth_now + 1
      | Flight.End -> s.depth_now <- Int.max 0 (s.depth_now - 1)
      | Flight.Instant -> ());
      if s.record_events then begin
        let args = event_args args ctx in
        let ev =
          match kind with
          | Flight.Begin -> Begin { name; ts; args }
          | Flight.End -> End { name; ts; args }
          | Flight.Instant -> Instant { name; ts; args }
        in
        s.rev_events <- ev :: s.rev_events
      end;
      (match (s.flight, ctx) with
      | None, _ -> ()
      | Some f, Some c ->
          Flight.record_locked f ~kind ~name ~ts ~traced:true ~trace:c.Ctx.trace
      | Some f, None ->
          Flight.record_locked f ~kind ~name ~ts ~traced:false ~trace:0L);
      (match kind with
      | Flight.End when s.gc_stats && s.depth_now = 0 -> sample_gc_locked s
      | Flight.Begin | Flight.End | Flight.Instant -> ());
      Mutex.unlock s.lock

let span_begin t ?ctx ?args name =
  match t with Off -> () | On s -> record s Flight.Begin name ctx args

let span_end t ?args name =
  match t with Off -> () | On s -> record s Flight.End name None args

let span t ?ctx ?args name f =
  match t with
  | Off -> f ()
  | On s ->
      record s Flight.Begin name ctx args;
      Fun.protect ~finally:(fun () -> record s Flight.End name None None) f

let instant t ?ctx ?args name =
  match t with Off -> () | On s -> record s Flight.Instant name ctx args

let events = function
  | Off -> []
  | On s -> Mutex.protect s.lock (fun () -> List.rev s.rev_events)

let event_count = function
  | Off -> 0
  | On s -> Mutex.protect s.lock (fun () -> s.ticks)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

(* The table holds the handles themselves, so resolving an existing
   name builds no new slot or handle: a service resolves per session
   (Server.create), and 2,000 live sessions must not each keep one. *)
let counter_locked s name =
  match Hashtbl.find_opt s.counters name with
  | Some c -> c
  | None ->
      let c = Counter { value = Atomic.make 0; touched = Atomic.make false } in
      Hashtbl.replace s.counters name c;
      c

let counter t name =
  match t with
  | Off -> Counter_off
  | On s ->
      Mutex.lock s.lock;
      let c = counter_locked s name in
      Mutex.unlock s.lock;
      c

let add c by =
  match c with
  | Counter_off -> ()
  | Counter { value; touched } ->
      ignore (Atomic.fetch_and_add value by : int);
      if not (Atomic.get touched) then Atomic.set touched true

let incr t ?(by = 1) name = add (counter t name) by

let counter_value t name =
  match t with
  | Off -> 0
  | On s -> (
      match
        Mutex.protect s.lock (fun () -> Hashtbl.find_opt s.counters name)
      with
      | Some (Counter { value; _ }) -> Atomic.get value
      | Some Counter_off | None -> 0)

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)

let gauge_handle t name =
  match t with
  | Off -> Gauge_off
  | On s ->
      Mutex.lock s.lock;
      let g = gauge_locked s name in
      Mutex.unlock s.lock;
      g

let set g v =
  match g with
  | Gauge_off -> ()
  | Gauge slot ->
      Mutex.lock slot.g_lock;
      write_locked g v;
      Mutex.unlock slot.g_lock

let gauge t name v =
  match t with
  | Off -> ()
  | On s ->
      Mutex.lock s.lock;
      write_locked (gauge_locked s name) v;
      Mutex.unlock s.lock

let gauge_max t name v =
  match t with
  | Off -> ()
  | On s ->
      Mutex.lock s.lock;
      max_locked (gauge_locked s name) v;
      Mutex.unlock s.lock

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

let default_bounds =
  (* Decades from 1 ms to 100 s: wide enough for both logical-tick
     durations and wall-clock millisecond latencies. *)
  [| 0.001; 0.01; 0.1; 1.0; 10.0; 100.0; 1_000.0; 10_000.0; 100_000.0 |]

let sorted_bounds = function
  | Some b ->
      let b = Array.copy b in
      Array.sort Float.compare b;
      b
  | None -> default_bounds

let same_bounds a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.equal x y) a b

let reshape h bounds =
  let n = Array.length bounds + 1 in
  h.bounds <- bounds;
  h.occupancy <- Array.make n 0;
  h.ex_set <- Array.make n false;
  h.ex_trace <- Array.make n 0L;
  h.ex_value <- Array.make n 0.0

let new_hist lock bounds =
  let h =
    {
      h_lock = lock;
      touched = false;
      bounds = [||];
      occupancy = [||];
      ex_set = [||];
      ex_trace = [||];
      ex_value = [||];
      h_count = 0;
      h_sum = [| 0.0 |];
    }
  in
  reshape h bounds;
  h

(* The slot for [name] (created untouched with [bounds] if absent), as
   the handle the table holds. *)
let hist_slot_locked s ~bounds name =
  match Hashtbl.find_opt s.histograms name with
  | Some slot -> slot
  | None ->
      let slot = Histogram (new_hist s.lock (sorted_bounds bounds)) in
      Hashtbl.replace s.histograms name slot;
      slot

(* The first touch fixes the bounds and starts exporting the slot.
   Through a name: the call's bounds, or the defaults — as when a name
   was the only way in.  Through a handle: the bounds it was resolved
   with. *)
let touch_named h bounds =
  if not h.touched then begin
    h.touched <- true;
    let b = sorted_bounds bounds in
    if not (same_bounds b h.bounds) then reshape h b
  end

let observe_locked h ctx v =
  h.h_count <- h.h_count + 1;
  h.h_sum.(0) <- h.h_sum.(0) +. v;
  (* The first bucket whose bound is >= v; NaN lands in the overflow
     bucket. *)
  let i = ref 0 in
  while !i < Array.length h.bounds && not (v <= h.bounds.(!i)) do
    i := !i + 1
  done;
  let i = !i in
  h.occupancy.(i) <- h.occupancy.(i) + 1;
  match ctx with
  | None -> ()
  | Some c ->
      h.ex_set.(i) <- true;
      h.ex_trace.(i) <- c.Ctx.trace;
      h.ex_value.(i) <- v

let histogram t ?bounds name =
  match t with
  | Off -> Histogram_off
  | On s ->
      Mutex.lock s.lock;
      let slot = hist_slot_locked s ~bounds name in
      Mutex.unlock s.lock;
      slot

let observe_into ?ctx h v =
  match h with
  | Histogram_off -> ()
  | Histogram h ->
      Mutex.lock h.h_lock;
      h.touched <- true;
      observe_locked h ctx v;
      Mutex.unlock h.h_lock

let observe t ?bounds ?ctx name v =
  match t with
  | Off -> ()
  | On s ->
      Mutex.protect s.lock (fun () ->
          match hist_slot_locked s ~bounds name with
          | Histogram h ->
              touch_named h bounds;
              observe_locked h ctx v
          | Histogram_off -> ())

let declare_histogram t ?bounds name =
  match t with
  | Off -> ()
  | On s ->
      Mutex.protect s.lock (fun () ->
          match hist_slot_locked s ~bounds name with
          | Histogram h -> touch_named h bounds
          | Histogram_off -> ())

(* ------------------------------------------------------------------ *)
(* Reading the registry                                                *)

let sorted_bindings table f =
  Hashtbl.fold
    (fun k v acc -> match f v with Some x -> (k, x) :: acc | None -> acc)
    table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let touched_value = function
  | Counter { value; touched } when Atomic.get touched ->
      Some (Atomic.get value)
  | Counter _ | Counter_off -> None

let touched_hist = function
  | Histogram h when h.touched -> Some h
  | Histogram _ | Histogram_off -> None

let counters = function
  | Off -> []
  | On s ->
      Mutex.protect s.lock (fun () -> sorted_bindings s.counters touched_value)

let gauges = function
  | Off -> []
  | On s ->
      Mutex.protect s.lock (fun () -> sorted_bindings s.gauges value_if_set)

let snapshot_hist h =
  let buckets =
    List.init
      (Array.length h.occupancy)
      (fun i ->
        let bound =
          if i < Array.length h.bounds then h.bounds.(i) else infinity
        in
        (bound, h.occupancy.(i)))
  in
  { count = h.h_count; sum = h.h_sum.(0); buckets }

let histograms = function
  | Off -> []
  | On s ->
      Mutex.protect s.lock (fun () ->
          sorted_bindings s.histograms (fun h ->
              Option.map snapshot_hist (touched_hist h)))

let find_hist s name =
  Option.bind (Hashtbl.find_opt s.histograms name) touched_hist

let histogram_value t name =
  match t with
  | Off -> None
  | On s ->
      Mutex.protect s.lock (fun () ->
          Option.map snapshot_hist (find_hist s name))

let exemplars_of_hist h =
  let out = ref [] in
  for i = Array.length h.ex_set - 1 downto 0 do
    if h.ex_set.(i) then
      let bound =
        if i < Array.length h.bounds then h.bounds.(i) else infinity
      in
      out :=
        {
          ex_bound = bound;
          ex_trace_id = Trace_id.to_hex h.ex_trace.(i);
          ex_val = h.ex_value.(i);
        }
        :: !out
  done;
  !out

let exemplars t name =
  match t with
  | Off -> []
  | On s ->
      Mutex.protect s.lock (fun () ->
          match find_hist s name with
          | None -> []
          | Some h -> exemplars_of_hist h)

let flight = function Off -> None | On s -> s.flight

(* ------------------------------------------------------------------ *)
(* Cross-handle aggregation (the sharded service's merged registry)    *)

let quantile snap q =
  if snap.count = 0 || not (q >= 0.0 && q <= 1.0) then Float.nan
  else
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int snap.count)) in
      if r < 1 then 1 else if r > snap.count then snap.count else r
    in
    let rec go cumulative = function
      | [] -> Float.nan
      | (bound, occupancy) :: rest ->
          if cumulative + occupancy >= rank then bound
          else go (cumulative + occupancy) rest
    in
    go 0 snap.buckets

(* Fold [src]'s buckets into [dst].  Identical bounds merge exactly
   (pointwise occupancy addition); differing bounds degrade gracefully
   by crediting each source bucket at its upper bound — conservative,
   and still exact for count and sum. *)
let merge_hist dst src =
  dst.h_count <- dst.h_count + src.h_count;
  dst.h_sum.(0) <- dst.h_sum.(0) +. src.h_sum.(0);
  (* A later source's exemplar overwrites an earlier one ("last trace
     to land in the bucket"); merging in a fixed handle order keeps
     the result deterministic. *)
  let take_exemplar i j =
    if src.ex_set.(i) then begin
      dst.ex_set.(j) <- true;
      dst.ex_trace.(j) <- src.ex_trace.(i);
      dst.ex_value.(j) <- src.ex_value.(i)
    end
  in
  if same_bounds dst.bounds src.bounds then
    Array.iteri
      (fun i occupancy ->
        dst.occupancy.(i) <- dst.occupancy.(i) + occupancy;
        take_exemplar i i)
      src.occupancy
  else
    Array.iteri
      (fun i occupancy ->
        let v =
          if i < Array.length src.bounds then src.bounds.(i) else infinity
        in
        let rec slot j =
          if j >= Array.length dst.bounds then j
          else if v <= dst.bounds.(j) then j
          else slot (j + 1)
        in
        let j = slot 0 in
        dst.occupancy.(j) <- dst.occupancy.(j) + occupancy;
        take_exemplar i j)
      src.occupancy

let merged handles =
  let dst = make ~record_events:true ~gc_stats:false () in
  List.iter
    (fun t ->
      match t with
      | Off -> ()
      | On src ->
          Mutex.protect src.lock (fun () ->
              Hashtbl.iter
                (fun name c ->
                  match touched_value c with
                  | Some v -> add (counter_locked dst name) v
                  | None -> ())
                src.counters;
              Hashtbl.iter
                (fun name g ->
                  match value_if_set g with
                  | Some v -> max_locked (gauge_locked dst name) v
                  | None -> ())
                src.gauges;
              Hashtbl.iter
                (fun name h ->
                  match touched_hist h with
                  | None -> ()
                  | Some h -> (
                      let bounds = Some h.bounds in
                      match hist_slot_locked dst ~bounds name with
                      | Histogram d ->
                          touch_named d bounds;
                          merge_hist d h
                      | Histogram_off -> ()))
                src.histograms))
    handles;
  On dst

(* Flight recorder: a fixed-capacity ring of the most recent telemetry
   events, kept even when the owning handle is metrics-only
   ([record_events:false]).  A long-running shard cannot afford an
   unbounded trace, but the last few hundred events before a crash or
   an SLO page are exactly what an operator needs.

   Allocation discipline (DESIGN.md §12): every slot lives in
   preallocated parallel arrays — [kinds]/[names]/[stamps]/[traces]/
   [traced] — so recording mutates slots in place.  Timestamps go in a
   bare [float array] (unboxed); a mutable float field on a mixed
   record would box on every write.  A trace id is stored as the
   context's raw [int64] (the boxed value the context already holds),
   and rendered as hex only by [entries] and [to_jsonl].

   Locking: the ring's mutex is the one lock for the ring.  A telemetry
   handle with a ring attached adopts it as its own lock and writes
   slots through [record_locked] inside the critical section that
   ticks its clock.  Like the telemetry lock, it is a forced leaf in
   the semantic lock-order analysis (sem rule S2): no other lock may
   be acquired while holding it. *)

type kind = Begin | End | Instant

type t = {
  lock : Mutex.t;
  capacity : int;
  kinds : int array;
  names : string array;
  stamps : float array;
  traces : int64 array;
  traced : bool array;  (* whether the slot's event carried a trace id *)
  mutable total : int; (* events ever recorded; ring slot = total mod capacity *)
}

type entry = { e_kind : kind; e_name : string; e_ts : float; e_trace : string }

let create ~capacity =
  if capacity < 1 then invalid_arg "Flight.create: capacity < 1";
  {
    lock = Mutex.create ();
    capacity;
    kinds = Array.make capacity 0;
    names = Array.make capacity "";
    stamps = Array.make capacity 0.0;
    traces = Array.make capacity 0L;
    traced = Array.make capacity false;
    total = 0;
  }

let mutex t = t.lock


let int_of_kind = function Begin -> 0 | End -> 1 | Instant -> 2
let kind_of_int = function 0 -> Begin | 1 -> End | _ -> Instant
let kind_to_string = function
  | Begin -> "begin"
  | End -> "end"
  | Instant -> "instant"

let record_locked t ~kind ~name ~ts ~traced ~trace =
  let i = t.total mod t.capacity in
  t.kinds.(i) <- int_of_kind kind;
  t.names.(i) <- name;
  t.stamps.(i) <- ts;
  t.traced.(i) <- traced;
  if traced then t.traces.(i) <- trace;
  t.total <- t.total + 1

(* Oldest-first snapshot of the retained window (the last
   [min total capacity] events). *)
let entries t =
  Mutex.protect t.lock (fun () ->
      let n = Int.min t.total t.capacity in
      let first = t.total - n in
      List.init n (fun j ->
          let i = (first + j) mod t.capacity in
          {
            e_kind = kind_of_int t.kinds.(i);
            e_name = t.names.(i);
            e_ts = t.stamps.(i);
            e_trace =
              (if t.traced.(i) then Trace_id.to_hex t.traces.(i) else "");
          }))

(* One JSON object per line, oldest first — same field names as
   [Export.jsonl] events plus the ring metadata, so [harmony_trace]
   and [harmony_cli stats] both read a dump. *)
let to_jsonl ?shard t =
  let buf = Buffer.create 1024 in
  let shard_field =
    match shard with
    | None -> []
    | Some i -> [ ("shard", Tjson.Num (float_of_int i)) ]
  in
  List.iter
    (fun e ->
      let trace_field =
        if String.equal e.e_trace "" then []
        else [ ("args", Tjson.Obj [ ("trace_id", Tjson.Str e.e_trace) ]) ]
      in
      Buffer.add_string buf
        (Tjson.to_string
           (Tjson.Obj
              ([
                 ("type", Tjson.Str (kind_to_string e.e_kind));
                 ("name", Tjson.Str e.e_name);
                 ("ts", Tjson.Num e.e_ts);
               ]
              @ shard_field @ trace_field)));
      Buffer.add_char buf '\n')
    (entries t);
  Buffer.contents buf

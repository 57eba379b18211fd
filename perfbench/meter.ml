(* Measuring helpers shared by the workloads: the wall clock, sample
   statistics, reply digests, the per-round record every workload
   produces, and the wall-clock span recorder of the traced run. *)

module Telemetry = Harmony_telemetry.Telemetry

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Sample statistics                                                   *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [q] in [0, 1]. *)
let percentile samples q =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The middle value, or the mean of the two middle values. *)
let median samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let arithmetic_mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Of positive samples. *)
let geometric_mean xs = exp (arithmetic_mean (List.map log xs))

(* ------------------------------------------------------------------ *)
(* Digests: FNV-1a over strings, in OCaml's 63-bit int (the 64-bit
   offset basis with its top bit dropped)                              *)

let fnv_offset = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3

let fnv h s =
  let h = ref h in
  String.iter (fun ch -> h := (!h lxor Char.code ch) * fnv_prime) s;
  !h

let fnv_int h i = fnv h (string_of_int i)
let fnv_float h f = fnv h (Printf.sprintf "%h" f)
let hex h = Printf.sprintf "%016x" (h land max_int)

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)

(* A round is one set-up plus one timed stream, generated from the
   round's own seed.  Two runs of one seed play the same rounds, so
   they repeat every count and digest of a round exactly. *)
type round = {
  setup_s : float;
  latencies : float array;  (* wall seconds of each timed call *)
  busy_s : float;  (* sum of [latencies] *)
  ops : int;
  failed : int;
  counts : (string * int) list;  (* exact counts of the round's stream *)
  gc : (string * int) list;  (* runtime counts of the timed calls *)
  quality : (string * float list) list;  (* tuning-quality samples *)
  layers : (string * float) list;  (* per-layer times of a traced round *)
  outcomes : int array;  (* one digest per conversation or run *)
  digest : string;
  heap_words : int;  (* major heap sampled after each timed call, peak *)
}

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

let count r name = Option.value ~default:0 (List.assoc_opt name r.counts)


(* ------------------------------------------------------------------ *)
(* The traced run's span recorder                                     *)

(* Spans carry timestamps the benchmark read itself, so each layer's
   sums and the exported trace come from the same clock readings.  The
   telemetry clock returns the stamp staged for the next event, in
   microseconds since the tracer was made.  Spans are kept in memory up
   to a limit the caller raises per phase ({!allow}), checked per op so
   that an op is recorded whole or not at all, and written as JSONL at
   exit. *)
type tracer = {
  tel : Telemetry.t;
  stamp : float ref;
  mutable limit : int;  (* event count past which no new op is recorded *)
  mutable live : bool;  (* the current op is being recorded *)
  mutable ctx : Telemetry.Ctx.t option;
}

let tracer () =
  let origin = now () in
  let stamp = ref origin in
  {
    tel = Telemetry.create ~clock:(fun () -> (!stamp -. origin) *. 1e6) ();
    stamp;
    limit = 0;
    live = false;
    ctx = None;
  }

(* Record up to about [events] more events. *)
let allow tr events = tr.limit <- Telemetry.event_count tr.tel + events

let args tr name =
  match tr.ctx with
  | None -> []
  | Some root when String.equal name "" -> Telemetry.Ctx.args root
  | Some root -> Telemetry.Ctx.args (Telemetry.Ctx.child root name)

(* Start op [seq] of kind [name]: its root span, whose trace id the op's
   child spans share, opens at [ts] when recording has room. *)
let op_begin tr ~seq name ts =
  tr.live <- Telemetry.event_count tr.tel < tr.limit;
  if tr.live then begin
    tr.ctx <- Some (Telemetry.Ctx.root ~client:name ~seq);
    tr.stamp := ts;
    Telemetry.span_begin tr.tel ~args:(args tr "") name
  end

let op_end tr name ts =
  if tr.live then begin
    tr.stamp := ts;
    Telemetry.span_end tr.tel name
  end;
  tr.live <- false;
  tr.ctx <- None

(* A span of the current op left open while its callee runs. *)
let enter tr name ts =
  if tr.live then begin
    tr.stamp := ts;
    Telemetry.span_begin tr.tel ~args:(args tr name) name
  end

let leave tr name ts =
  if tr.live then begin
    tr.stamp := ts;
    Telemetry.span_end tr.tel name
  end

(* A child span of the current op, from [t0] to [t1]. *)
let child tr name t0 t1 =
  if tr.live then begin
    tr.stamp := t0;
    Telemetry.span_begin tr.tel ~args:(args tr name) name;
    tr.stamp := t1;
    Telemetry.span_end tr.tel name
  end

let write_trace tr path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Harmony_telemetry.Export.jsonl tr.tel))

module Telemetry = Harmony_telemetry.Telemetry

type config = {
  max_inflight : int;
  rate : int;
  burst : int;
  refill_every : int;
  degrade_window : int;
  degrade_high : int;
  degrade_low : int;
}

let unlimited =
  { max_inflight = 0; rate = 0; burst = 0; refill_every = 0;
    degrade_window = 0; degrade_high = 0; degrade_low = 0 }

let default_config =
  { max_inflight = 64; rate = 0; burst = 0; refill_every = 1;
    degrade_window = 16; degrade_high = 64; degrade_low = 8 }

type priority = Critical | Normal | Low

type reason =
  | Deadline_expired
  | Rate_limited
  | Over_capacity
  | Degraded_shed
  | Cancelled

type verdict =
  | Admit
  | Reject of { reason : reason; retry_after : int; degraded : bool }

(* Per-client token bucket.  [last] is the tick the bucket was last
   brought current to; refills are whole periods so the arithmetic is
   exact integer math (no drift, no float). *)
type bucket = { mutable tokens : int; mutable last : int }

type shard_state = {
  tel : Telemetry.t;
  admitted : Telemetry.counter;
  queue_delay : Telemetry.histogram;
  mutable inflight : int;
  mutable degraded : bool;
  mutable window_start : int;
  mutable window_shed : int;
}

type t = {
  config : config;
  mutable clock : int;
  shard_state : shard_state array;
  buckets : (string, bucket) Hashtbl.t;
}

(* Registry names. *)
let c_admitted = "service.admission.admitted"
let c_rejected = "service.admission.rejected"
let c_rate_limited = "service.admission.rate_limited"
let c_over_capacity = "service.admission.over_capacity"
let c_shed = "service.admission.shed"
let c_deadline_expired = "service.admission.deadline_expired"
let c_cancelled = "service.admission.cancelled"
let c_degrade_transitions = "service.admission.degrade_transitions"
let g_degraded = "service.admission.degraded"
let h_queue_delay = "service.admission.queue_delay"

(* Same decade-free bounds as [Service.handle_ms_bounds]: logical-tick
   delays live in the first few buckets. *)
let queue_delay_bounds =
  [| 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]

let validate ~shards config =
  if shards < 1 then invalid_arg "Admission.create: shards < 1";
  if config.max_inflight < 0 then
    invalid_arg "Admission.create: max_inflight < 0";
  if config.rate < 0 then invalid_arg "Admission.create: rate < 0";
  if config.rate > 0 && config.burst < 1 then
    invalid_arg "Admission.create: rate > 0 needs burst >= 1";
  if config.rate > 0 && config.refill_every < 1 then
    invalid_arg "Admission.create: rate > 0 needs refill_every >= 1";
  if config.degrade_window < 0 then
    invalid_arg "Admission.create: degrade_window < 0";
  if config.degrade_window > 0 && config.degrade_high < 1 then
    invalid_arg "Admission.create: degrade_window > 0 needs degrade_high >= 1";
  if config.degrade_window > 0 && config.degrade_low > config.degrade_high
  then invalid_arg "Admission.create: degrade_low > degrade_high";
  if config.degrade_window > 0 && config.degrade_low < 0 then
    invalid_arg "Admission.create: degrade_low < 0"

let create ?telemetry ~shards config =
  validate ~shards config;
  let tel_for =
    match telemetry with Some f -> f | None -> fun _ -> Telemetry.off
  in
  let shard_state =
    Array.init shards (fun i ->
        let tel = tel_for i in
        Telemetry.declare_histogram tel ~bounds:queue_delay_bounds
          h_queue_delay;
        Telemetry.gauge tel g_degraded 0.;
        { tel;
          admitted = Telemetry.counter tel c_admitted;
          queue_delay =
            Telemetry.histogram tel ~bounds:queue_delay_bounds h_queue_delay;
          inflight = 0; degraded = false; window_start = 0;
          window_shed = 0 })
  in
  { config; clock = 0; shard_state; buckets = Hashtbl.create 64 }

let now t = t.clock

let tick t =
  t.clock <- t.clock + 1;
  if t.config.degrade_window > 0 then
    Array.iter
      (fun s ->
        if t.clock - s.window_start >= t.config.degrade_window then begin
          let was = s.degraded in
          if s.window_shed >= t.config.degrade_high then s.degraded <- true
          else if s.window_shed <= t.config.degrade_low then
            s.degraded <- false;
          if not (Bool.equal s.degraded was) then begin
            Telemetry.incr s.tel c_degrade_transitions;
            Telemetry.gauge s.tel g_degraded (if s.degraded then 1. else 0.)
          end;
          s.window_shed <- 0;
          s.window_start <- t.clock
        end)
      t.shard_state

let any_degraded t = Array.exists (fun s -> s.degraded) t.shard_state

(* Bring a client's bucket current, creating it full on first
   contact. *)
let bucket_for t client =
  match Hashtbl.find_opt t.buckets client with
  | Some b ->
      let periods = (t.clock - b.last) / t.config.refill_every in
      if periods > 0 then begin
        b.tokens <- Int.min t.config.burst (b.tokens + (periods * t.config.rate));
        b.last <- b.last + (periods * t.config.refill_every)
      end;
      b
  | None ->
      let b = { tokens = t.config.burst; last = t.clock } in
      Hashtbl.add t.buckets client b;
      b

let reject s ~reason ~retry_after =
  Telemetry.incr s.tel c_rejected;
  (match reason with
  | Deadline_expired -> Telemetry.incr s.tel c_deadline_expired
  | Rate_limited -> Telemetry.incr s.tel c_rate_limited
  | Over_capacity -> Telemetry.incr s.tel c_over_capacity
  | Degraded_shed -> Telemetry.incr s.tel c_shed
  | Cancelled -> Telemetry.incr s.tel c_cancelled);
  Reject { reason; retry_after; degraded = s.degraded }

let check t ~shard ~client ~priority ?enqueued_at ?deadline ?ctx () =
  let s = t.shard_state.(shard) in
  match deadline with
  | Some d when d < t.clock ->
      s.window_shed <- s.window_shed + 1;
      reject s ~reason:Deadline_expired ~retry_after:0
  | Some _ | None -> (
      let degraded_shed =
        s.degraded
        && (match priority with Low -> true | Critical | Normal -> false)
      in
      if degraded_shed then begin
        (* Degraded-mode sheds are the response, not the signal: they do
           not feed the window, or the shed clients' own retries would
           hold [window_shed] above the low watermark and latch the
           shard degraded forever.  Only genuine pressure — capacity,
           rate and deadline rejections — keeps the mode on.  Back off
           until the current window can roll over and the shard gets a
           chance to recover. *)
        let retry_after =
          Int.max 1 (s.window_start + t.config.degrade_window - t.clock)
        in
        reject s ~reason:Degraded_shed ~retry_after
      end
      else
        let bucket_verdict =
          if t.config.rate = 0 then None
          else
            let b = bucket_for t client in
            if b.tokens > 0 then begin
              b.tokens <- b.tokens - 1;
              None
            end
            else Some (Int.max 1 (b.last + t.config.refill_every - t.clock))
        in
        match bucket_verdict with
        | Some retry_after ->
            s.window_shed <- s.window_shed + 1;
            reject s ~reason:Rate_limited ~retry_after
        | None ->
            let over_cap =
              t.config.max_inflight > 0
              && s.inflight >= t.config.max_inflight
              && (match priority with
                 | Critical -> false
                 | Normal | Low -> true)
            in
            if over_cap then begin
              s.window_shed <- s.window_shed + 1;
              reject s ~reason:Over_capacity ~retry_after:1
            end
            else begin
              s.inflight <- s.inflight + 1;
              Telemetry.add s.admitted 1;
              (match enqueued_at with
              | Some at ->
                  let delay = Int.max 0 (t.clock - at) in
                  Telemetry.observe_into ?ctx s.queue_delay
                    (float_of_int delay)
              | None -> ());
              Admit
            end)

let check_service t =
  let s = t.shard_state.(0) in
  if any_degraded t then begin
    (* Not counted toward the window for the same reason degraded
       sheds are not: periodic probes must not keep the mode latched. *)
    let retry_after =
      if t.config.degrade_window > 0 then
        Int.max 1 (s.window_start + t.config.degrade_window - t.clock)
      else 1
    in
    reject s ~reason:Degraded_shed ~retry_after
  end
  else begin
    Telemetry.add s.admitted 1;
    Admit
  end

let complete t ~shard =
  let s = t.shard_state.(shard) in
  if s.inflight > 0 then s.inflight <- s.inflight - 1

(* ------------------------------------------------------------------ *)
(* Reply-text grammar                                                  *)

let reason_text = function
  | Deadline_expired -> "deadline-expired"
  | Rate_limited -> "rate-limited"
  | Over_capacity -> "overloaded"
  | Degraded_shed -> "shed"
  | Cancelled -> "cancelled"

let reject_text ~reason ~retry_after ~degraded =
  Printf.sprintf "%s: retry-after=%d%s" (reason_text reason) retry_after
    (if degraded then " degraded" else "")

let verdict_text = function
  | Admit -> None
  | Reject { reason; retry_after; degraded } ->
      Some (reject_text ~reason ~retry_after ~degraded)

let marker = "retry-after="

(* Find the [retry-after=N] token; total on arbitrary input.  A
   rejection rendered by [reject_text] always round-trips; anything
   else without the marker word-boundary parses to [None]. *)
let retry_after_of_text text =
  let words =
    String.split_on_char ' ' text
    |> List.concat_map (String.split_on_char '\n')
  in
  List.find_map
    (fun w ->
      if String.starts_with ~prefix:marker w then
        let n =
          String.sub w (String.length marker)
            (String.length w - String.length marker)
        in
        match int_of_string_opt n with
        | Some v when v >= 0 -> Some v
        | Some _ | None -> None
      else None)
    words

let is_rejection_text text =
  match retry_after_of_text text with Some _ -> true | None -> false

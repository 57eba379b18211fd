(* Unit tests for the admission layer: token-bucket arithmetic,
   inflight budgets, deadlines, hysteretic degraded mode, priority
   exemptions, and the rejection reply-text grammar. *)

module Admission = Harmony_service.Admission
module Telemetry = Harmony_telemetry.Telemetry

let base = Admission.unlimited

(* Admission state whose shards report on live handles, with a reader
   of the degraded-mode gauge each shard publishes. *)
let create_observed ~shards config =
  let tels =
    Array.init shards (fun _ -> Telemetry.create ~record_events:false ())
  in
  let t = Admission.create ~telemetry:(fun i -> tels.(i)) ~shards config in
  let degraded shard =
    Option.equal Float.equal (Some 1.0)
      (List.assoc_opt "service.admission.degraded"
         (Telemetry.gauges tels.(shard)))
  in
  (t, degraded)

let is_admit = function Admission.Admit -> true | Admission.Reject _ -> false

let reason = function
  | Admission.Admit -> None
  | Admission.Reject { reason; _ } -> Some reason

let retry_after = function
  | Admission.Admit -> None
  | Admission.Reject { retry_after; _ } -> Some retry_after

let check ?enqueued_at ?deadline ?(shard = 0) ?(client = "c1")
    ?(priority = Admission.Normal) t =
  Admission.check t ~shard ~client ~priority ?enqueued_at ?deadline ()

let test_unlimited_admits () =
  let t, degraded = create_observed ~shards:2 base in
  Admission.tick t;
  for _ = 1 to 100 do
    Alcotest.(check bool) "unlimited admits" true (is_admit (check t))
  done;
  Alcotest.(check bool) "never degraded" false (degraded 0 || degraded 1);
  Alcotest.(check int) "clock ticked once" 1 (Admission.now t)

let test_token_bucket () =
  let t =
    Admission.create ~shards:1
      { base with rate = 1; burst = 2; refill_every = 2 }
  in
  Admission.tick t;
  (* Fresh bucket starts full at [burst]. *)
  Alcotest.(check bool) "burst 1" true (is_admit (check t));
  Alcotest.(check bool) "burst 2" true (is_admit (check t));
  let v = check t in
  Alcotest.(check bool) "third rejected" false (is_admit v);
  Alcotest.(check (option int))
    "reason is rate-limited"
    (Some 1)
    (match reason v with Some Admission.Rate_limited -> Some 1 | _ -> None);
  (* Bucket was brought current at tick 1; next refill lands at tick 3,
     two ticks away. *)
  Alcotest.(check (option int)) "retry-after to next refill" (Some 2)
    (retry_after v);
  (* Another client's bucket is independent. *)
  Alcotest.(check bool) "other client unaffected" true
    (is_admit (check ~client:"c2" t));
  (* Advance to the refill boundary: exactly [rate] new tokens. *)
  Admission.tick t;
  Admission.tick t;
  Alcotest.(check bool) "refilled token" true (is_admit (check t));
  Alcotest.(check bool) "only rate tokens per period" false
    (is_admit (check t));
  (* A long idle caps at [burst], not rate * periods. *)
  for _ = 1 to 20 do Admission.tick t done;
  Alcotest.(check bool) "capped 1" true (is_admit (check t));
  Alcotest.(check bool) "capped 2" true (is_admit (check t));
  Alcotest.(check bool) "capped at burst" false (is_admit (check t))

let test_inflight_budget () =
  let t = Admission.create ~shards:2 { base with max_inflight = 2 } in
  Admission.tick t;
  Alcotest.(check bool) "slot 1" true (is_admit (check t));
  Alcotest.(check bool) "slot 2" true (is_admit (check ~client:"c2" t));
  let v = check ~client:"c3" t in
  Alcotest.(check bool) "over budget rejected" false (is_admit v);
  Alcotest.(check bool) "reason over-capacity" true
    (match reason v with Some Admission.Over_capacity -> true | _ -> false);
  Alcotest.(check (option int)) "retry next tick" (Some 1) (retry_after v);
  (* Other shards have their own budget. *)
  Alcotest.(check bool) "other shard free" true (is_admit (check ~shard:1 t));
  (* Critical messages are exempt from the cap. *)
  Alcotest.(check bool) "critical exempt" true
    (is_admit (check ~client:"c4" ~priority:Admission.Critical t));
  (* Completion releases slots for the next round. *)
  Admission.complete t ~shard:0;
  Admission.complete t ~shard:0;
  Admission.tick t;
  Alcotest.(check bool) "released slot admits" true
    (is_admit (check ~client:"c5" t))

let test_deadline () =
  let t = Admission.create ~shards:1 base in
  Admission.tick t;
  Admission.tick t;
  (* now = 2 *)
  Alcotest.(check bool) "future deadline admits" true
    (is_admit (check ~deadline:3 t));
  Alcotest.(check bool) "deadline at now admits" true
    (is_admit (check ~deadline:2 t));
  let v = check ~deadline:1 t in
  Alcotest.(check bool) "past deadline rejected" false (is_admit v);
  Alcotest.(check bool) "reason deadline-expired" true
    (match reason v with Some Admission.Deadline_expired -> true | _ -> false);
  Alcotest.(check (option int)) "expired work retries with fresh work"
    (Some 0) (retry_after v);
  (* Expiry outranks even Critical priority: the work is dead. *)
  Alcotest.(check bool) "critical expires too" false
    (is_admit (check ~deadline:0 ~priority:Admission.Critical t))

let degrade_config =
  { base with degrade_window = 4; degrade_high = 3; degrade_low = 0;
    max_inflight = 1 }

(* Trip the high watermark: in one window, shed >= degrade_high times
   (by exhausting the single inflight slot). *)
let trip t =
  Admission.tick t;
  Alcotest.(check bool) "fills the slot" true (is_admit (check t));
  for i = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "over-capacity shed %d" i)
      false
      (is_admit (check ~client:(Printf.sprintf "x%d" i) t))
  done;
  Admission.complete t ~shard:0

let test_degraded_hysteresis () =
  let t, degraded = create_observed ~shards:1 degrade_config in
  trip t;
  Alcotest.(check bool) "not degraded until rollover" false
    (degraded 0);
  (* Roll the window: ticks 2..4 close the [0,4) window. *)
  for _ = 1 to 3 do Admission.tick t done;
  Alcotest.(check bool) "degraded after rollover" true
    (degraded 0);
  Alcotest.(check bool) "any_degraded sees it" false
    (is_admit (Admission.check_service t));
  (* While degraded, Low priority is shed outright with the degraded
     flag in the verdict; Normal and Critical still pass. *)
  let v = check ~priority:Admission.Low t in
  Alcotest.(check bool) "low shed when degraded" false (is_admit v);
  (match v with
  | Admission.Reject { reason = Admission.Degraded_shed; degraded; _ } ->
      Alcotest.(check bool) "verdict carries degraded flag" true degraded
  | _ -> Alcotest.fail "expected a degraded shed");
  Alcotest.(check bool) "normal passes degraded shard" true
    (is_admit (check ~client:"n1" t));
  Admission.complete t ~shard:0;
  Alcotest.(check bool) "critical passes degraded shard" true
    (is_admit (check ~client:"n2" ~priority:Admission.Critical t));
  (* Only genuine pressure holds the mode: an over-capacity rejection
     in the next window (the critical admit above still holds the one
     slot) stays above degrade_low = 0, so that rollover keeps
     degraded.  The degraded sheds themselves never count — otherwise
     the shed clients' retries would latch the mode forever. *)
  Alcotest.(check bool) "pressure while degraded still rejects" false
    (is_admit (check ~client:"p1" t));
  for _ = 1 to 4 do Admission.tick t done;
  Alcotest.(check bool) "fresh pressure keeps state" true
    (degraded 0);
  Admission.complete t ~shard:0;
  (* A window with nothing but degraded sheds counts as quiet: the
     rollover clears the mode. *)
  Alcotest.(check bool) "low still shed while recovering" false
    (is_admit (check ~client:"p2" ~priority:Admission.Low t));
  for _ = 1 to 4 do Admission.tick t done;
  Alcotest.(check bool) "quiet window recovers" false
    (degraded 0)

let test_service_probe_sheds_when_degraded () =
  let t = Admission.create ~shards:1 degrade_config in
  Alcotest.(check bool) "probe admits when healthy" true
    (is_admit (Admission.check_service t));
  trip t;
  for _ = 1 to 3 do Admission.tick t done;
  let v = Admission.check_service t in
  Alcotest.(check bool) "probe shed when degraded" false (is_admit v)

let test_reject_text_grammar () =
  let text =
    Admission.reject_text ~reason:Admission.Degraded_shed ~retry_after:3
      ~degraded:true
  in
  Alcotest.(check string) "rendering" "shed: retry-after=3 degraded" text;
  Alcotest.(check (option int)) "parses back" (Some 3)
    (Admission.retry_after_of_text text);
  Alcotest.(check bool) "recognized" true (Admission.is_rejection_text text);
  Alcotest.(check string) "overload rendering" "overloaded: retry-after=1"
    (Admission.reject_text ~reason:Admission.Over_capacity ~retry_after:1
       ~degraded:false);
  (* Embedded in a full client-addressed reply line. *)
  Alcotest.(check (option int)) "parses inside a reply line" (Some 7)
    (Admission.retry_after_of_text "c9 error rate-limited: retry-after=7");
  (* Total on arbitrary text; ordinary replies are not rejections. *)
  Alcotest.(check (option int)) "plain reply is not a rejection" None
    (Admission.retry_after_of_text "c9 assign B=3 C=4");
  Alcotest.(check (option int)) "negative is malformed" None
    (Admission.retry_after_of_text "retry-after=-2");
  Alcotest.(check (option int)) "garbage is malformed" None
    (Admission.retry_after_of_text "retry-after=zz");
  Alcotest.(check bool) "empty not a rejection" false
    (Admission.is_rejection_text "")

let test_verdict_text () =
  Alcotest.(check (option string)) "admit has no text" None
    (Admission.verdict_text Admission.Admit);
  Alcotest.(check (option string)) "reject renders"
    (Some "deadline-expired: retry-after=0")
    (Admission.verdict_text
       (Admission.Reject
          { reason = Admission.Deadline_expired; retry_after = 0;
            degraded = false }))

let test_telemetry_counters () =
  let tel = Telemetry.create ~record_events:false () in
  let t =
    Admission.create
      ~telemetry:(fun _ -> tel)
      ~shards:1
      { base with max_inflight = 1 }
  in
  Admission.tick t;
  ignore (check ~enqueued_at:0 t);
  ignore (check ~client:"c2" t);
  ignore (check ~client:"c3" ~deadline:0 t);
  Alcotest.(check int) "admitted" 1
    (Telemetry.counter_value tel Admission.c_admitted);
  Alcotest.(check int) "rejected aggregate" 2
    (Telemetry.counter_value tel Admission.c_rejected);
  Alcotest.(check int) "over-capacity split" 1
    (Telemetry.counter_value tel Admission.c_over_capacity);
  Alcotest.(check int) "deadline split" 1
    (Telemetry.counter_value tel Admission.c_deadline_expired);
  (* The admitted message's queue delay (1 - 0) landed in the
     histogram. *)
  let h = List.assoc Admission.h_queue_delay (Telemetry.histograms tel) in
  Alcotest.(check (float 1e-9)) "one delay observed" 1. h.Telemetry.sum

let test_config_validation () =
  let invalid config =
    match Admission.create ~shards:1 config with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "negative inflight" true
    (invalid { base with max_inflight = -1 });
  Alcotest.(check bool) "rate without burst" true
    (invalid { base with rate = 1 });
  Alcotest.(check bool) "rate without refill" true
    (invalid { base with rate = 1; burst = 1; refill_every = 0 });
  Alcotest.(check bool) "low above high" true
    (invalid { base with degrade_window = 4; degrade_high = 2;
               degrade_low = 3 });
  Alcotest.(check bool) "zero shards" true
    (match Admission.create ~shards:0 base with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "defaults are valid" true
    (match Admission.create ~shards:4 Admission.default_config with
    | _ -> true)

let suite =
  [
    Alcotest.test_case "unlimited admits everything" `Quick
      test_unlimited_admits;
    Alcotest.test_case "token bucket refill math" `Quick test_token_bucket;
    Alcotest.test_case "inflight budget and release" `Quick
      test_inflight_budget;
    Alcotest.test_case "logical deadlines" `Quick test_deadline;
    Alcotest.test_case "degraded hysteresis" `Quick test_degraded_hysteresis;
    Alcotest.test_case "service probe sheds when degraded" `Quick
      test_service_probe_sheds_when_degraded;
    Alcotest.test_case "reject text grammar" `Quick test_reject_text_grammar;
    Alcotest.test_case "verdict text" `Quick test_verdict_text;
    Alcotest.test_case "telemetry counters" `Quick test_telemetry_counters;
    Alcotest.test_case "config validation" `Quick test_config_validation;
  ]

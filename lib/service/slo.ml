(* SLO budgets and a multi-window burn-rate monitor.

   The budgets half parses bench/service_slo.json — the single source
   of truth for the service's latency objectives — so the loadgen
   harness (test/loadgen.ml, whose CI gates hold the service to them)
   and the monitor it attaches read the same numbers.  No program
   reads the file: serve runs without a monitor.

   The monitor half is the classic multi-window burn-rate alert,
   transplanted onto the logical clock: each feed is one admission
   tick's cumulative (total, violating) observation counts; the burn
   rate over a window is the violating fraction divided by the error
   budget (1 - quantile, e.g. 1% for a p99 objective).  A fast window
   catches acute breaches, a slow window confirms they are not a
   blip, and the ok→warn→page state machine is hysteretic so the
   state cannot flap at a threshold boundary.  Everything is
   deterministic: same feed sequence, same states. *)

module Telemetry = Harmony_telemetry.Telemetry
module Tjson = Harmony_telemetry.Tjson

type state = Healthy | Warn | Page

let state_to_string = function
  | Healthy -> "ok"
  | Warn -> "warn"
  | Page -> "page"

let state_rank = function Healthy -> 0 | Warn -> 1 | Page -> 2
let worst a b = if state_rank a >= state_rank b then a else b

type burn_config = {
  fast_window : int;  (* feeds (admission ticks) *)
  slow_window : int;
  budget : float;  (* tolerated violating fraction, e.g. 0.01 for p99 *)
  warn_burn : float;  (* burn rate that arms Warn *)
  page_burn : float;  (* burn rate that (with slow confirmation) pages *)
}

let default_burn =
  {
    fast_window = 8;
    slow_window = 64;
    budget = 0.01;
    warn_burn = 2.0;
    page_burn = 8.0;
  }

let validate_burn c =
  if c.fast_window < 1 then Error "fast_window < 1"
  else if c.slow_window < c.fast_window then Error "slow_window < fast_window"
  else if not (c.budget > 0.0 && c.budget <= 1.0) then
    Error "budget outside (0, 1]"
  else if not (c.warn_burn > 0.0) then Error "warn_burn <= 0"
  else if not (c.page_burn >= c.warn_burn) then Error "page_burn < warn_burn"
  else Ok c

(* ------------------------------------------------------------------ *)
(* Budgets (bench/service_slo.json)                                    *)

type budgets = {
  handle_hist : string;
  handle_q : float;
  handle_max : float;
  delay_hist : string;
  delay_max : float;
  excess_rejection_max : float;
  burn : burn_config;
}

let budgets_of_json text =
  match Tjson.parse text with
  | Error e -> Error e
  | Ok json -> (
      let field name conv = Option.bind (Tjson.member name json) conv in
      let burn =
        match Tjson.member "burn" json with
        | None -> Ok default_burn
        | Some b ->
            let sub name conv = Option.bind (Tjson.member name b) conv in
            let int_of name fallback =
              match sub name Tjson.to_float with
              | Some v -> int_of_float v
              | None -> fallback
            in
            let float_of name fallback =
              Option.value ~default:fallback (sub name Tjson.to_float)
            in
            validate_burn
              {
                fast_window = int_of "fast_window" default_burn.fast_window;
                slow_window = int_of "slow_window" default_burn.slow_window;
                budget = float_of "budget" default_burn.budget;
                warn_burn = float_of "warn_burn" default_burn.warn_burn;
                page_burn = float_of "page_burn" default_burn.page_burn;
              }
      in
      let req name conv =
        match field name conv with
        | Some v -> Ok v
        | None -> Error ("missing field " ^ name)
      in
      let ( let* ) = Result.bind in
      let* burn = Result.map_error (fun e -> "burn: " ^ e) burn in
      let* h = req "histogram" Tjson.to_str in
      let* q = req "quantile" Tjson.to_float in
      let* m = req "max_ticks" Tjson.to_float in
      let* dh = req "queue_delay_histogram" Tjson.to_str in
      let* dm = req "max_p99_queue_delay_ticks" Tjson.to_float in
      let* rm = req "max_excess_rejection_rate" Tjson.to_float in
      Ok
        {
          handle_hist = h;
          handle_q = q;
          handle_max = m;
          delay_hist = dh;
          delay_max = dm;
          excess_rejection_max = rm;
          burn;
        })

(* What the in-service monitor watches: two histograms, each with the
   tick threshold above which an observation violates its objective.
   The delay threshold is the {e unscaled} queue-delay budget — the
   monitor reports pressure relative to the steady-state objective;
   the loadgen's pass/fail scaling by the offered overload factor is
   the harness's business, not the monitor's. *)
type spec = {
  handle_histogram : string;
  handle_threshold : float;
  delay_histogram : string;
  delay_threshold : float;
  burn : burn_config;
}

let spec_of_budgets b =
  {
    handle_histogram = b.handle_hist;
    handle_threshold = b.handle_max;
    delay_histogram = b.delay_hist;
    delay_threshold = b.delay_max;
    burn = b.burn;
  }

(* ------------------------------------------------------------------ *)
(* Burn-rate monitor                                                   *)

type t = {
  cfg : burn_config;
  d_total : int array;  (* per-feed deltas, ring of slow_window *)
  d_viol : int array;
  mutable next : int;  (* feeds ever seen; ring slot = next mod slow *)
  mutable last_total : int;
  mutable last_viol : int;
  mutable state_ : state;
  mutable pages_ : int;
  mutable transitions_ : int;
}

let create cfg =
  match validate_burn cfg with
  | Error e -> invalid_arg ("Slo.create: " ^ e)
  | Ok cfg ->
      {
        cfg;
        d_total = Array.make cfg.slow_window 0;
        d_viol = Array.make cfg.slow_window 0;
        next = 0;
        last_total = 0;
        last_viol = 0;
        state_ = Healthy;
        pages_ = 0;
        transitions_ = 0;
      }

let window_burn t window =
  let n = Int.min t.next window in
  let total = ref 0 and viol = ref 0 in
  for j = 1 to n do
    let i = (t.next - j) mod t.cfg.slow_window in
    total := !total + t.d_total.(i);
    viol := !viol + t.d_viol.(i)
  done;
  if !total = 0 then 0.0
  else float_of_int !viol /. float_of_int !total /. t.cfg.budget

let burn_rates t =
  (window_burn t t.cfg.fast_window, window_burn t t.cfg.slow_window)

(* Hysteresis: escalation needs the fast window above a threshold
   (pages also need slow-window confirmation, so one hot tick cannot
   page); de-escalation needs the fast window to drop below {e half}
   the threshold that armed the state, so the state cannot flap when
   the burn hovers at the boundary. *)
let step_state cfg ~fast ~slow = function
  | Healthy ->
      if fast >= cfg.page_burn && slow >= cfg.warn_burn then Page
      else if fast >= cfg.warn_burn then Warn
      else Healthy
  | Warn ->
      if fast >= cfg.page_burn && slow >= cfg.warn_burn then Page
      else if fast < cfg.warn_burn /. 2.0 && slow < cfg.warn_burn then Healthy
      else Warn
  | Page -> if fast < cfg.page_burn /. 2.0 then Warn else Page

let feed t ~total ~violations =
  let dt = Int.max 0 (total - t.last_total) in
  let dv = Int.max 0 (violations - t.last_viol) in
  t.last_total <- total;
  t.last_viol <- violations;
  let i = t.next mod t.cfg.slow_window in
  t.d_total.(i) <- dt;
  t.d_viol.(i) <- dv;
  t.next <- t.next + 1;
  let fast, slow = burn_rates t in
  let before = t.state_ in
  let after = step_state t.cfg ~fast ~slow before in
  t.state_ <- after;
  if state_rank after <> state_rank before then begin
    t.transitions_ <- t.transitions_ + 1;
    match after with
    | Page -> t.pages_ <- t.pages_ + 1
    | Healthy | Warn -> ()
  end;
  (before, after)

let state t = t.state_
let pages t = t.pages_

(* Violating observations in a histogram snapshot: the occupancy of
   every bucket whose upper bound exceeds the threshold.  Conservative
   when the threshold falls inside a bucket (the whole bucket counts),
   exact when it is a bucket bound — which the service's pinned bounds
   guarantee for the handle budget. *)
let violations_in (snap : Telemetry.histogram_snapshot) ~threshold =
  List.fold_left
    (fun acc (bound, occupancy) ->
      if bound > threshold then acc + occupancy else acc)
    0 snap.Telemetry.buckets

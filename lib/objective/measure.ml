module Stats = Harmony_numerics.Stats

module Clock = struct
  (* The current time lives in a one-cell floatarray under a lock so
     batched measurements running on several domains can back off
     concurrently: the total advance is a sum, hence independent of
     the interleaving. *)
  type t = { cell : floatarray; lock : Mutex.t }

  let create ?(now = 0.0) () =
    { cell = Float.Array.make 1 now; lock = Mutex.create () }

  let now t =
    Mutex.lock t.lock;
    let v = Float.Array.get t.cell 0 in
    Mutex.unlock t.lock;
    v

  let sleep t d =
    if d > 0.0 then
      Mutex.protect t.lock (fun () ->
          Float.Array.set t.cell 0 (Float.Array.get t.cell 0 +. d))
end

type policy = {
  max_attempts : int;
  backoff_ms : float;
  backoff_factor : float;
  backoff_cap_ms : float;
  samples : int;
  mad_threshold : float;
}

let default_policy =
  {
    max_attempts = 4;
    backoff_ms = 10.0;
    backoff_factor = 2.0;
    backoff_cap_ms = 80.0;
    samples = 3;
    mad_threshold = 6.0;
  }

let validate_policy p =
  if p.max_attempts < 1 then invalid_arg "Measure: max_attempts < 1";
  if p.samples < 1 then invalid_arg "Measure: samples < 1";
  if p.backoff_ms < 0.0 then invalid_arg "Measure: negative backoff_ms";
  if p.backoff_factor < 1.0 then invalid_arg "Measure: backoff_factor < 1";
  if p.backoff_cap_ms < 0.0 then invalid_arg "Measure: negative backoff_cap_ms";
  if p.mad_threshold <= 0.0 then invalid_arg "Measure: mad_threshold <= 0"

type failure = {
  attempts : int;
  faults : int;
  last_fault : Objective.fault;
}

let pp_failure ppf f =
  Format.fprintf ppf "gave up after %d attempts (%d faults, last: %s)"
    f.attempts f.faults
    (Objective.fault_to_string f.last_fault)

type summary = {
  measurements : int;
  attempts : int;
  retries : int;
  faults : int;
  give_ups : int;
  backoff_ms : float;
}

let no_summary =
  {
    measurements = 0;
    attempts = 0;
    retries = 0;
    faults = 0;
    give_ups = 0;
    backoff_ms = 0.0;
  }

let penalty_for = function
  | Objective.Higher_is_better -> -1e9
  | Objective.Lower_is_better -> 1e9

(* MAD-based rejection over the first [n] (> 0) readings of [buf],
   oldest first: a reading farther from the median than [threshold] *
   MAD is an outlier.  When the MAD collapses to zero (a majority of
   identical readings) any deviating reading is rejected; the epsilon
   keeps honest float jitter alive.  Fewer than three readings are all
   kept.  Returns the median of the kept readings (of all readings,
   when none is kept) and how many were rejected.

   Every median reads the readings newest first, sorts them with
   [Array.sort Float.compare] and takes [Stats.percentile_sorted]: the
   order, sort and arithmetic of [Stats.median] and [Stats.mad] over
   the newest-first readings, so +0.0 against -0.0 and duplicate
   readings keep their bits.  One array serves the readings' sort and
   then the deviations'; when every reading is kept, the kept median is
   the median already taken. *)
let vet ~threshold buf n =
  let a = Array.make n 0.0 in
  for i = 0 to n - 1 do
    a.(i) <- buf.(n - 1 - i)
  done;
  Array.sort Float.compare a;
  let med = Stats.percentile_sorted a 50.0 in
  if n < 3 then (med, 0)
  else begin
    for i = 0 to n - 1 do
      a.(i) <- Float.abs (buf.(n - 1 - i) -. med)
    done;
    Array.sort Float.compare a;
    let mad = Stats.percentile_sorted a 50.0 in
    let limit = threshold *. Float.max mad (1e-9 *. Float.max 1.0 (Float.abs med)) in
    let kept = ref 0 in
    for i = 0 to n - 1 do
      if Float.abs (buf.(i) -. med) <= limit then incr kept
    done;
    let kept = !kept in
    if kept = n then (med, 0)
    else begin
      let v = Array.make (Int.max kept 1) med in
      if kept > 0 then begin
        let j = ref 0 in
        for i = n - 1 downto 0 do
          if Float.abs (buf.(i) -. med) <= limit then begin
            v.(!j) <- buf.(i);
            incr j
          end
        done;
        Array.sort Float.compare v
      end;
      (Stats.percentile_sorted v 50.0, n - kept)
    end
  end

(* One logical measurement.  Returns the vetted result plus the
   (attempts, retries, faults) it cost, so callers can merge the
   counts into shared counters under their own lock. *)
let measure_one ~policy ~clock (obj : Objective.t) c =
  (* A deterministic objective needs one good reading; a noisy one
     (measurement noise, fault injection) gets the median-of-k
     treatment so a corrupted reading cannot pass as the truth. *)
  let wanted = if Objective.noisy obj then policy.samples else 1 in
  (* The readings in arrival order: at most two rounds of [wanted]. *)
  let readings = Array.make (2 * wanted) 0.0 in
  let count = ref 0 in
  let attempts = ref 0 in
  let retries = ref 0 in
  let faults = ref 0 in
  let last_fault = ref Objective.Transient in
  let delay = ref policy.backoff_ms in
  (* This measurement's own backoff total, tracked locally: the shared
     clock advances under every domain at once, so a before/after
     difference would depend on the interleaving — this sum does
     not. *)
  let slept = ref 0.0 in
  let backoff () =
    slept := !slept +. !delay;
    Clock.sleep clock !delay;
    delay := Float.min policy.backoff_cap_ms (!delay *. policy.backoff_factor)
  in
  let aborted = ref false in
  (* Each of the [wanted] readings has its own retry budget; backoff
     grows across the whole logical measurement and is capped. *)
  let rec take_reading budget ~retrying =
    if budget <= 0 || !aborted then ()
    else begin
      incr attempts;
      if retrying then incr retries;
      match obj.Objective.eval c with
      | v when Float.is_finite v ->
          readings.(!count) <- v;
          incr count
      | _ ->
          (* The timeout sentinel (or any non-finite reading). *)
          incr faults;
          last_fault := Objective.Timeout;
          if budget > 1 then backoff ();
          take_reading (budget - 1) ~retrying:true
      | exception Objective.Measurement_failed Objective.Persistent ->
          (* Retrying a persistently broken configuration is wasted
             budget: abort the whole measurement. *)
          incr faults;
          last_fault := Objective.Persistent;
          aborted := true
      | exception Objective.Measurement_failed kind ->
          incr faults;
          last_fault := kind;
          if budget > 1 then backoff ();
          take_reading (budget - 1) ~retrying:true
    end
  in
  let take_round () =
    for _ = 1 to wanted do
      if not !aborted then take_reading policy.max_attempts ~retrying:false
    done
  in
  take_round ();
  let result =
    if !count = 0 then
      Error { attempts = !attempts; faults = !faults; last_fault = !last_fault }
    else begin
      let threshold = policy.mad_threshold in
      (* A median can be fooled when corrupted readings outnumber
         honest ones within one round ([v; 8v; 8v]).  Any rejection
         marks the whole measurement suspect: take one confirmation
         round and re-vet over everything, so the corrupted minority
         of the larger sample is voted out.  Rejections are charged
         once, from the last vetting. *)
      let median, rejected =
        match vet ~threshold readings !count with
        | _, rejected when rejected > 0 && wanted > 1 && not !aborted ->
            take_round ();
            vet ~threshold readings !count
        | vetted -> vetted
      in
      if rejected > 0 then begin
        faults := !faults + rejected;
        last_fault := Objective.Outlier
      end;
      Ok median
    end
  in
  (result, !attempts, !retries, !faults, !slept)

let measure ?(policy = default_policy) ?(clock = Clock.create ()) obj c =
  validate_policy policy;
  let result, _, _, _, _ = measure_one ~policy ~clock obj c in
  result

module Telemetry = Harmony_telemetry.Telemetry

(* Counter names under which [robust] records on the telemetry
   registry — the single counting path (DESIGN.md §11); [summary] and
   the merged [Objective.stats] are thin views over these. *)
let c_measurements = "measure.measurements"
let c_attempts = "measure.attempts"
let c_retries = "measure.retries"
let c_faults = "measure.faults"
let c_give_ups = "measure.give_ups"
let g_backoff = "measure.backoff_ms"

(* Per-measurement backoff totals, for the trace analyzer's backoff
   phase: how much of a run's latency was spent waiting out faults.
   Bucket increments commute, so the merged histogram is deterministic
   at any pool size even though measurements land from every domain. *)
let h_backoff = "measure.backoff_wait"
let backoff_bounds = [| 0.; 10.; 20.; 40.; 80.; 160.; 320.; 640. |]

type handle = {
  registry : Telemetry.t;
  handle_lock : Mutex.t;
  clock : Clock.t;
  clock_start : float;
}

let summary h =
  Mutex.protect h.handle_lock (fun () ->
      {
        measurements = Telemetry.counter_value h.registry c_measurements;
        attempts = Telemetry.counter_value h.registry c_attempts;
        retries = Telemetry.counter_value h.registry c_retries;
        faults = Telemetry.counter_value h.registry c_faults;
        give_ups = Telemetry.counter_value h.registry c_give_ups;
        backoff_ms = Clock.now h.clock -. h.clock_start;
      })

let pp_summary ppf s =
  Format.fprintf ppf
    "%d measurements, %d attempts (%d retries, %d faults, %d give-ups), %.0f ms backoff"
    s.measurements s.attempts s.retries s.faults s.give_ups s.backoff_ms

let robust ?(telemetry = Telemetry.off) ?(policy = default_policy)
    ?(clock = Clock.create ()) ?penalty (obj : Objective.t) =
  validate_policy policy;
  let penalty =
    Option.value penalty ~default:(penalty_for obj.Objective.direction)
  in
  (* All counts live on a telemetry registry — the caller's handle
     when one was supplied (so a traced run sees measurement
     activity), a private one otherwise.  The handle lock still
     groups the per-measurement increments so a [summary] snapshot is
     internally consistent.  Lock order: handle lock, then the
     registry's (never reversed). *)
  let reg = if Telemetry.enabled telemetry then telemetry else Telemetry.create () in
  let lock = Mutex.create () in
  let handle =
    { registry = reg; handle_lock = lock; clock; clock_start = Clock.now clock }
  in
  let measurements = Telemetry.counter reg c_measurements in
  let attempts_c = Telemetry.counter reg c_attempts in
  let retries_c = Telemetry.counter reg c_retries in
  let faults_c = Telemetry.counter reg c_faults in
  let give_ups = Telemetry.counter reg c_give_ups in
  let backoff = Telemetry.histogram reg ~bounds:backoff_bounds h_backoff in
  let backoff_total = Telemetry.gauge_handle reg g_backoff in
  let set_backoff_total () =
    Telemetry.set backoff_total (Clock.now clock -. handle.clock_start)
  in
  (* One logical measurement and its counts.  [gauge] sets the backoff
     gauge, a clock read and a slot write: the direct path sets it
     every time, a batch only once after its join. *)
  let measure_counted ~gauge c =
    let result, attempts, retries, faults, slept =
      measure_one ~policy ~clock obj c
    in
    Mutex.protect lock (fun () ->
        Telemetry.add measurements 1;
        Telemetry.add attempts_c attempts;
        Telemetry.add retries_c retries;
        Telemetry.add faults_c faults;
        Telemetry.observe_into backoff slept;
        if gauge then set_backoff_total ();
        match result with
        | Ok _ -> ()
        | Error _ -> Telemetry.add give_ups 1);
    match result with Ok v -> v | Error _ -> penalty
  in
  let eval c = measure_counted ~gauge:true c in
  let eval_in_batch c = measure_counted ~gauge:false c in
  (* Batched measurements group by configuration (the per-config
     attempt sequence is the ordered resource); counter increments
     commute, and the backoff gauge is set once after the batch so its
     value is the deterministic total, not whichever task happened to
     write last, and no measurement pays for a value nobody reads. *)
  let batch disp configs =
    let results = Objective.batch_by_key obj eval_in_batch disp configs in
    Mutex.protect lock set_backoff_total;
    results
  in
  let get () =
    Mutex.protect lock (fun () ->
        let u =
          match obj.Objective.stats with
          | None -> Objective.empty_stats
          | Some get -> get ()
        in
        (* Misses are *physical* measurements: the memo layer below (if
           any) already reports them; otherwise every attempt this
           layer made reached the real system. *)
        let misses =
          match obj.Objective.stats with
          | None -> Telemetry.counter_value reg c_attempts
          | Some _ -> u.Objective.misses
        in
        let hits = u.Objective.hits in
        {
          Objective.hits;
          misses;
          evals = hits + misses;
          faults = Telemetry.counter_value reg c_faults + u.Objective.faults;
          retries = Telemetry.counter_value reg c_retries + u.Objective.retries;
        })
  in
  ({ obj with Objective.eval; batch = Some batch; stats = Some get }, handle)

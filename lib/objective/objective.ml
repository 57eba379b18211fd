open Harmony_param
module Rng = Harmony_numerics.Rng

type direction = Higher_is_better | Lower_is_better

type fault = Transient | Persistent | Timeout | Outlier

exception Measurement_failed of fault

(* The timeout sentinel: a measurement backend that gives up waiting
   returns [nan] instead of raising, and [Measure] treats any
   non-finite reading as a [Timeout] fault. *)
let timed_out = Float.nan

let fault_to_string = function
  | Transient -> "transient"
  | Persistent -> "persistent"
  | Timeout -> "timeout"
  | Outlier -> "outlier"

type stats = {
  hits : int;
  misses : int;
  evals : int;
  faults : int;
  retries : int;
}

let empty_stats = { hits = 0; misses = 0; evals = 0; faults = 0; retries = 0 }

type dispatcher = { run : 'a. ('a -> float) -> 'a array -> float array }

type randomness = Deterministic | Keyed | Stream

type t = {
  space : Space.t;
  direction : direction;
  eval : Space.config -> float;
  batch : (dispatcher -> Space.config array -> float array) option;
  randomness : randomness;
  stats : (unit -> stats) option;
}

let create ~space ~direction eval =
  { space; direction; eval; batch = None; randomness = Deterministic; stats = None }

let sequential_dispatcher = { run = (fun f xs -> Array.map f xs) }

let pool_dispatcher pool =
  { run = (fun f xs -> Harmony_parallel.Pool.map_array pool f xs) }

(* The batch engine's fallback: a combinator stack without its own
   batch strategy fans a deterministic objective straight out to the
   dispatcher; any other stays on a sequential input-order fold, so
   batching never reorders draws. *)
let run_batch t disp configs =
  match (t.batch, t.randomness) with
  | Some b, _ -> b disp configs
  | None, Deterministic -> disp.run t.eval configs
  | None, (Keyed | Stream) -> Array.map t.eval configs

let eval_batch ?pool t configs =
  if Array.length configs = 0 then [||]
  else
    let disp =
      match pool with
      | None -> sequential_dispatcher
      | Some pool -> pool_dispatcher pool
    in
    run_batch t disp configs

(* Occurrence indices grouped by configuration key, groups in
   first-occurrence order, indices within a group in input order. *)
let group_by_key configs =
  let n = Array.length configs in
  let groups : (string, int list) Hashtbl.t =
    Hashtbl.create (Int.max 16 (2 * n))
  in
  let rev_order = ref [] in
  for i = 0 to n - 1 do
    let k = Space.config_key configs.(i) in
    match Hashtbl.find_opt groups k with
    | Some tail -> Hashtbl.replace groups k (i :: tail)
    | None ->
        Hashtbl.add groups k [ i ];
        rev_order := k :: !rev_order
  done;
  Array.of_list
    (List.rev_map
       (fun k ->
         match Hashtbl.find_opt groups k with
         | Some tail -> List.rev tail
         | None -> [])
       !rev_order)

(* Batch strategy for layers whose randomness is keyed per
   configuration (fault injection, retry policies): distinct
   configurations are independent and fan out across domains, while
   repeated occurrences of one configuration stay on one task in input
   order, preserving that configuration's attempt sequence exactly.
   The dispatch rule: when the stack [below] draws from a shared
   stream, the groups run in order on the caller's domain instead —
   the same grouped order, so the draws land where a one-domain run
   puts them. *)
let batch_by_key below eval disp configs =
  let disp =
    match below.randomness with
    | Stream -> sequential_dispatcher
    | Deterministic | Keyed -> disp
  in
  (* One configuration is one group: dispatch it without the table. *)
  if Array.length configs = 1 then disp.run eval configs
  else begin
    let groups = group_by_key configs in
    let results = Array.make (Array.length configs) 0.0 in
    let eval_group idxs =
      List.iter (fun i -> results.(i) <- eval configs.(i)) idxs;
      0.0
    in
    ignore (disp.run eval_group groups : float array);
    results
  end

let better t (a : float) (b : float) =
  match t.direction with
  | Higher_is_better -> a > b
  | Lower_is_better -> a < b

let worst_of t values =
  if Array.length values = 0 then invalid_arg "Objective.worst_of: empty array";
  Array.fold_left
    (fun acc v -> if better t acc v then v else acc)
    values.(0) values

let noisy t =
  match t.randomness with Deterministic -> false | Keyed | Stream -> true

let stats t = match t.stats with None -> None | Some get -> Some (get ())

let with_noise rng ~level t =
  if level < 0.0 then invalid_arg "Objective.with_noise: negative level";
  (* One shared RNG stream: the draw order is the evaluation order, so
     batches of a noisy objective must stay sequential — [batch] is
     cleared and the [run_batch] fallback keeps the input-order fold.
     Every layer built on top inherits [Stream], which keeps its
     by-key batches on the caller's domain too. *)
  {
    t with
    eval = (fun c -> Rng.perturb rng level (t.eval c));
    batch = None;
    randomness = Stream;
  }

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

type fault_rates = {
  transient : float;
  persistent : float;
  timeout : float;
  outlier : float;
  outlier_magnitude : float;
}

let fault_profile rate =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Objective.fault_profile: rate outside [0, 1]";
  {
    transient = rate;
    persistent = rate /. 8.0;
    timeout = rate /. 4.0;
    outlier = rate /. 2.0;
    outlier_magnitude = 8.0;
  }

(* A configuration's fault state: whether it is persistently broken,
   and how many attempts it has had. *)
type fault_state = { broken : bool; mutable attempts : int }

let with_faults ?(rates = fault_profile 0.1) ~seed t =
  let check name r =
    if r < 0.0 || r > 1.0 then
      invalid_arg ("Objective.with_faults: " ^ name ^ " rate outside [0, 1]")
  in
  check "transient" rates.transient;
  check "persistent" rates.persistent;
  check "timeout" rates.timeout;
  check "outlier" rates.outlier;
  if rates.outlier_magnitude <= 0.0 then
    invalid_arg "Objective.with_faults: outlier_magnitude must be positive";
  (* Fault decisions are pure functions of (seed, configuration,
     per-configuration attempt index): re-running the same tuning
     session replays the same faults bit-for-bit, and independent
     pool arms with their own [with_faults] objectives stay
     byte-identical at any domain count.  (Evaluating one faulty
     objective for the *same* configuration from several domains at
     once interleaves the attempt counter — give each parallel arm
     its own objective, the discipline the parallel engine already
     uses.) *)
  let table : (string, fault_state) Hashtbl.t = Hashtbl.create 256 in
  let lock = Mutex.create () in
  let draw key attempt tag =
    Rng.seeded_float (Hashtbl.hash (seed, key, attempt, tag))
  in
  let eval c =
    let key = Space.config_key c in
    Mutex.lock lock;
    let state =
      match Hashtbl.find_opt table key with
      | Some state -> state
      | None ->
          (* The persistent decision depends on (seed, configuration)
             only: drawn once, on first sight, then kept. *)
          let state =
            {
              broken = draw key (-1) "persistent" < rates.persistent;
              attempts = 0;
            }
          in
          Hashtbl.add table key state;
          state
    in
    let attempt = state.attempts in
    state.attempts <- attempt + 1;
    Mutex.unlock lock;
    if state.broken then raise (Measurement_failed Persistent);
    if draw key attempt "transient" < rates.transient then
      raise (Measurement_failed Transient);
    if draw key attempt "timeout" < rates.timeout then timed_out
    else
      let v = t.eval c in
      if draw key attempt "outlier" < rates.outlier then
        if draw key attempt "outlier-direction" < 0.5 then
          v *. rates.outlier_magnitude
        else v /. rates.outlier_magnitude
      else v
  in
  (* A faulty objective is not a deterministic function of the
     configuration (transients clear on retry), so mark it noisy:
     [cached] then refuses to freeze a possibly-corrupt first draw
     unless told to, exactly as for measurement noise.  Fault draws
     are keyed per configuration, so a by-key batch reproduces the
     sequential draws exactly at any domain count — unless a shared
     stream below stays in charge. *)
  let randomness =
    match t.randomness with Stream -> Stream | Deterministic | Keyed -> Keyed
  in
  { t with eval; batch = Some (batch_by_key t eval); randomness }

(* Counter names under which [cached] records on the telemetry
   registry — the single counting path (DESIGN.md §11); [stats] is a
   thin view over these. *)
let memo_hits = "objective.memo.hits"
let memo_misses = "objective.memo.misses"

module Telemetry = Harmony_telemetry.Telemetry

let cached ?(telemetry = Telemetry.off) ?(freeze_noise = false) t =
  if noisy t && not freeze_noise then
    invalid_arg
      "Objective.cached: objective carries measurement noise; memoizing would \
       silently freeze the first draw of every configuration.  Either cache \
       the deterministic objective and apply with_noise on top, or pass \
       ~freeze_noise:true to freeze draws on purpose (cache-after-noise)";
  let table = Hashtbl.create 256 in
  (* All counts live on a telemetry registry — the caller's handle
     when one was supplied (so a traced run sees memo activity), a
     private one otherwise.  [stats] stays a thin view either way.
     Callers sharing one handle across several cached objectives get
     merged counts, by design. *)
  let reg = if Telemetry.enabled telemetry then telemetry else Telemetry.create () in
  (* One lock guards both the table and the counters, and stays held
     across the underlying measurement: two domains racing on the same
     un-measured configuration must not both measure it (under frozen
     noise they would record different draws and break determinism).
     The cost is that concurrent evaluations of a cached objective
     serialize — parallelize across objectives, not inside one.
     Lock order: this lock, then the registry's (never reversed). *)
  let lock = Mutex.create () in
  let eval c =
    Mutex.protect lock (fun () ->
        let k = Space.config_key c in
        match Hashtbl.find_opt table k with
        | Some v ->
            Telemetry.incr reg memo_hits;
            v
        | None ->
            Telemetry.incr reg memo_misses;
            let v = t.eval c in
            Hashtbl.add table k v;
            v)
  in
  (* One memo pass per batch: hits (and in-batch duplicates of a miss,
     which the sequential fold would answer from the just-filled
     entry) are resolved up front, and only the distinct misses reach
     the dispatcher.  Counter totals match the sequential fold
     exactly.  The lock is held across the whole batch, like a single
     measurement — parallelism happens below this layer, on the
     deduplicated misses. *)
  let batch disp configs =
    Mutex.protect lock (fun () ->
        let n = Array.length configs in
        let keys = Array.map Space.config_key configs in
        let results = Array.make n 0.0 in
        let filled = Array.make n false in
        let pending : (string, unit) Hashtbl.t =
          Hashtbl.create (Int.max 16 n)
        in
        let rev_miss = ref [] in
        let hits = ref 0 in
        for i = 0 to n - 1 do
          match Hashtbl.find_opt table keys.(i) with
          | Some v ->
              incr hits;
              results.(i) <- v;
              filled.(i) <- true
          | None ->
              if Hashtbl.mem pending keys.(i) then incr hits
              else begin
                Hashtbl.add pending keys.(i) ();
                rev_miss := i :: !rev_miss
              end
        done;
        let miss_idx = Array.of_list (List.rev !rev_miss) in
        let values =
          run_batch t disp (Array.map (fun i -> configs.(i)) miss_idx)
        in
        Array.iteri (fun j i -> Hashtbl.add table keys.(i) values.(j)) miss_idx;
        Telemetry.incr reg ~by:!hits memo_hits;
        Telemetry.incr reg ~by:(Array.length miss_idx) memo_misses;
        for i = 0 to n - 1 do
          if not filled.(i) then begin
            match Hashtbl.find_opt table keys.(i) with
            | Some v -> results.(i) <- v
            | None -> () (* unreachable: the key was hit or just measured *)
          end
        done;
        results)
  in
  let get () =
    Mutex.protect lock (fun () ->
        (* When a measurement layer below also keeps counters (the
           retrying [Measure.robust] does), its miss count is the
           number of *physical* measurements — a memo miss that took
           three attempts really cost three, so the merged record
           reports the physical count, not the logical one. *)
        let under =
          match t.stats with None -> empty_stats | Some get -> get ()
        in
        let misses =
          match t.stats with
          | None -> Telemetry.counter_value reg memo_misses
          | Some _ -> under.misses
        in
        let hits = Telemetry.counter_value reg memo_hits + under.hits in
        {
          hits;
          misses;
          evals = hits + misses;
          faults = under.faults;
          retries = under.retries;
        })
  in
  { t with eval; batch = Some batch; stats = Some get }

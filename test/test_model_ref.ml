(* The simulated system against plain references kept here, as the code
   stood before its hot paths were rewritten:

   - the AMVA solve with its loop state in floatarray cells and its
     [max_iterations]/[early_exit] knobs, and the M/M/c/K blocking
     chain likewise;
   - the four mix-weighted means as four separate folds, and
     [Model.evaluate] over them with Wsconfig's snapped-array
     [of_config] and per-evaluation station arrays;
   - a fault draw as [Rng.float (Rng.create seed) 1.0], [with_faults]
     drawing the persistent decision on every attempt, and the
     table-grouping [batch_by_key] for every batch size;
   - [Measure.measure]'s reading vetting over a list of readings with
     [Stats.median] and [Stats.mad].

   QCheck drives both sides with random inputs; every result must agree
   bit for bit. *)

open Harmony_webservice
open Harmony_objective
module Space = Harmony_param.Space
module Param = Harmony_param.Param
module Rng = Harmony_numerics.Rng
module Stats = Harmony_numerics.Stats

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ------------------------------------------------------------------ *)
(* Reference model                                                     *)

let amva_solve ?(max_iterations = 200) ?(early_exit = true) ~clients ~think_ms
    ~demands_ms ~servers () =
  let k = Array.length demands_ms in
  let n = float_of_int clients in
  let qd = Float.Array.make k 0.0 in
  let q = Float.Array.make k 0.0 in
  let r = Float.Array.make k 0.0 in
  let acc = Float.Array.make 2 0.0 in
  for i = 0 to k - 1 do
    Float.Array.set qd i (demands_ms.(i) /. float_of_int servers.(i));
    Float.Array.set acc 1
      (Float.Array.get acc 1
      +. demands_ms.(i)
         *. float_of_int (servers.(i) - 1)
         /. float_of_int servers.(i))
  done;
  let fixed_delay = Float.Array.get acc 1 in
  let q0 = n /. float_of_int (Stdlib.max 1 k) in
  for i = 0 to k - 1 do
    Float.Array.set q i q0
  done;
  Float.Array.set acc 0 0.0;
  let iters = ref 0 in
  let running = ref true in
  let changed = ref false in
  while !running && !iters < max_iterations do
    incr iters;
    Float.Array.set acc 1 0.0;
    for i = 0 to k - 1 do
      let ri =
        Float.Array.get qd i *. (1.0 +. (Float.Array.get q i *. (n -. 1.0) /. n))
      in
      Float.Array.set r i ri;
      Float.Array.set acc 1 (Float.Array.get acc 1 +. ri)
    done;
    let x = n /. (think_ms +. fixed_delay +. Float.Array.get acc 1) in
    changed := false;
    for i = 0 to k - 1 do
      let qi = x *. Float.Array.get r i in
      if not (Float.equal qi (Float.Array.get q i)) then changed := true;
      Float.Array.set q i qi
    done;
    if early_exit && (not !changed) && Float.equal x (Float.Array.get acc 0) then
      running := false;
    Float.Array.set acc 0 x
  done;
  Float.Array.get acc 0

let mmck_blocking ~servers ~queue ~offered =
  if offered <= 0.0 then 0.0
  else begin
    let k = servers + queue in
    let c = float_of_int servers in
    let acc = Float.Array.make 2 1.0 in
    for n = 0 to k - 1 do
      let rate = offered /. Float.min c (float_of_int (n + 1)) in
      let rel = Float.Array.get acc 0 *. rate in
      if rel > 1e12 then begin
        Float.Array.set acc 1 ((Float.Array.get acc 1 /. rel) +. 1.0);
        Float.Array.set acc 0 1.0
      end
      else begin
        Float.Array.set acc 0 rel;
        Float.Array.set acc 1 (Float.Array.get acc 1 +. rel)
      end
    done;
    Float.Array.get acc 0 /. Float.Array.get acc 1
  end

let weighted mix f =
  Array.fold_left (fun acc (i, w) -> acc +. (w *. f i)) 0.0 mix.Tpcw.weights

let mean_cache_hit fx mix = weighted mix (Effects.cache_hit_probability fx)

let mean_proxy_ms fx mix =
  weighted mix (fun i ->
      let h = Effects.cache_hit_probability fx i in
      (h *. Effects.proxy_hit_ms fx i) +. ((1.0 -. h) *. Effects.proxy_forward_ms fx i))

let mean_app_ms fx mix =
  weighted mix (fun i ->
      let h = Effects.cache_hit_probability fx i in
      (1.0 -. h) *. Effects.app_service_ms fx i)

let mean_db_ms fx mix =
  weighted mix (fun i ->
      let h = Effects.cache_hit_probability fx i in
      (1.0 -. h) *. Effects.db_service_ms fx i)

let of_config c =
  let c = Space.snap Wsconfig.space c in
  let at i = int_of_float c.(i) in
  {
    Wsconfig.ajp_accept_count = at 0;
    ajp_max_processors = at 1;
    http_buffer_kb = at 2;
    http_accept_count = at 3;
    mysql_max_connections = at 4;
    mysql_delayed_queue = at 5;
    mysql_net_buffer_kb = at 6;
    proxy_max_object_kb = at 7;
    proxy_min_object_kb = at 8;
    proxy_cache_mem_mb = at 9;
  }

let evaluate ?(options = Model.default_options) config ~mix =
  let fx = Effects.derive config ~mix in
  let demands =
    [|
      Float.max 1e-6 (mean_proxy_ms fx mix);
      Float.max 1e-6 (mean_app_ms fx mix);
      Float.max 1e-6 (mean_db_ms fx mix);
    |]
  in
  let servers =
    [| Effects.proxy_servers fx; Effects.app_servers fx; Effects.db_servers fx |]
  in
  let x =
    amva_solve ~clients:options.Model.clients ~think_ms:options.Model.think_ms
      ~demands_ms:demands ~servers ()
  in
  let blocking i queue_limit =
    mmck_blocking ~servers:servers.(i) ~queue:queue_limit ~offered:(x *. demands.(i))
  in
  let over_proxy = blocking 0 (Effects.proxy_queue_limit fx) in
  let over_app = blocking 1 (Effects.app_queue_limit fx) in
  let reject_fraction = Float.min 0.9 (over_proxy +. over_app) in
  let x = x *. (1.0 -. (0.5 *. reject_fraction)) in
  let util i = Float.min 1.0 (x *. demands.(i) /. float_of_int servers.(i)) in
  let u = (util 0, util 1, util 2) in
  let bottleneck =
    let u0, u1, u2 = u in
    if u1 >= u0 && u1 >= u2 then "app" else if u2 >= u0 then "db" else "proxy"
  in
  {
    Model.wips = x *. 1000.0;
    cache_hit = mean_cache_hit fx mix;
    utilization = u;
    bottleneck;
    reject_fraction;
  }

(* ------------------------------------------------------------------ *)
(* Reference fault layer and vetting                                   *)

let draw seed = Rng.float (Rng.create seed) 1.0

let with_faults ~(rates : Objective.fault_rates) ~seed f =
  let attempts : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let draw key attempt tag = draw (Hashtbl.hash (seed, key, attempt, tag)) in
  fun c ->
    let key = Space.config_key c in
    let attempt = Option.value (Hashtbl.find_opt attempts key) ~default:0 in
    Hashtbl.replace attempts key (attempt + 1);
    if draw key (-1) "persistent" < rates.Objective.persistent then
      raise (Objective.Measurement_failed Objective.Persistent);
    if draw key attempt "transient" < rates.Objective.transient then
      raise (Objective.Measurement_failed Objective.Transient);
    if draw key attempt "timeout" < rates.Objective.timeout then Objective.timed_out
    else
      let v = f c in
      if draw key attempt "outlier" < rates.Objective.outlier then
        if draw key attempt "outlier-direction" < 0.5 then
          v *. rates.Objective.outlier_magnitude
        else v /. rates.Objective.outlier_magnitude
      else v

(* Sequential dispatch of the grouped batch: groups in
   first-occurrence order, stopping at the first exception. *)
let batch_by_key eval configs =
  let groups = Objective.group_by_key configs in
  let results = Array.make (Array.length configs) 0.0 in
  Array.iter (List.iter (fun i -> results.(i) <- eval configs.(i))) groups;
  results

let measure ~(policy : Measure.policy) (obj : Objective.t) c =
  let wanted = if Objective.noisy obj then policy.Measure.samples else 1 in
  let readings = ref [] in
  let attempts = ref 0 and faults = ref 0 in
  let last_fault = ref Objective.Transient in
  let aborted = ref false in
  let rec take_reading budget =
    if budget <= 0 || !aborted then ()
    else begin
      incr attempts;
      match obj.Objective.eval c with
      | v when Float.is_finite v -> readings := v :: !readings
      | _ ->
          incr faults;
          last_fault := Objective.Timeout;
          take_reading (budget - 1)
      | exception Objective.Measurement_failed Objective.Persistent ->
          incr faults;
          last_fault := Objective.Persistent;
          aborted := true
      | exception Objective.Measurement_failed kind ->
          incr faults;
          last_fault := kind;
          take_reading (budget - 1)
    end
  in
  let take_round () =
    for _ = 1 to wanted do
      if not !aborted then take_reading policy.Measure.max_attempts
    done
  in
  let vet all =
    if Array.length all < 3 then (all, 0)
    else begin
      let med = Stats.median all in
      let mad = Stats.mad all in
      let scale = Float.max mad (1e-9 *. Float.max 1.0 (Float.abs med)) in
      let kept =
        Array.of_list
          (List.filter
             (fun x -> Float.abs (x -. med) <= policy.Measure.mad_threshold *. scale)
             (Array.to_list all))
      in
      let rejected = Array.length all - Array.length kept in
      ((if Array.length kept = 0 then [| med |] else kept), rejected)
    end
  in
  take_round ();
  let vetted, rejected =
    let _, first_rejected = vet (Array.of_list !readings) in
    if first_rejected > 0 && wanted > 1 && not !aborted then take_round ();
    vet (Array.of_list !readings)
  in
  if rejected > 0 then begin
    faults := !faults + rejected;
    last_fault := Objective.Outlier
  end;
  match !readings with
  | [] -> Error (!attempts, !faults, !last_fault)
  | _ :: _ -> Ok (Stats.median vetted)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let mixes = [| Tpcw.browsing; Tpcw.shopping; Tpcw.ordering |]
let lo = Space.mins Wsconfig.space
let hi = Space.maxs Wsconfig.space

(* A raw configuration: each coordinate up to 10% outside its range
   and off the grid, so of_config snaps and clamps. *)
let gen_raw_config =
  QCheck2.Gen.(
    let coord j =
      let span = hi.(j) -. lo.(j) in
      float_range (lo.(j) -. (0.1 *. span)) (hi.(j) +. (0.1 *. span))
    in
    map Array.of_list (flatten_l (List.init (Array.length lo) coord)))

let gen_mix = QCheck2.Gen.oneofa mixes

let gen_options =
  QCheck2.Gen.(
    let* clients = oneof [ return 1; int_range 1 20; int_range 20 600 ] in
    let* think_ms = oneof [ return 0.0; float_range 0.0 3000.0 ] in
    return { Model.clients; think_ms })

let gen_seed =
  QCheck2.Gen.(
    oneof
      [
        oneofl [ 0; -1; min_int; max_int ];
        int_range 0 0x3fffffff;
        int;
      ])

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let amva_matches_reference =
  QCheck2.Test.make ~name:"amva solve matches the reference" ~count:500
    QCheck2.Gen.(
      let* clients = oneof [ return 1; int_range 1 50; int_range 50 3000 ] in
      let* think_ms = oneof [ return 0.0; float_range 0.0 3000.0 ] in
      let* k = int_range 1 5 in
      let* demands =
        list_repeat k (oneof [ return 0.0; float_range 0.0 400.0 ])
      in
      let* servers = list_repeat k (int_range 1 20) in
      return (clients, think_ms, Array.of_list demands, Array.of_list servers))
    (fun (clients, think_ms, demands_ms, servers) ->
      let s = Model.Amva.scratch () in
      (* A second solve on the same scratch must not see the first. *)
      let first = Model.Amva.solve ~scratch:s ~clients ~think_ms ~demands_ms ~servers () in
      let again = Model.Amva.solve ~scratch:s ~clients ~think_ms ~demands_ms ~servers () in
      let expected = amva_solve ~clients ~think_ms ~demands_ms ~servers () in
      same expected first && same expected again
      && same expected (amva_solve ~early_exit:false ~clients ~think_ms ~demands_ms ~servers ()))

let mmck_matches_reference =
  QCheck2.Test.make ~name:"mmck blocking matches the reference" ~count:500
    QCheck2.Gen.(
      triple (int_range 1 20) (int_range 0 600)
        (oneof
           [ return 0.0; float_range (-5.0) 0.0; float_range 0.0 50.0;
             float_range 50.0 5000.0 ]))
    (fun (servers, queue, offered) ->
      same
        (mmck_blocking ~servers ~queue ~offered)
        (Model.mmck_blocking ~servers ~queue ~offered))

let means_match_folds =
  QCheck2.Test.make ~name:"effects means match the folds" ~count:300
    QCheck2.Gen.(pair gen_raw_config gen_mix)
    (fun (c, mix) ->
      let fx = Effects.derive (Wsconfig.of_config c) ~mix in
      let out = Float.Array.make 4 nan in
      Effects.means_into fx out;
      let expected =
        [ mean_cache_hit fx mix; mean_proxy_ms fx mix; mean_app_ms fx mix; mean_db_ms fx mix ]
      in
      List.for_all2 same expected (Float.Array.to_list out)
      && List.for_all2 same expected
           [
             Effects.mean_cache_hit fx; Effects.mean_proxy_ms fx;
             Effects.mean_app_ms fx; Effects.mean_db_ms fx;
           ])

let evaluate_matches_reference =
  QCheck2.Test.make ~name:"model evaluate matches the reference" ~count:300
    QCheck2.Gen.(triple gen_raw_config gen_mix gen_options)
    (fun (c, mix, options) ->
      let config = of_config c in
      let r = Model.evaluate ~options (Wsconfig.of_config c) ~mix in
      let e = evaluate ~options config ~mix in
      let u0, u1, u2 = r.Model.utilization and e0, e1, e2 = e.Model.utilization in
      Wsconfig.of_config c = config
      && same r.Model.wips e.Model.wips
      && same r.Model.cache_hit e.Model.cache_hit
      && same u0 e0 && same u1 e1 && same u2 e2
      && String.equal r.Model.bottleneck e.Model.bottleneck
      && same r.Model.reject_fraction e.Model.reject_fraction
      && same ((Model.objective ~options ~mix ()).Objective.eval c) e.Model.wips)

let draws_match_reference =
  QCheck2.Test.make ~name:"seeded draws match Random.State" ~count:2000 gen_seed
    (fun seed ->
      List.for_all
        (fun s -> same (Rng.seeded_float s) (draw s))
        [ seed; 0; -1; min_int; max_int ])

(* ------------------------------------------------------------------ *)
(* Fault schedules                                                     *)

let fault_space =
  Space.create
    [
      Param.int_range ~name:"x" ~lo:0 ~hi:2 ~default:1 ();
      Param.int_range ~name:"y" ~lo:0 ~hi:1 ~default:0 ();
    ]

let fault_configs = Array.init 6 (fun i -> [| float_of_int (i / 2); float_of_int (i mod 2) |])
let truth c = 50.0 +. (7.0 *. c.(0)) -. (3.0 *. c.(1))

let gen_rate = QCheck2.Gen.(oneof [ return 0.0; return 1.0; float_range 0.0 1.0 ])

let gen_rates =
  QCheck2.Gen.(
    let* transient = gen_rate in
    let* persistent = gen_rate in
    let* timeout = gen_rate in
    let* outlier = gen_rate in
    let* outlier_magnitude = float_range 1.0 10.0 in
    return { Objective.transient; persistent; timeout; outlier; outlier_magnitude })

let gen_schedule =
  QCheck2.Gen.(
    map (Array.map (fun i -> fault_configs.(i))) (array_size (int_range 1 60) (int_range 0 5)))

type outcome = Value of float | Raised of Objective.fault

let outcome f =
  match f () with v -> Value v | exception Objective.Measurement_failed k -> Raised k

let same_outcome a b =
  match (a, b) with
  | Value x, Value y -> same x y
  | Raised x, Raised y -> x = y
  | Value _, Raised _ | Raised _, Value _ -> false

let library_faults rates seed =
  Objective.with_faults ~rates ~seed
    (Objective.create ~space:fault_space ~direction:Objective.Higher_is_better truth)

let faults_match_reference =
  QCheck2.Test.make ~name:"with_faults matches the reference" ~count:300
    QCheck2.Gen.(triple gen_rates gen_seed gen_schedule)
    (fun (rates, seed, schedule) ->
      let lib = library_faults rates seed in
      let reference = with_faults ~rates ~seed truth in
      Array.for_all
        (fun c ->
          same_outcome
            (outcome (fun () -> lib.Objective.eval c))
            (outcome (fun () -> reference c)))
        schedule)

(* The schedule cut into batches of 1 to 4; a batch that raises
   reports its first exception, and its attempts still count. *)
let batched_faults_match_reference =
  QCheck2.Test.make ~name:"batched faults match the reference" ~count:200
    QCheck2.Gen.(quad gen_rates gen_seed gen_schedule (list_size (return 30) (int_range 1 4)))
    (fun (rates, seed, schedule, sizes) ->
      let lib = library_faults rates seed in
      let reference = with_faults ~rates ~seed truth in
      let run eval batch =
        match eval batch with
        | values -> Array.to_list (Array.map (fun v -> Value v) values)
        | exception Objective.Measurement_failed k -> [ Raised k ]
      in
      let rec go pos sizes =
        pos >= Array.length schedule
        ||
        match sizes with
        | [] -> true
        | size :: rest ->
            let n = Int.min size (Array.length schedule - pos) in
            let batch = Array.sub schedule pos n in
            let got = run (Objective.eval_batch lib) batch in
            let expected = run (batch_by_key reference) batch in
            List.length got = List.length expected
            && List.for_all2 same_outcome got expected
            && go (pos + n) rest
      in
      go 0 sizes)

(* ------------------------------------------------------------------ *)
(* Reading vetting                                                     *)

type reading = V of float | Fail of Objective.fault | Timed_out

let scripted ~noisy readings =
  let left = ref readings in
  let eval _ =
    match !left with
    | [] -> 1.0
    | r :: rest -> (
        left := rest;
        match r with
        | V v -> v
        | Timed_out -> Objective.timed_out
        | Fail k -> raise (Objective.Measurement_failed k))
  in
  { (Objective.create ~space:fault_space ~direction:Objective.Higher_is_better eval) with
    Objective.noisy }

let gen_reading =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun v -> V v) (oneofl [ 0.0; -0.0; 1.0; 2.0; 2.0; 8.0; 16.0; 5e-324 ]));
        (2, map (fun v -> V v) (float_range (-100.0) 100.0));
        (1, map (fun v -> V v) (oneofl [ 1e308; -1e308 ]));
        (1, return (Fail Objective.Transient));
        (1, return Timed_out);
        (1, oneofl [ Fail Objective.Persistent; Fail Objective.Outlier ]);
      ])

let vetting_matches_reference =
  QCheck2.Test.make ~name:"reading vetting matches the reference" ~count:1000
    QCheck2.Gen.(
      quad (list_size (int_range 0 14) gen_reading) (int_range 1 5) (int_range 1 4) bool)
    (fun (readings, samples, max_attempts, noisy) ->
      let policy = { Measure.default_policy with Measure.samples; max_attempts } in
      let c = fault_configs.(0) in
      let got = Measure.measure ~policy (scripted ~noisy readings) c in
      let expected = measure ~policy (scripted ~noisy readings) c in
      match (got, expected) with
      | Ok x, Ok y -> same x y
      | Error f, Error (attempts, faults, last_fault) ->
          f.Measure.attempts = attempts && f.Measure.faults = faults
          && f.Measure.last_fault = last_fault
      | Ok _, Error _ | Error _, Ok _ -> false)

let qcheck_seed = [| 0x5eed; 20 |]

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make qcheck_seed) t

let suite =
  List.map to_alcotest
    [
      amva_matches_reference;
      mmck_matches_reference;
      means_match_folds;
      evaluate_matches_reference;
      draws_match_reference;
      faults_match_reference;
      batched_faults_match_reference;
      vetting_matches_reference;
    ]

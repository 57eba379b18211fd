(* Golden transcript of the simulated system: the analytic web-service
   model, its AMVA solver, the fault-injection layer, the measurement
   policy's reading vetting and one Session.tune over all of them,
   printed with every float in %h (exact hex).  The dune rule next to
   this file diffs the output against model.expected, so any change to
   a result bit shows up as a diff.

   Sections:
   - Model.evaluate, all five fields, at the box corners and the
     defaults under every (options, mix) pair, 200 seeded points (grid
     points and off-grid points that Wsconfig.of_config snaps), each
     printed under one pair, and a digest of all 200 points under
     every pair;
   - Amva.solve on scenarios that reach the iteration cap and on
     scenarios that stop at the exact fixed point;
   - a short simulation per mix (the per-interaction formulas);
   - the outcome of every with_faults attempt on a scripted schedule
     with repeats, sequential and in batches, under fault_profile 0.3
     and under a persistent-heavy profile;
   - Measure.measure on scripted readings with +0.0, -0.0 and
     duplicates;
   - Session.tune with the default policy, noise, faults and history
     reuse.

   Usage: model_golden.exe > model.out *)

open Harmony
open Harmony_objective
open Harmony_webservice
module Space = Harmony_param.Space
module Param = Harmony_param.Param
module Rng = Harmony_numerics.Rng

let section title = print_string ("=== " ^ title ^ "\n")

(* FNV-1a over 64-bit words, for the digest lines. *)
let fnv_prime = 0x100000001b3L

let fnv_int64 h x =
  let h = ref h in
  for i = 0 to 7 do
    let byte = Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL in
    h := Int64.mul (Int64.logxor !h byte) fnv_prime
  done;
  !h

let fnv_float h x = fnv_int64 h (Int64.bits_of_float x)

let fnv_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

(* ------------------------------------------------------------------ *)
(* Model.evaluate                                                      *)

let mixes = [ Tpcw.browsing; Tpcw.shopping; Tpcw.ordering ]

let option_sets =
  [
    ("defaults", Model.default_options);
    ("clients=1", { Model.default_options with Model.clients = 1 });
    ("clients=300,think=700", { Model.clients = 300; think_ms = 700.0 });
    ("think=0", { Model.default_options with Model.think_ms = 0.0 });
  ]

let pairs =
  List.concat_map
    (fun (oname, options) ->
      List.map (fun mix -> (oname ^ "/" ^ mix.Tpcw.label, options, mix)) mixes)
    option_sets

let lo = Space.mins Wsconfig.space
let hi = Space.maxs Wsconfig.space

let fixed_points =
  [
    ("defaults", Space.defaults Wsconfig.space);
    ("all-lo", lo);
    ("all-hi", hi);
    ("lo-hi", Array.mapi (fun i l -> if i mod 2 = 0 then l else hi.(i)) lo);
    ("hi-lo", Array.mapi (fun i h -> if i mod 2 = 0 then h else lo.(i)) hi);
  ]

(* 200 seeded points: even indices are grid points, odd ones are drawn
   uniformly up to 10% outside each range, so snapping (and clamping)
   runs inside Wsconfig.of_config. *)
let sample =
  let rng = Rng.create 2004 in
  Array.init 200 (fun i ->
      if i mod 2 = 0 then Space.random rng Wsconfig.space
      else
        Array.mapi
          (fun j l ->
            let span = hi.(j) -. l in
            Rng.uniform rng (l -. (0.1 *. span)) (hi.(j) +. (0.1 *. span)))
          lo)

let evaluate options mix c = Model.evaluate ~options (Wsconfig.of_config c) ~mix

let result_line (r : Model.result) =
  let u0, u1, u2 = r.Model.utilization in
  Printf.sprintf "wips %h hit %h util %h %h %h %s reject %h" r.Model.wips
    r.Model.cache_hit u0 u1 u2 r.Model.bottleneck r.Model.reject_fraction

let result_digest h (r : Model.result) =
  let u0, u1, u2 = r.Model.utilization in
  let h = List.fold_left fnv_float h [ r.Model.wips; r.Model.cache_hit; u0; u1; u2 ] in
  fnv_float (fnv_string h r.Model.bottleneck) r.Model.reject_fraction

let model_run () =
  section "model fixed points";
  List.iter
    (fun (pname, options, mix) ->
      List.iter
        (fun (cname, c) ->
          Printf.printf "%s %s: %s\n" pname cname
            (result_line (evaluate options mix c)))
        fixed_points)
    pairs;
  section "model seeded points";
  let npairs = List.length pairs in
  Array.iteri
    (fun i c ->
      let pname, options, mix = List.nth pairs (i mod npairs) in
      Printf.printf "%3d %s: %s\n" i pname (result_line (evaluate options mix c)))
    sample;
  section "model seeded digests";
  List.iter
    (fun (pname, options, mix) ->
      let h =
        Array.fold_left
          (fun h c -> result_digest h (evaluate options mix c))
          0xcbf29ce484222325L sample
      in
      Printf.printf "%s: %016Lx\n" pname h)
    pairs

(* ------------------------------------------------------------------ *)
(* Amva.solve                                                          *)

(* The first three scenarios run all 200 iterations without reaching
   a fixed point; the others stop at the exact fixed point after 2 to
   139 iterations. *)
let amva_scenarios =
  [
    ("capped, 1000 clients", 1000, 1000.0, [| 9.25; 119.75; 130.0 |], [| 16; 9; 10 |]);
    ("capped, 120 clients", 120, 700.0, [| 2.0; 186.0; 85.0 |], [| 16; 3; 11 |]);
    ("capped, one app server", 120, 250.0, [| 2.0; 15.25; 61.5 |], [| 16; 1; 6 |]);
    ("3-tier default", 120, 1000.0, [| 2.0; 5.0; 3.0 |], [| 2; 8; 4 |]);
    ("saturated", 300, 700.0, [| 1.5; 9.0; 6.5 |], [| 2; 6; 4 |]);
    ("single server", 40, 500.0, [| 4.0; 4.0; 4.0 |], [| 1; 1; 1 |]);
    ("light load", 8, 2000.0, [| 0.5; 1.25; 0.75 |], [| 4; 16; 8 |]);
    ("one client", 1, 1000.0, [| 2.0; 5.0; 3.0 |], [| 2; 8; 4 |]);
    ("no think time", 120, 0.0, [| 2.0; 5.0; 3.0 |], [| 2; 8; 4 |]);
    ("one station", 50, 100.0, [| 7.0 |], [| 3 |]);
    ("five stations", 200, 400.0, [| 1.0; 2.0; 3.0; 4.0; 5.0 |], [| 1; 2; 3; 4; 5 |]);
    ("heavy", 5000, 10.0, [| 0.25; 80.0; 30.0 |], [| 16; 10; 12 |]);
    ("zero demand", 60, 300.0, [| 0.0; 4.0; 0.0 |], [| 1; 2; 1 |]);
  ]

let amva_run () =
  section "amva";
  List.iter
    (fun (label, clients, think_ms, demands_ms, servers) ->
      Printf.printf "%s: %h\n" label
        (Model.Amva.solve ~clients ~think_ms ~demands_ms ~servers ()))
    amva_scenarios

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)

let sim_options =
  {
    Simulation.default_options with
    Simulation.warmup_ms = 1_000.0;
    horizon_ms = 5_000.0;
    seed = 7;
  }

let simulation_run () =
  section "simulation";
  List.iter
    (fun mix ->
      let r = Simulation.run ~options:sim_options Wsconfig.default ~mix in
      let u0, u1, u2 = r.Simulation.utilization in
      Printf.printf "%s: wips %h completions %d rejections %d hits %d p50 %h p95 %h util %h %h %h\n"
        mix.Tpcw.label r.Simulation.wips r.Simulation.completions
        r.Simulation.rejections r.Simulation.cache_hits
        r.Simulation.p50_response_ms r.Simulation.p95_response_ms u0 u1 u2)
    mixes

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let fault_space =
  Space.create
    [
      Param.int_range ~name:"x" ~lo:0 ~hi:5 ~default:2 ();
      Param.int_range ~name:"y" ~lo:0 ~hi:1 ~default:0 ();
    ]

let fault_configs = Array.init 12 (fun i -> [| float_of_int (i / 2); float_of_int (i mod 2) |])

(* 96 evaluations over 12 configurations, revisited in a scrambled
   order so every configuration is attempted several times. *)
let schedule = Array.init 96 (fun i -> fault_configs.(((i * 7) + (i / 12)) mod 12))

let fault_base () =
  Objective.create ~space:fault_space ~direction:Objective.Higher_is_better
    (fun c -> 100.0 +. (3.0 *. c.(0)) -. c.(1))

let persistent_heavy =
  {
    Objective.transient = 0.1;
    persistent = 0.5;
    timeout = 0.1;
    outlier = 0.2;
    outlier_magnitude = 8.0;
  }

let profiles =
  [
    ("fault_profile 0.3", Objective.fault_profile 0.3, 31);
    ("persistent-heavy", persistent_heavy, 32);
  ]

let outcome_text f =
  match f () with
  | v when Float.is_nan v -> "timeout"
  | v -> Printf.sprintf "%h" v
  | exception Objective.Measurement_failed k -> Objective.fault_to_string k

let faults_run () =
  List.iter
    (fun (name, rates, seed) ->
      section ("faults sequential, " ^ name);
      let obj = Objective.with_faults ~rates ~seed (fault_base ()) in
      Array.iteri
        (fun i c ->
          Printf.printf "%2d (%g,%g): %s\n" i c.(0) c.(1)
            (outcome_text (fun () -> obj.Objective.eval c)))
        schedule;
      (* The same schedule in batches of 1 to 4 configurations on a
         fresh objective with the same seed.  A batch that raises
         reports its first exception. *)
      section ("faults batched, " ^ name);
      let obj = Objective.with_faults ~rates ~seed (fault_base ()) in
      let sizes = [| 1; 2; 1; 4; 1; 3; 1; 1 |] in
      let rec go pos k =
        if pos < Array.length schedule then begin
          let n = min sizes.(k mod Array.length sizes) (Array.length schedule - pos) in
          let batch = Array.sub schedule pos n in
          let text =
            match Objective.eval_batch obj batch with
            | values ->
                String.concat " "
                  (Array.to_list
                     (Array.map
                        (fun v ->
                          if Float.is_nan v then "timeout" else Printf.sprintf "%h" v)
                        values))
            | exception Objective.Measurement_failed kind ->
                "raised " ^ Objective.fault_to_string kind
          in
          Printf.printf "%2d+%d: %s\n" pos n text;
          go (pos + n) (k + 1)
        end
      in
      go 0 0)
    profiles

(* ------------------------------------------------------------------ *)
(* Measure.measure                                                     *)

type reading = V of float | Fail of Objective.fault | Timed_out

let scripted ~noisy readings =
  let left = ref readings in
  let eval _ =
    match !left with
    | [] -> failwith "scripted objective ran out of readings"
    | r :: rest -> (
        left := rest;
        match r with
        | V v -> v
        | Timed_out -> Objective.timed_out
        | Fail k -> raise (Objective.Measurement_failed k))
  in
  {
    (Objective.create ~space:fault_space ~direction:Objective.Higher_is_better eval)
    with
    Objective.noisy;
  }

let v = 3.25

let reading_scripts =
  [
    ("zeros", Measure.default_policy, [ V 0.0; V (-0.0); V 0.0 ]);
    ("negative zeros", Measure.default_policy, [ V (-0.0); V (-0.0); V (-0.0) ]);
    ( "signed zeros and five",
      Measure.default_policy,
      [ V (-0.0); V 0.0; V 5.0; V 0.0; V (-0.0); V 5.0 ] );
    ( "duplicates and an outlier",
      Measure.default_policy,
      [ V 5.0; V 5.0; V 40.0; V 5.0; V 5.0; V 5.0 ] );
    ( "corrupted majority",
      Measure.default_policy,
      [ V v; V (8.0 *. v); V (8.0 *. v); V v; V v; V v ] );
    ("plain", Measure.default_policy, [ V 1.0; V 2.0; V 3.0 ]);
    ( "faults between readings",
      Measure.default_policy,
      [ Fail Objective.Transient; V 4.0; Timed_out; V 4.5; V 4.25 ] );
    ( "signed zeros rejected",
      Measure.default_policy,
      [ V (-0.0); V 0.0; V 3.0; V (-0.0); V 0.0; V (-0.0) ] );
    ("overflowing spread", Measure.default_policy, [ V 1e308; V (-1e308); V 0.0 ]);
    ("persistent", Measure.default_policy, [ Fail Objective.Persistent ]);
    ( "zeros among duplicates",
      Measure.default_policy,
      [ V 2.0; V 2.0; V (-0.0); V 0.0; V 2.0; V 2.0 ] );
    ( "every attempt fails",
      Measure.default_policy,
      List.init 12 (fun i -> if i mod 3 = 1 then Fail Objective.Transient else Timed_out)
    );
    ( "overflowing spread, four samples",
      { Measure.default_policy with Measure.samples = 4 },
      [ V 1e308; V (-1e308); V (-1e308); V 1e308; V 1e308; V 1e308; V 1e308; V 1e308 ] );
    ( "four samples",
      { Measure.default_policy with Measure.samples = 4 },
      [ V (-0.0); V 0.0; V 1.0; V 9.0; V 1.0; V 1.0; V 1.0; V 1.0 ] );
    ( "two samples",
      { Measure.default_policy with Measure.samples = 2 },
      [ V (-0.0); V 7.0 ] );
    ( "five samples, zero spread",
      { Measure.default_policy with Measure.samples = 5 },
      [ V 0.5; V 0.5; V (-0.0); V 0.5; V 0.5; V 0.5; V 0.5; V 0.5; V 0.5; V 0.5 ] );
  ]

let measure_run () =
  section "measure";
  let c = [| 0.0; 0.0 |] in
  List.iter
    (fun (label, policy, readings) ->
      let text =
        match Measure.measure ~policy (scripted ~noisy:true readings) c with
        | Ok x -> Printf.sprintf "ok %h" x
        | Error f -> Format.asprintf "error %a" Measure.pp_failure f
      in
      Printf.printf "%s: %s\n" label text)
    reading_scripts;
  (* A deterministic objective takes one reading. *)
  List.iter
    (fun x ->
      match Measure.measure (scripted ~noisy:false [ V x ]) c with
      | Ok m -> Printf.printf "one reading %h: ok %h\n" x m
      | Error f -> Format.printf "one reading %h: error %a@." x Measure.pp_failure f)
    [ -0.0; 0.0; 2.5 ]

(* ------------------------------------------------------------------ *)
(* Session.tune                                                        *)

let session_run () =
  section "session";
  let objective =
    Model.objective ~mix:Tpcw.shopping ()
    |> Objective.with_noise (Rng.create 5) ~level:0.03
    |> Objective.with_faults ~rates:(Objective.fault_profile 0.1) ~seed:9
  in
  let session =
    Session.create ~objective ~measure:Measure.default_policy
      ~options:{ Tuner.default_options with Tuner.max_evaluations = 40 }
      ()
  in
  List.iter
    (fun (label, chars) ->
      let r = Session.tune ~characteristics:chars ~label session in
      let o = r.Session.outcome in
      Printf.printf
        "%s: experience %b best %h evaluations %d converged %b degraded %b faults %d retries %d\n"
        label r.Session.used_experience o.Tuner.best_performance o.Tuner.evaluations
        o.Tuner.converged r.Session.degraded r.Session.faults r.Session.retries;
      Printf.printf "  best config %s\n"
        (String.concat " "
           (Array.to_list (Array.map (Printf.sprintf "%h") o.Tuner.best_config)));
      List.iteri
        (fun i e -> Printf.printf "  %2d %h\n" i e.Recorder.performance)
        o.Tuner.trace)
    [
      ("first", [| 0.2; 0.5; 0.3 |]);
      ("second", [| 0.6; 0.1; 0.3 |]);
      ("repeat of first", [| 0.2; 0.5; 0.3 |]);
    ]

let () =
  model_run ();
  amva_run ();
  simulation_run ();
  faults_run ();
  measure_run ();
  session_run ()

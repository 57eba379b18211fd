(* Property-based / fuzz suite (QCheck2 over Alcotest).

   Every test here is deterministic: QCheck draws from a fixed seed
   (set below) and nothing measures wall-clock time — the measurement
   pipeline's backoff runs on its simulated clock. *)

open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space
module Rsl = Harmony_param.Rsl
module Gen = QCheck2.Gen

let seed = [| 0x5eed; 2004 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make seed) t

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

(* A random valid RSL program: every bundle's range is non-empty by
   construction (references only reach strictly earlier bundles, whose
   values are non-negative, and only widen the range upward). *)
let gen_bundles : Rsl.bundle list Gen.t =
  Gen.(
    let* n = int_range 1 5 in
    let rec build i acc =
      if i >= n then return (List.rev acc)
      else
        let* lo = int_range 0 5 in
        let* width = int_range 0 9 in
        let* step = int_range 1 3 in
        let* hi_expr =
          if i = 0 then return (Rsl.Const (lo + width))
          else
            let* use_ref = bool in
            if not use_ref then return (Rsl.Const (lo + width))
            else
              let* j = int_range 0 (i - 1) in
              return
                (Rsl.Add
                   (Rsl.Const (lo + width), Rsl.Ref (Printf.sprintf "B%d" j)))
        in
        build (i + 1)
          ({
             Rsl.name = Printf.sprintf "B%d" i;
             lo = Rsl.Const lo;
             hi = hi_expr;
             step = Rsl.Const step;
           }
          :: acc)
    in
    build 0 [])

let gen_spec = Gen.map Rsl.of_bundles gen_bundles

(* Arbitrary bytes, with NULs, newlines and protocol-ish prefixes mixed
   in so the interesting corners actually get visited. *)
let gen_raw_message : string Gen.t =
  Gen.(
    let any_bytes = string_size ~gen:char (int_bound 60) in
    let nasty =
      oneofl
        [
          "report failed"; "report  failed"; "report"; "report "; "reportfailed";
          "report nan"; "report inf"; "report -"; "report 1e309"; "query ";
          "register"; "register max"; "register max\n"; "register min\n{";
          "report\nfailed"; "report\000failed"; "\000"; "\n"; "";
          "register max\n{ harmonyBundle B { int {1 8 1} }}";
          "assign B=3"; "done"; "REPORT 4.5"; " query";
        ]
    in
    let stitched =
      let* a = any_bytes and* b = oneofl [ "\n"; "\000"; " " ] and* c = any_bytes in
      return (a ^ b ^ c)
    in
    oneof [ any_bytes; nasty; stitched ])

(* ------------------------------------------------------------------ *)
(* RSL                                                                 *)

let prop_rsl_roundtrip =
  QCheck2.Test.make ~name:"rsl parse-print-parse roundtrip" ~count:200 gen_spec
    (fun spec ->
      let printed = Rsl.to_string spec in
      let reparsed = Rsl.parse printed in
      String.equal printed (Rsl.to_string reparsed)
      && Rsl.names spec = Rsl.names reparsed)

let prop_rsl_repair_feasible =
  QCheck2.Test.make ~name:"rsl repair lands in the feasible set" ~count:200
    Gen.(
      let* spec = gen_spec in
      let* raw =
        array_size
          (return (List.length (Rsl.names spec)))
          (float_range (-20.0) 40.0)
      in
      return (spec, raw))
    (fun (spec, raw) ->
      let repaired = Rsl.repair spec raw in
      let ints = Array.map (fun x -> int_of_float (Float.round x)) repaired in
      Rsl_check.feasible spec ints)

(* ------------------------------------------------------------------ *)
(* Server protocol                                                     *)

let prop_parse_message_total =
  QCheck2.Test.make ~name:"parse_message never raises" ~count:500
    gen_raw_message (fun s ->
      match Server.parse_message s with Ok _ | Error _ -> true)

let prop_report_parse_roundtrip =
  QCheck2.Test.make ~name:"report <float> / report failed parse" ~count:200
    Gen.(float_range (-1e6) 1e6)
    (fun v ->
      let ok_float =
        match Server.parse_message (Printf.sprintf "report %.17g" v) with
        | Ok (Server.Report w) -> Float.abs (w -. v) <= 1e-9 *. Float.abs v
        | _ -> false
      in
      let ok_failed =
        match Server.parse_message "report failed" with
        | Ok Server.Report_failed -> true
        | _ -> false
      in
      ok_float && ok_failed)

(* Drive a server with a fuzzed message sequence after registering a
   random spec: every Assign it ever produces must be feasible. *)
type fuzz_msg = Fquery | Freport of float | Ffailed

let prop_assign_always_feasible =
  QCheck2.Test.make ~name:"every assign reply is feasible" ~count:100
    Gen.(
      let* spec = gen_spec in
      let* msgs =
        list_size (int_range 1 25)
          (oneof
             [
               return Fquery;
               map (fun v -> Freport v) (float_range (-100.0) 100.0);
               return Ffailed;
             ])
      in
      return (spec, msgs))
    (fun (spec, msgs) ->
      let server = Server.create ~max_report_failures:2 () in
      let feasible_assign = function
        | Server.Assign assignment ->
            let ints = Array.of_list (List.map snd assignment) in
            Rsl_check.feasible spec ints
        | Server.Done _ | Server.Rejected _ | Server.Stats _ -> true
      in
      let register =
        Server.handle server
          (Server.Register
             { spec = Rsl.to_string spec; direction = Server.Maximize })
      in
      feasible_assign register
      && List.for_all
           (fun m ->
             let msg =
               match m with
               | Fquery -> Server.Query
               | Freport v -> Server.Report v
               | Ffailed -> Server.Report_failed
             in
             feasible_assign (Server.handle server msg))
           msgs)

(* ------------------------------------------------------------------ *)
(* Estimator                                                           *)

(* On an exactly affine surface, triangulation from d+1 affinely
   independent vertices reproduces the surface everywhere. *)
let prop_estimator_affine_exact =
  QCheck2.Test.make ~name:"estimator exact on affine surfaces" ~count:100
    Gen.(
      let* d = int_range 1 4 in
      let* coeffs = array_size (return (d + 1)) (float_range (-10.0) 10.0) in
      let* target = array_size (return d) (map float_of_int (int_range 0 10)) in
      return (d, coeffs, target))
    (fun (d, coeffs, target) ->
      let space =
        Space.create
          (List.init d (fun i ->
               Param.int_range
                 ~name:(Printf.sprintf "p%d" i)
                 ~lo:0 ~hi:10 ~default:0 ()))
      in
      let affine c =
        let acc = ref coeffs.(0) in
        Array.iteri (fun i x -> acc := !acc +. (coeffs.(i + 1) *. x)) c;
        !acc
      in
      (* d+1 affinely independent anchors: the origin corner plus one
         step along each axis. *)
      let anchors =
        Array.make d 0.0
        :: List.init d (fun i ->
               Array.init d (fun j -> if i = j then 10.0 else 0.0))
      in
      let points = List.map (fun c -> (c, affine c)) anchors in
      let predicted = Estimator.estimate ~space ~points ~target () in
      Float.abs (predicted -. affine target) <= 1e-6)

(* ------------------------------------------------------------------ *)
(* Tuner under injected faults                                         *)

let peak_space =
  Space.create
    [
      Param.int_range ~name:"x" ~lo:0 ~hi:20 ~default:10 ();
      Param.int_range ~name:"y" ~lo:0 ~hi:20 ~default:10 ();
    ]

let prop_tuner_in_space_under_faults =
  QCheck2.Test.make ~name:"tuner outcome in-space under faults" ~count:25
    Gen.(
      let* fault_seed = int_range 0 1000 in
      let* rate = float_range 0.0 0.4 in
      return (fault_seed, rate))
    (fun (fault_seed, rate) ->
      let clean =
        Objective.create ~space:peak_space
          ~direction:Objective.Higher_is_better (fun c ->
            100.0 -. (((c.(0) -. 13.0) ** 2.0) +. ((c.(1) -. 7.0) ** 2.0)))
      in
      let faulty =
        Objective.with_faults
          ~rates:(Objective.fault_profile rate)
          ~seed:fault_seed clean
      in
      let options =
        {
          Tuner.default_options with
          Tuner.max_evaluations = 40;
          measure = Some Measure.default_policy;
        }
      in
      let o = Tuner.tune ~options faulty in
      Space.is_valid peak_space o.Tuner.best_config
      && o.Tuner.best_config = Space.snap peak_space o.Tuner.best_config
      && List.for_all
           (fun e -> Space.is_valid peak_space e.Recorder.config)
           o.Tuner.trace)

let prop_with_faults_deterministic =
  QCheck2.Test.make ~name:"with_faults replays bit-identically" ~count:50
    Gen.(
      let* fault_seed = int_range 0 10_000 in
      let* rate = float_range 0.0 0.6 in
      return (fault_seed, rate))
    (fun (fault_seed, rate) ->
      let make () =
        Objective.with_faults
          ~rates:(Objective.fault_profile rate)
          ~seed:fault_seed
          (Objective.create ~space:peak_space
             ~direction:Objective.Higher_is_better (fun c -> c.(0) +. c.(1)))
      in
      let trace obj =
        List.init 30 (fun i ->
            let c = [| float_of_int (i mod 21); float_of_int (i mod 7) |] in
            match obj.Objective.eval c with
            | v -> Printf.sprintf "%h" v
            | exception Objective.Measurement_failed k ->
                Objective.fault_to_string k)
      in
      trace (make ()) = trace (make ()))

(* ------------------------------------------------------------------ *)
(* Measurement policy                                                  *)

(* The robust objective is total and finite whatever the fault rates:
   faults either get retried away or collapse to the finite penalty. *)
let prop_robust_total_and_finite =
  QCheck2.Test.make ~name:"robust objective total and finite" ~count:50
    Gen.(
      let* fault_seed = int_range 0 10_000 in
      let* rate = float_range 0.0 1.0 in
      return (fault_seed, rate))
    (fun (fault_seed, rate) ->
      let faulty =
        Objective.with_faults
          ~rates:(Objective.fault_profile rate)
          ~seed:fault_seed
          (Objective.create ~space:peak_space
             ~direction:Objective.Higher_is_better (fun c -> c.(0)))
      in
      let robust, _ = Measure.robust faulty in
      List.for_all
        (fun i ->
          let c = [| float_of_int (i mod 21); float_of_int i |] in
          Float.is_finite (robust.Objective.eval c))
        (List.init 40 (fun i -> i)))

(* On a full give-up the simulated clock advances by exactly the capped
   exponential schedule: sum of min(cap, base * factor^i). *)
let prop_backoff_schedule_bounded =
  QCheck2.Test.make ~name:"backoff follows the capped schedule" ~count:100
    Gen.(
      let* max_attempts = int_range 2 6 in
      let* base = float_range 1.0 20.0 in
      let* factor = float_range 1.0 3.0 in
      let* cap_mult = float_range 1.0 20.0 in
      return (max_attempts, base, factor, base *. cap_mult))
    (fun (max_attempts, base, factor, cap) ->
      let policy =
        {
          Measure.default_policy with
          Measure.max_attempts;
          backoff_ms = base;
          backoff_factor = factor;
          backoff_cap_ms = cap;
        }
      in
      let broken =
        Objective.create ~space:peak_space
          ~direction:Objective.Higher_is_better (fun _ ->
            raise (Objective.Measurement_failed Objective.Transient))
      in
      let clock = Measure.Clock.create () in
      match Measure.measure ~policy ~clock broken [| 0.0; 0.0 |] with
      | Ok _ -> false
      | Error f ->
          let expected = ref 0.0 in
          for i = 0 to max_attempts - 2 do
            expected :=
              !expected +. Float.min cap (base *. (factor ** float_of_int i))
          done;
          f.Measure.attempts = max_attempts
          && Float.abs (Measure.Clock.now clock -. !expected) <= 1e-6)

(* A single corrupted reading never survives the median + MAD vetting:
   the reported value is the honest one. *)
let prop_mad_rejects_single_outlier =
  QCheck2.Test.make ~name:"MAD vetting rejects a lone outlier" ~count:100
    Gen.(
      let* honest = float_range 1.0 1000.0 in
      let* mult = float_range 3.0 50.0 in
      let* position = int_range 0 2 in
      return (honest, mult, position))
    (fun (honest, mult, position) ->
      let attempts = ref 0 in
      let obj =
        {
          (Objective.create ~space:peak_space
             ~direction:Objective.Higher_is_better (fun _ ->
               let n = !attempts in
               incr attempts;
               if n = position then honest *. mult else honest))
          with
          Objective.randomness = Objective.Stream;
        }
      in
      match Measure.measure obj [| 0.0; 0.0 |] with
      | Ok v -> Float.abs (v -. honest) <= 1e-6 *. honest
      | Error _ -> false)

(* Stats bookkeeping holds under any fault pattern: evals is always
   hits + misses, and faults/retries only ever accumulate. *)
let prop_stats_invariant =
  QCheck2.Test.make ~name:"stats invariant: evals = hits + misses" ~count:50
    Gen.(
      let* fault_seed = int_range 0 10_000 in
      let* rate = float_range 0.0 0.6 in
      let* configs = list_size (int_range 1 30) (int_range 0 5) in
      return (fault_seed, rate, configs))
    (fun (fault_seed, rate, configs) ->
      let faulty =
        Objective.with_faults
          ~rates:(Objective.fault_profile rate)
          ~seed:fault_seed
          (Objective.create ~space:peak_space
             ~direction:Objective.Higher_is_better (fun c -> c.(0)))
      in
      let robust, _ = Measure.robust faulty in
      let cached = Objective.cached ~freeze_noise:true robust in
      List.iter
        (fun i -> ignore (cached.Objective.eval [| float_of_int i; 0.0 |]))
        configs;
      let distinct = List.length (List.sort_uniq compare configs) in
      match Objective.stats cached with
      | None -> false
      | Some s ->
          s.Objective.evals = s.Objective.hits + s.Objective.misses
          (* memo hits: every repeat of an already-measured config *)
          && s.Objective.hits = List.length configs - distinct
          (* misses are physical measurements: every logical
             measurement starts at least one reading, and each retry
             is one more physical attempt *)
          && s.Objective.misses - s.Objective.retries >= distinct
          (* every retry was provoked by a fault *)
          && s.Objective.faults >= s.Objective.retries)

let suite =
  List.map to_alcotest
    [
      prop_rsl_roundtrip;
      prop_rsl_repair_feasible;
      prop_parse_message_total;
      prop_report_parse_roundtrip;
      prop_assign_always_feasible;
      prop_estimator_affine_exact;
      prop_tuner_in_space_under_faults;
      prop_with_faults_deterministic;
      prop_robust_total_and_finite;
      prop_backoff_schedule_bounded;
      prop_mad_rejects_single_outlier;
      prop_stats_invariant;
    ]

open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space
module Rng = Harmony_numerics.Rng
module Telemetry = Harmony_telemetry.Telemetry
module Gen = QCheck2.Gen
module Ws = Harmony_webservice

let seed = [| 0x5eed; 15 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make seed) t

let peak_at target =
  let space =
    Space.create
      (List.init 2 (fun i ->
           Param.int_range ~name:(Printf.sprintf "p%d" i) ~lo:0 ~hi:100 ~default:10 ()))
  in
  Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
      let d2 = ref 0.0 in
      Array.iteri
        (fun i v ->
          let d = (v -. target.(i)) /. 100.0 in
          d2 := !d2 +. (d *. d))
        c;
      100.0 *. exp (-4.0 *. !d2))

let test_characterize_averages () =
  let calls = ref 0 in
  let probe () =
    incr calls;
    [| float_of_int !calls |]
  in
  let c = Analyzer.characterize ~probe ~samples:4 in
  Alcotest.(check (float 1e-9)) "mean of 1..4" 2.5 c.(0);
  Alcotest.(check int) "probe called 4 times" 4 !calls

let test_characterize_invalid () =
  Alcotest.check_raises "samples" (Invalid_argument "Analyzer.characterize: samples < 1")
    (fun () -> ignore (Analyzer.characterize ~probe:(fun () -> [| 1.0 |]) ~samples:0))

let test_classify_empty_db () =
  let analyzer = Analyzer.create (History.create ()) in
  Alcotest.(check bool) "no match" true (Analyzer.classify analyzer [| 1.0 |] = None)

let test_prepare_no_match_falls_back () =
  let analyzer = Analyzer.create (History.create ()) in
  let obj = peak_at [| 60.0; 60.0 |] in
  let prep = Analyzer.prepare analyzer obj ~characteristics:[| 1.0 |] in
  Alcotest.(check bool) "no entry" true (prep.Analyzer.matched = None);
  Alcotest.(check bool) "spread fallback" true (prep.Analyzer.init = Simplex.Init.Spread);
  Alcotest.(check int) "nothing estimated" 0 prep.Analyzer.estimated_vertices

let test_prepare_exact_match_trusts () =
  let obj = peak_at [| 60.0; 60.0 |] in
  let db = History.create () in
  let outcome = Tuner.tune obj in
  let chars = [| 0.8; 0.2 |] in
  ignore (History.add_outcome db ~characteristics:chars outcome);
  let analyzer = Analyzer.create db in
  let prep = Analyzer.prepare analyzer obj ~characteristics:chars in
  Alcotest.(check bool) "matched" true (prep.Analyzer.matched <> None);
  match prep.Analyzer.init with
  | Simplex.Init.Seeded seeds ->
      Alcotest.(check bool) "full simplex" true (List.length seeds >= 3);
      (* Exact match: every seed carries a trusted value. *)
      List.iter
        (fun (_, v) -> Alcotest.(check bool) "trusted" true (v <> None))
        seeds
  | _ -> Alcotest.fail "expected a seeded init"

let test_prepare_similar_match_remeasures () =
  let obj = peak_at [| 60.0; 60.0 |] in
  let db = History.create () in
  let outcome = Tuner.tune obj in
  ignore (History.add_outcome db ~characteristics:[| 0.8; 0.2 |] outcome);
  let analyzer = Analyzer.create db in
  (* Similar but not identical characteristics: configs seed the
     simplex, values are re-measured. *)
  let prep = Analyzer.prepare analyzer obj ~characteristics:[| 0.7; 0.3 |] in
  match prep.Analyzer.init with
  | Simplex.Init.Seeded seeds ->
      List.iter
        (fun (_, v) -> Alcotest.(check bool) "not trusted" true (v = None))
        seeds;
      Alcotest.(check int) "no estimation" 0 prep.Analyzer.estimated_vertices
  | _ -> Alcotest.fail "expected a seeded init"

let test_prepare_estimates_missing_vertices () =
  let obj = peak_at [| 60.0; 60.0 |] in
  let db = History.create () in
  (* Only two distinct configurations in history: the 3-vertex simplex
     needs one estimated vertex. *)
  let chars = [| 0.5 |] in
  let _ =
    History.add db ~characteristics:chars
      ~evaluations:[ ([| 50.0; 50.0 |], 80.0); ([| 60.0; 50.0 |], 90.0) ]
      ()
  in
  let analyzer = Analyzer.create db in
  let prep = Analyzer.prepare analyzer obj ~characteristics:chars in
  Alcotest.(check int) "one vertex estimated" 1 prep.Analyzer.estimated_vertices;
  match prep.Analyzer.init with
  | Simplex.Init.Seeded seeds ->
      Alcotest.(check int) "three vertices" 3 (List.length seeds)
  | _ -> Alcotest.fail "expected a seeded init"

let test_warm_start_faster_than_cold () =
  let obj = peak_at [| 60.0; 60.0 |] in
  let noisy = Objective.with_noise (Rng.create 7) ~level:0.02 obj in
  let options = { Tuner.default_options with Tuner.max_evaluations = 80 } in
  let cold = Tuner.tune ~options noisy in
  let db = History.create () in
  let chars = [| 0.8; 0.2 |] in
  ignore (History.add_outcome db ~characteristics:chars cold);
  let analyzer = Analyzer.create db in
  let warm, prep =
    Analyzer.tune_with_experience ~options analyzer noisy ~characteristics:chars
  in
  Alcotest.(check bool) "experience used" true (prep.Analyzer.matched <> None);
  let reference =
    Objective.worst_of obj [| cold.Tuner.best_performance; warm.Tuner.best_performance |]
  in
  let mc = Tuner.Metrics.of_outcome ~reference obj cold in
  let mw = Tuner.Metrics.of_outcome ~reference obj warm in
  Alcotest.(check bool) "warm start converges no later" true
    (mw.Tuner.Metrics.convergence_iteration <= mc.Tuner.Metrics.convergence_iteration)

let test_tune_with_experience_records () =
  let obj = peak_at [| 40.0; 70.0 |] in
  let db = History.create () in
  let analyzer = Analyzer.create db in
  let _ =
    Analyzer.tune_with_experience
      ~options:{ Tuner.default_options with Tuner.max_evaluations = 40 }
      ~label:"first" analyzer obj ~characteristics:[| 0.1 |]
  in
  Alcotest.(check int) "run recorded" 1 (History.size db);
  Alcotest.(check string) "label kept" "first"
    (List.hd (History.entries db)).History.label

let test_custom_classifier_plugs_in () =
  let db = History.create () in
  let e1 =
    History.add db ~label:"always-me" ~characteristics:[| 0.0 |]
      ~evaluations:[ ([| 1.0; 1.0 |], 1.0) ] ()
  in
  let analyzer = Analyzer.with_classifier (fun _ _ -> Some e1) db in
  match Analyzer.classify analyzer [| 123.0 |] with
  | Some e -> Alcotest.(check string) "custom hit" "always-me" e.History.label
  | None -> Alcotest.fail "custom classifier ignored"

(* ------------------------------------------------------------------ *)
(* The seed pick against the quadratic reference                       *)

(* The reference: [Analyzer.prepare]'s seeded init (without logging and
   telemetry) built with the quadratic pick, which every round
   re-scores each remaining candidate against every chosen seed through
   [Space.distance].  The farthest-first pick must give exactly this. *)
let reference_init obj entry ~characteristics =
  let space = obj.Objective.space in
  let dims = Space.dims space in
  let pool = History.best_evaluations obj entry ~n:max_int in
  let pool =
    let len = List.length pool in
    List.filteri (fun i _ -> 2 * i <= len) pool
  in
  let seeds =
    match pool with
    | [] -> []
    | best :: rest ->
        let dist a b = Space.distance space a b in
        let rec pick chosen remaining =
          if List.length chosen >= dims + 1 || remaining = [] then
            List.rev chosen
          else begin
            let score (c, _) =
              List.fold_left
                (fun acc (s, _) -> Float.min acc (dist c s))
                infinity chosen
            in
            let farthest =
              List.fold_left
                (fun acc cand ->
                  match acc with
                  | None -> Some cand
                  | Some a -> if score cand > score a then Some cand else acc)
                None remaining
            in
            match farthest with
            | None -> List.rev chosen
            | Some cand ->
                pick (cand :: chosen) (List.filter (fun c -> c != cand) remaining)
          end
        in
        pick [ best ] rest
  in
  let exact_match =
    Array.length entry.History.characteristics = Array.length characteristics
    && Harmony_numerics.Stats.euclidean_distance entry.History.characteristics
         characteristics
       < 1e-9
  in
  let trusted =
    List.map
      (fun (c, p) -> (Space.snap space c, if exact_match then Some p else None))
      seeds
  in
  let missing = dims + 1 - List.length trusted in
  let estimated =
    if missing <= 0 || not exact_match then []
    else begin
      let spread = Simplex.Init.vertices Simplex.Init.Spread space in
      let candidates =
        List.filter
          (fun (c, _) ->
            not (List.exists (fun (s, _) -> Space.config_equal c s) trusted))
          spread
      in
      let targets = List.filteri (fun i _ -> i < missing) (List.map fst candidates) in
      let points =
        List.map (fun (c, p) -> (Space.snap space c, p)) entry.History.evaluations
      in
      if points = [] then List.map (fun c -> (c, None)) targets
      else
        List.map (fun (c, p) -> (c, Some p)) (Estimator.fill ~space ~points ~targets ())
    end
  in
  Simplex.Init.Seeded (trusted @ estimated)

(* Bit patterns, so that the comparison is exact. *)
let init_bits = function
  | Simplex.Init.Seeded vertices ->
      Some
        (List.map
           (fun (c, p) -> (Array.map Int64.bits_of_float c, Option.map Int64.bits_of_float p))
           vertices)
  | Simplex.Init.Spread | Simplex.Init.Extremes | Simplex.Init.Around_default _ -> None

let gen_param i =
  let open Gen in
  let* lo = int_range (-20) 20 in
  let* steps = int_range 1 12 in
  let* step = oneofl [ 0.25; 0.5; 1.0; 3.0; 10.0 ] in
  let max_value = float_of_int lo +. (float_of_int steps *. step) in
  return
    (Param.make ~name:(Printf.sprintf "p%d" i) ~min_value:(float_of_int lo) ~max_value
       ~step ~default:(float_of_int lo))

type pick_case = {
  params : Param.t list;
  higher : bool;
  evaluations : (float array * float) list;
  chars : float array;
  query : float array;
}

(* Random spaces of 1-6 parameters; 0-60 evaluations drawn from a small
   set of grid points (so configurations repeat) with performances from
   a small set (so they tie), a few of them off the grid; the query
   repeats the entry's characteristics or moves away from them. *)
let gen_pick_case =
  let open Gen in
  let* dims = int_range 1 6 in
  let* params = flatten_l (List.init dims gen_param) in
  let* higher = bool in
  let* distinct = int_range 1 12 in
  let gen_point =
    flatten_a
      (Array.of_list
         (List.map
            (fun (p : Param.t) ->
              let* k = int_range 0 (Param.num_values p - 1) in
              let* off = frequencyl [ (9, 0.0); (1, p.Param.step /. 3.0) ] in
              return (Param.value_at p k +. off))
            params))
  in
  let* points = array_size (return distinct) gen_point in
  let* n_evals = int_range 0 60 in
  let* evaluations =
    list_size (return n_evals)
      (let* k = int_range 0 (distinct - 1) in
       let* perf = oneofl [ 1.0; 2.0; 2.0; 3.0; 5.0; 8.0 ] in
       return (Array.copy points.(k), perf))
  in
  let* chars = array_size (return 2) (float_range 0.0 1.0) in
  let* exact = bool in
  let query = if exact then Array.copy chars else Array.map (fun v -> v +. 0.25) chars in
  return { params; higher; evaluations; chars; query }

let print_pick_case c =
  Printf.sprintf "dims=%d higher=%b evals=[%s] exact=%b" (List.length c.params) c.higher
    (String.concat "; "
       (List.map
          (fun (cfg, p) ->
            Printf.sprintf "(%s)->%g"
              (String.concat "," (Array.to_list (Array.map string_of_float cfg)))
              p)
          c.evaluations))
    (Float.equal c.chars.(0) c.query.(0))

let pick_objective c =
  Objective.create ~space:(Space.create c.params)
    ~direction:(if c.higher then Objective.Higher_is_better else Objective.Lower_is_better)
    (fun _ -> 0.0)

let prop_pick_matches_reference =
  QCheck2.Test.make ~name:"seed pick equals the quadratic reference" ~count:500
    ~print:print_pick_case gen_pick_case (fun c ->
      let obj = pick_objective c in
      let db = History.create () in
      let entry =
        History.add db ~label:"e" ~characteristics:c.chars ~evaluations:c.evaluations ()
      in
      let prep = Analyzer.prepare (Analyzer.create db) obj ~characteristics:c.query in
      let reference = reference_init obj entry ~characteristics:c.query in
      (match prep.Analyzer.matched with
      | Some e -> e.History.id = entry.History.id
      | None -> false)
      && init_bits prep.Analyzer.init = init_bits reference)

(* Two candidates at the same distance from the best point (exactly:
   the normalized coordinates 0.25, 0.5 and 0.75 are binary
   fractions): the one earlier in the best-first pool wins, whichever
   side it lies on. *)
let test_pick_tie_goes_to_earlier () =
  let space = Space.create [ Param.int_range ~name:"x" ~lo:0 ~hi:8 ~default:0 () ] in
  let obj = Objective.create ~space ~direction:Objective.Higher_is_better (fun _ -> 0.0) in
  let seeds ~left ~right =
    let db = History.create () in
    let evaluations =
      [ ([| 4.0 |], 10.0); ([| 2.0 |], left); ([| 6.0 |], right); ([| 0.0 |], 1.0);
        ([| 8.0 |], 0.0) ]
    in
    let entry = History.add db ~characteristics:[| 1.0 |] ~evaluations () in
    let prep = Analyzer.prepare (Analyzer.create db) obj ~characteristics:[| 1.0 |] in
    let reference = reference_init obj entry ~characteristics:[| 1.0 |] in
    Alcotest.(check bool) "equals the reference" true
      (init_bits prep.Analyzer.init = init_bits reference);
    match prep.Analyzer.init with
    | Simplex.Init.Seeded vs -> List.map (fun (c, _) -> c.(0)) vs
    | Simplex.Init.Spread | Simplex.Init.Extremes | Simplex.Init.Around_default _ ->
        Alcotest.fail "expected a seeded init"
  in
  Alcotest.(check (list (float 0.0))) "2 is earlier" [ 4.0; 2.0 ] (seeds ~left:9.0 ~right:8.0);
  Alcotest.(check (list (float 0.0))) "6 is earlier" [ 4.0; 6.0 ] (seeds ~left:8.0 ~right:9.0)

(* ------------------------------------------------------------------ *)
(* Experience recorded in another parameter space                      *)

let cold_starts telemetry =
  List.length
    (List.filter
       (function
         | Telemetry.Instant { name = "history.cold-start"; _ } -> true
         | Telemetry.Instant _ | Telemetry.Begin _ | Telemetry.End _ -> false)
       (Telemetry.events telemetry))

let test_prepare_skips_other_arity () =
  let obj = peak_at [| 60.0; 60.0 |] in
  let db = History.create () in
  let chars = [| 0.5 |] in
  let mixed =
    [ ([| 10.0; 20.0; 30.0 |], 99.0); ([| 50.0; 50.0 |], 80.0); ([| 60.0; 50.0 |], 90.0) ]
  in
  ignore (History.add db ~characteristics:chars ~evaluations:mixed ());
  let prep = Analyzer.prepare (Analyzer.create db) obj ~characteristics:chars in
  Alcotest.(check bool) "matched" true (prep.Analyzer.matched <> None);
  (match prep.Analyzer.init with
  | Simplex.Init.Seeded ((best, _) :: _) ->
      Alcotest.(check (array (float 0.0))) "best of the 2-D evaluations" [| 60.0; 50.0 |] best
  | Simplex.Init.Seeded [] | Simplex.Init.Spread | Simplex.Init.Extremes
  | Simplex.Init.Around_default _ ->
      Alcotest.fail "expected a seeded init");
  let db = History.create () in
  ignore
    (History.add db ~characteristics:chars
       ~evaluations:[ ([| 10.0; 20.0; 30.0 |], 99.0) ] ());
  let telemetry = Telemetry.create () in
  let prep =
    Analyzer.prepare ~telemetry ~fallback:Simplex.Init.Extremes (Analyzer.create db) obj
      ~characteristics:chars
  in
  Alcotest.(check bool) "no usable evaluation: no match" true (prep.Analyzer.matched = None);
  Alcotest.(check bool) "fallback init" true (prep.Analyzer.init = Simplex.Init.Extremes);
  Alcotest.(check int) "cold-start instant" 1 (cold_starts telemetry)

(* A run projected onto the top 3 parameters and a full-space run share
   characteristics, in either order: the second run must not reuse the
   first's experience, and must not raise. *)
let test_session_across_spaces () =
  let chars = Array.map snd Ws.Tpcw.shopping.Ws.Tpcw.weights in
  let options = { Tuner.default_options with Tuner.max_evaluations = 30 } in
  let run order =
    let db = History.create () in
    let objective = Ws.Model.objective ~mix:Ws.Tpcw.shopping () in
    let session = Session.create ~objective ~db ~options () in
    let tune top_n = Session.tune ?top_n ~characteristics:chars session in
    let first, second = order in
    let r1 = tune first in
    let r2 = tune second in
    Alcotest.(check bool) "first run is cold" false r1.Session.used_experience;
    Alcotest.(check bool) "second run is cold too" false r2.Session.used_experience;
    Alcotest.(check int) "both recorded" 2 (History.size db)
  in
  run (Some 3, None);
  run (None, Some 3)

let suite =
  [
    Alcotest.test_case "characterize averages" `Quick test_characterize_averages;
    Alcotest.test_case "characterize invalid" `Quick test_characterize_invalid;
    Alcotest.test_case "classify empty db" `Quick test_classify_empty_db;
    Alcotest.test_case "prepare no match" `Quick test_prepare_no_match_falls_back;
    Alcotest.test_case "prepare exact match trusts" `Quick test_prepare_exact_match_trusts;
    Alcotest.test_case "prepare similar re-measures" `Quick test_prepare_similar_match_remeasures;
    Alcotest.test_case "prepare estimates missing" `Quick test_prepare_estimates_missing_vertices;
    Alcotest.test_case "warm start faster" `Quick test_warm_start_faster_than_cold;
    Alcotest.test_case "tune with experience records" `Quick test_tune_with_experience_records;
    Alcotest.test_case "custom classifier" `Quick test_custom_classifier_plugs_in;
    to_alcotest prop_pick_matches_reference;
    Alcotest.test_case "pick tie goes to the earlier" `Quick test_pick_tie_goes_to_earlier;
    Alcotest.test_case "prepare skips other arity" `Quick test_prepare_skips_other_arity;
    Alcotest.test_case "session across spaces" `Quick test_session_across_spaces;
  ]

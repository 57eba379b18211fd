open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space
module Rng = Harmony_numerics.Rng

let space =
  Space.create [ Param.int_range ~name:"x" ~lo:0 ~hi:10 ~default:5 () ]

let higher = Objective.create ~space ~direction:Objective.Higher_is_better (fun c -> c.(0))
let lower = Objective.create ~space ~direction:Objective.Lower_is_better (fun c -> c.(0))

let test_better () =
  Alcotest.(check bool) "higher" true (Objective.better higher 2.0 1.0);
  Alcotest.(check bool) "higher strict" false (Objective.better higher 1.0 1.0);
  Alcotest.(check bool) "lower" true (Objective.better lower 1.0 2.0)

let test_best_worst () =
  let vals = [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check (float 1e-12)) "worst high" 1.0 (Objective.worst_of higher vals);
  Alcotest.(check (float 1e-12)) "worst low" 3.0 (Objective.worst_of lower vals)

let test_best_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Objective.worst_of: empty array")
    (fun () -> ignore (Objective.worst_of higher [||]))

let test_eval_default () =
  Alcotest.(check (float 1e-12)) "default" 5.0
    (higher.Objective.eval (Space.defaults higher.Objective.space))

let test_with_noise_bounds () =
  let noisy = Objective.with_noise (Rng.create 3) ~level:0.25 higher in
  for _ = 1 to 200 do
    let v = noisy.Objective.eval [| 8.0 |] in
    Alcotest.(check bool) "within 25%" true (v >= 6.0 && v < 10.0)
  done

let test_with_noise_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Objective.with_noise: negative level")
    (fun () -> ignore (Objective.with_noise (Rng.create 1) ~level:(-0.1) higher))

let test_with_snap () =
  let snapped = Testbed.with_snap higher in
  Alcotest.(check (float 1e-12)) "snapped eval" 7.0 (snapped.Objective.eval [| 7.4 |])

let test_with_cache () =
  let count = ref 0 in
  let counted =
    Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
        incr count;
        c.(0))
  in
  let cached = Objective.cached ~freeze_noise:true counted in
  Alcotest.(check (float 1e-12)) "first" 3.0 (cached.Objective.eval [| 3.0 |]);
  Alcotest.(check (float 1e-12)) "repeat" 3.0 (cached.Objective.eval [| 3.0 |]);
  Alcotest.(check (float 1e-12)) "other" 5.0 (cached.Objective.eval [| 5.0 |]);
  Alcotest.(check int) "two real measurements" 2 !count

let test_with_cache_freezes_noise () =
  let noisy = Objective.with_noise (Harmony_numerics.Rng.create 1) ~level:0.25 higher in
  let cached = Objective.cached ~freeze_noise:true noisy in
  Alcotest.(check (float 1e-12)) "repeatable under noise"
    (cached.Objective.eval [| 8.0 |])
    (cached.Objective.eval [| 8.0 |])

let counted_objective () =
  let count = ref 0 in
  let obj =
    Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
        incr count;
        c.(0))
  in
  (count, obj)

let check_stats ?(faults = 0) ?(retries = 0) label obj ~hits ~misses =
  match Objective.stats obj with
  | None -> Alcotest.fail (label ^ ": expected stats on a cached objective")
  | Some s ->
      Alcotest.(check int) (label ^ " hits") hits s.Objective.hits;
      Alcotest.(check int) (label ^ " misses") misses s.Objective.misses;
      Alcotest.(check int) (label ^ " evals") (hits + misses) s.Objective.evals;
      Alcotest.(check int) (label ^ " faults") faults s.Objective.faults;
      Alcotest.(check int) (label ^ " retries") retries s.Objective.retries

let test_cached_counters () =
  let count, counted = counted_objective () in
  let cached = Objective.cached counted in
  check_stats "fresh" cached ~hits:0 ~misses:0;
  Alcotest.(check (float 1e-12)) "first" 3.0 (cached.Objective.eval [| 3.0 |]);
  Alcotest.(check (float 1e-12)) "repeat" 3.0 (cached.Objective.eval [| 3.0 |]);
  Alcotest.(check (float 1e-12)) "other" 5.0 (cached.Objective.eval [| 5.0 |]);
  Alcotest.(check (float 1e-12)) "repeat other" 5.0 (cached.Objective.eval [| 5.0 |]);
  Alcotest.(check int) "two real measurements" 2 !count;
  check_stats "after four evals" cached ~hits:2 ~misses:2

let test_cached_rejects_noisy () =
  let noisy = Objective.with_noise (Rng.create 1) ~level:0.25 higher in
  Alcotest.(check bool) "marked noisy" true (Objective.noisy noisy);
  Alcotest.(check bool) "raises" true
    (match Objective.cached noisy with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cached_freeze_noise_explicit () =
  let noisy = Objective.with_noise (Rng.create 1) ~level:0.25 higher in
  let cached = Objective.cached ~freeze_noise:true noisy in
  Alcotest.(check (float 1e-12)) "frozen draw repeats"
    (cached.Objective.eval [| 8.0 |])
    (cached.Objective.eval [| 8.0 |]);
  check_stats "one miss one hit" cached ~hits:1 ~misses:1

let test_noise_after_cache_stays_live () =
  (* The enforced ordering for live noise: memoize the deterministic
     base, perturb on top.  Draws differ but the base is measured
     once. *)
  let count, counted = counted_objective () in
  let cached = Objective.cached counted in
  let noisy = Objective.with_noise (Rng.create 7) ~level:0.25 cached in
  let a = noisy.Objective.eval [| 8.0 |] in
  let b = noisy.Objective.eval [| 8.0 |] in
  Alcotest.(check bool) "noise still live" true (a <> b);
  Alcotest.(check int) "base measured once" 1 !count;
  check_stats "cache hit under live noise" noisy ~hits:1 ~misses:1

let test_cached_under_snap () =
  (* Snap-then-cache: off-grid proposals that land on the same grid
     point share one memo entry.  (Cache-then-snap would key on the
     raw proposal and re-measure each variant.) *)
  let count, counted = counted_objective () in
  let snapped = Testbed.with_snap (Objective.cached counted) in
  Alcotest.(check (float 1e-12)) "snapped eval" 7.0 (snapped.Objective.eval [| 7.4 |]);
  Alcotest.(check (float 1e-12)) "same grid point" 7.0 (snapped.Objective.eval [| 6.8 |]);
  Alcotest.(check int) "one real measurement" 1 !count;
  check_stats "off-grid variants share the entry" snapped ~hits:1 ~misses:1

let test_fault_profile_invalid () =
  Alcotest.(check bool) "rate > 1 rejected" true
    (match Objective.fault_profile 1.5 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative rate rejected" true
    (match Objective.fault_profile (-0.1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_with_faults_marks_noisy () =
  let faulty = Objective.with_faults ~seed:1 higher in
  Alcotest.(check bool) "noisy" true (Objective.noisy faulty);
  (* The memo layer refuses to freeze a possibly-corrupt draw. *)
  Alcotest.(check bool) "cached refuses" true
    (match Objective.cached faulty with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_with_faults_pure_passthrough () =
  (* All rates zero: the wrapper is the identity on values. *)
  let faulty =
    Objective.with_faults ~rates:(Objective.fault_profile 0.0) ~seed:1 higher
  in
  Alcotest.(check (float 1e-12)) "value unchanged" 4.0
    (faulty.Objective.eval [| 4.0 |])

(* The satellite fix: each physical re-measurement counts as a miss,
   and the faults/retries counters surface through the memo layer. *)
let test_stats_faults_and_retries () =
  let count, counted = counted_objective () in
  let tries : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let flaky =
    {
      counted with
      Objective.eval =
        (fun c ->
          let key = Space.config_key c in
          let n = Option.value (Hashtbl.find_opt tries key) ~default:0 in
          Hashtbl.replace tries key (n + 1);
          if n = 0 then
            raise (Objective.Measurement_failed Objective.Transient);
          counted.Objective.eval c);
    }
  in
  let robust, _ = Measure.robust flaky in
  let cached = Objective.cached ~freeze_noise:true robust in
  Alcotest.(check (float 1e-12)) "first" 3.0 (cached.Objective.eval [| 3.0 |]);
  Alcotest.(check (float 1e-12)) "repeat" 3.0 (cached.Objective.eval [| 3.0 |]);
  Alcotest.(check int) "base measured once" 1 !count;
  (* One memo hit; the single memo miss physically cost two attempts
     (one faulted, one retried). *)
  check_stats "retry accounting" cached ~hits:1 ~misses:2 ~faults:1 ~retries:1

let test_negate () =
  let neg = Testbed.negate higher in
  Alcotest.(check bool) "direction flipped" true
    (neg.Objective.direction = Objective.Lower_is_better);
  Alcotest.(check (float 1e-12)) "value negated" (-4.0) (neg.Objective.eval [| 4.0 |]);
  (* Double negation restores preferences. *)
  let nn = Testbed.negate neg in
  Alcotest.(check bool) "same winner" true
    (Objective.better nn (nn.Objective.eval [| 9.0 |]) (nn.Objective.eval [| 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Batch evaluation                                                    *)

module Pool = Harmony_parallel.Pool

let bits = Array.map Int64.bits_of_float

let check_bits msg expected got =
  Alcotest.(check (array int64)) msg (bits expected) (bits got)

(* The stack a tuner actually batches: outlier-injecting faults
   (deterministic per (seed, config, attempt)) under a freeze-noise
   memo, snapped and negated.  Built fresh per run so the memo tables
   of the sequential and batched runs never share state. *)
let stacked () =
  let count = ref 0 in
  let base =
    Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
        incr count;
        (c.(0) *. 3.0) +. 1.0)
  in
  let rates =
    {
      (Objective.fault_profile 0.0) with
      Objective.outlier = 0.3;
      outlier_magnitude = 4.0;
    }
  in
  let faulty = Objective.with_faults ~rates ~seed:9 base in
  let obj =
    Testbed.negate
      (Testbed.with_snap (Objective.cached ~freeze_noise:true faulty))
  in
  (obj, count)

let batch_configs =
  [|
    [| 1.0 |]; [| 4.0 |]; [| 1.0 |]; [| 7.0 |];
    [| 4.0 |]; [| 2.0 |]; [| 1.0 |]; [| 9.0 |];
  |]

let test_eval_batch_identity () =
  let seq_obj, seq_count = stacked () in
  let expected = Array.map seq_obj.Objective.eval batch_configs in
  List.iter
    (fun domains ->
      let obj, count = stacked () in
      let got =
        Pool.with_pool ~domains (fun pool ->
            Objective.eval_batch ~pool obj batch_configs)
      in
      check_bits
        (Printf.sprintf "identical at %d domains" domains)
        expected got;
      Alcotest.(check int) "same physical evaluations" !seq_count !count)
    [ 1; 4 ];
  let obj, _ = stacked () in
  check_bits "identical without a pool" expected
    (Objective.eval_batch obj batch_configs);
  Alcotest.(check int) "empty batch" 0
    (Array.length (Objective.eval_batch seq_obj [||]))

let test_stats_under_batching () =
  (* 8 evaluations over 5 distinct configurations: the in-batch
     duplicates must count as memo hits exactly as the sequential
     fold counts them. *)
  let seq_obj, _ = stacked () in
  ignore (Array.map seq_obj.Objective.eval batch_configs : float array);
  check_stats "sequential fold" seq_obj ~hits:3 ~misses:5;
  let obj, _ = stacked () in
  ignore
    (Pool.with_pool ~domains:4 (fun pool ->
         Objective.eval_batch ~pool obj batch_configs)
      : float array);
  check_stats "one batch" obj ~hits:3 ~misses:5;
  (* A second identical batch answers entirely from the memo. *)
  ignore (Objective.eval_batch obj batch_configs : float array);
  check_stats "repeat batch" obj ~hits:11 ~misses:5

(* batch_by_key groups occurrences by configuration key: one
   dispatcher task per distinct configuration, groups in
   first-occurrence order, input order within each. *)
let test_group_by_key () =
  let tasks = ref 0 and order = ref [] in
  let disp =
    { Objective.run = (fun f xs -> tasks := Array.length xs; Array.map f xs) }
  in
  let eval c =
    let i = ref 0 in
    while batch_configs.(!i) != c do incr i done;
    order := !i :: !order;
    c.(0)
  in
  ignore (Objective.batch_by_key higher eval disp batch_configs : float array);
  Alcotest.(check int) "distinct groups" 5 !tasks;
  Alcotest.(check (list int))
    "grouped indices"
    [ 0; 2; 6; 1; 4; 3; 5; 7 ]
    (List.rev !order)

let test_batch_noise_stays_sequential () =
  (* A shared-stream noisy objective must evaluate in input order even
     through eval_batch (the draws come off one RNG): batching it with
     a pool must not change a single byte. *)
  let run domains =
    let noisy = Objective.with_noise (Rng.create 11) ~level:0.2 higher in
    match domains with
    | None -> Array.map noisy.Objective.eval batch_configs
    | Some d ->
        Pool.with_pool ~domains:d (fun pool ->
            Objective.eval_batch ~pool noisy batch_configs)
  in
  let expected = run None in
  check_bits "1 domain" expected (run (Some 1));
  check_bits "4 domains" expected (run (Some 4))

(* Random stacks of every combinator, batched three ways: the
   sequential fold, a dispatcher that runs its tasks last to first
   (then re-raises the first exception by index, as the pool does),
   and a 4-domain pool.  Every batch must give the same bits.  A stack
   that raises leaves its fault counters wherever the schedule stopped,
   so the comparison ends at the first raised batch. *)
type layer = Noise of int | Faults of int | Robust | Cache | Snap | Negate

let show_layer = function
  | Noise s -> Printf.sprintf "noise %d" s
  | Faults s -> Printf.sprintf "faults %d" s
  | Robust -> "robust"
  | Cache -> "cached"
  | Snap -> "snap"
  | Negate -> "negate"

let build layers =
  let base =
    Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
        (c.(0) *. 3.0) +. 1.0)
  in
  List.fold_left
    (fun obj layer ->
      match layer with
      | Noise seed -> Objective.with_noise (Rng.create seed) ~level:0.2 obj
      | Faults seed ->
          Objective.with_faults ~rates:(Objective.fault_profile 0.3) ~seed obj
      | Robust -> fst (Measure.robust obj)
      | Cache -> Objective.cached ~freeze_noise:true obj
      | Snap -> Testbed.with_snap obj
      | Negate -> Testbed.negate obj)
    base layers

let reverse_dispatcher =
  {
    Objective.run =
      (fun f xs ->
        let n = Array.length xs in
        let out = Array.make n (Ok 0.0) in
        for i = n - 1 downto 0 do
          out.(i) <- (match f xs.(i) with v -> Ok v | exception e -> Error e)
        done;
        Array.map (function Ok v -> v | Error e -> raise e) out);
  }

let outcomes batch_of layers batches =
  let obj = build layers in
  let rec go = function
    | [] -> []
    | b :: rest -> (
        match batch_of obj b with
        | values -> Ok (Array.to_list (bits values)) :: go rest
        | exception e -> [ Error (Printexc.to_string e) ])
  in
  go batches

let gen_layer =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Noise s) (int_bound 99);
        map (fun s -> Faults s) (int_bound 99);
        oneofl [ Robust; Cache; Snap; Negate ];
      ])

(* Few distinct values, some off the grid, so batches repeat
   configurations and snapping merges others. *)
let gen_batch =
  QCheck.Gen.(
    map Array.of_list
      (list_size (1 -- 8)
         (map (fun v -> [| v |]) (oneofl [ 1.0; 2.0; 4.0; 4.4; 7.0 ]))))

let qcheck_stacks_batch_like_the_fold =
  QCheck.Test.make ~count:150 ~name:"stacked batches match the fold"
    (QCheck.make
       ~print:(fun (layers, batches) ->
         Printf.sprintf "[%s] over %d batches"
           (String.concat "; " (List.map show_layer layers))
           (List.length batches))
       QCheck.Gen.(
         pair (list_size (1 -- 5) gen_layer) (list_size (1 -- 4) gen_batch)))
    (fun (layers, batches) ->
      let expected =
        outcomes (fun obj b -> Objective.eval_batch obj b) layers batches
      in
      let reversed =
        outcomes
          (fun obj b -> Objective.run_batch obj reverse_dispatcher b)
          layers batches
      in
      let pooled =
        Pool.with_pool ~domains:4 (fun pool ->
            outcomes (fun obj b -> Objective.eval_batch ~pool obj b) layers
              batches)
      in
      expected = reversed && expected = pooled)

let suite =
  [
    Alcotest.test_case "better" `Quick test_better;
    Alcotest.test_case "best worst" `Quick test_best_worst;
    Alcotest.test_case "best empty" `Quick test_best_empty;
    Alcotest.test_case "eval default" `Quick test_eval_default;
    Alcotest.test_case "noise bounds" `Quick test_with_noise_bounds;
    Alcotest.test_case "noise invalid" `Quick test_with_noise_invalid;
    Alcotest.test_case "with snap" `Quick test_with_snap;
    Alcotest.test_case "with cache" `Quick test_with_cache;
    Alcotest.test_case "cache freezes noise" `Quick test_with_cache_freezes_noise;
    Alcotest.test_case "cached counters" `Quick test_cached_counters;
    Alcotest.test_case "cached rejects noisy" `Quick test_cached_rejects_noisy;
    Alcotest.test_case "freeze noise explicit" `Quick test_cached_freeze_noise_explicit;
    Alcotest.test_case "noise after cache live" `Quick test_noise_after_cache_stays_live;
    Alcotest.test_case "cached under snap" `Quick test_cached_under_snap;
    Alcotest.test_case "fault profile invalid" `Quick test_fault_profile_invalid;
    Alcotest.test_case "with_faults marks noisy" `Quick test_with_faults_marks_noisy;
    Alcotest.test_case "with_faults passthrough" `Quick test_with_faults_pure_passthrough;
    Alcotest.test_case "stats faults and retries" `Quick test_stats_faults_and_retries;
    Alcotest.test_case "negate" `Quick test_negate;
    Alcotest.test_case "eval_batch identity" `Quick test_eval_batch_identity;
    Alcotest.test_case "stats under batching" `Quick test_stats_under_batching;
    Alcotest.test_case "group_by_key" `Quick test_group_by_key;
    Alcotest.test_case "batched noise stays sequential" `Quick
      test_batch_noise_stays_sequential;
    QCheck_alcotest.to_alcotest qcheck_stacks_batch_like_the_fold;
  ]

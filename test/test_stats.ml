module Stats = Harmony_numerics.Stats

let feq = Alcotest.(check (float 1e-9))

let test_mean () = feq "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])
let test_mean_single () = feq "single" 7.0 (Stats.mean [| 7.0 |])

let test_mean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty array")
    (fun () -> ignore (Stats.mean [||]))

let test_variance () =
  (* Sample variance of 2,4,4,4,5,5,7,9 is 32/7. *)
  feq "variance" (32.0 /. 7.0) (Stats.variance [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |])

let test_variance_short () =
  feq "one element" 0.0 (Stats.variance [| 3.0 |]);
  feq "empty" 0.0 (Stats.variance [||])

let test_stddev () =
  feq "stddev" (sqrt (32.0 /. 7.0)) (Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |])

let test_min_max () =
  feq "min" (-2.0) (Stats.min [| 3.0; -2.0; 5.0 |]);
  feq "max" 5.0 (Stats.max [| 3.0; -2.0; 5.0 |])

let test_median_odd () = feq "odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])
let test_median_even () = feq "even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_percentile_endpoints () =
  let a = [| 10.0; 20.0; 30.0 |] in
  feq "p0" 10.0 (Stats.percentile a 0.0);
  feq "p100" 30.0 (Stats.percentile a 100.0);
  feq "p50" 20.0 (Stats.percentile a 50.0)

let test_percentile_interpolates () =
  feq "p25" 1.5 (Stats.percentile [| 1.0; 2.0; 3.0 |] 25.0)

let test_percentile_invalid () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile [| 1.0 |] 101.0))

let test_percentile_sorted () =
  (* On presorted input the no-copy variant and the copying one must
     agree bitwise. *)
  let a = [| 1.0; 2.0; 3.0; 10.0; 30.0 |] in
  List.iter
    (fun p ->
      Alcotest.(check int64)
        (Printf.sprintf "p%g" p)
        (Int64.bits_of_float (Stats.percentile a p))
        (Int64.bits_of_float (Stats.percentile_sorted a p)))
    [ 0.0; 25.0; 50.0; 75.0; 95.0; 100.0 ]

let test_sort_floatarray () =
  let values = [| 3.0; -1.0; 7.5; 0.0; 7.5; 2.25; -8.0 |] in
  let fa = Float.Array.of_list (Array.to_list values) in
  Stats.sort_floatarray fa;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  Array.iteri
    (fun i v -> feq (Printf.sprintf "slot %d" i) v (Float.Array.get fa i))
    sorted;
  (* A [len] prefix sorts in place and leaves the tail alone. *)
  let fa = Float.Array.of_list [ 5.0; 1.0; 3.0; 99.0 ] in
  Stats.sort_floatarray ~len:3 fa;
  feq "prefix 0" 1.0 (Float.Array.get fa 0);
  feq "prefix 1" 3.0 (Float.Array.get fa 1);
  feq "prefix 2" 5.0 (Float.Array.get fa 2);
  feq "tail untouched" 99.0 (Float.Array.get fa 3)

let test_percentile_sorted_floatarray () =
  let a = [| 1.0; 2.0; 3.0; 10.0; 30.0 |] in
  let fa = Float.Array.of_list (Array.to_list a) in
  List.iter
    (fun p ->
      Alcotest.(check int64)
        (Printf.sprintf "p%g" p)
        (Int64.bits_of_float (Stats.percentile a p))
        (Int64.bits_of_float (Stats.percentile_sorted_floatarray fa p)))
    [ 0.0; 25.0; 50.0; 95.0; 100.0 ];
  (* The prefix variant ignores values beyond [len]. *)
  let fa = Float.Array.of_list [ 1.0; 2.0; 3.0; 1000.0 ] in
  feq "prefix p100" 3.0 (Stats.percentile_sorted_floatarray ~len:3 fa 100.0)

let prop_sort_floatarray_matches_array_sort =
  QCheck2.Test.make ~name:"sort_floatarray matches Array.sort" ~count:300
    QCheck2.Gen.(list_size (int_range 0 60) (float_range (-1e6) 1e6))
    (fun values ->
      let reference = Array.of_list values in
      Array.sort compare reference;
      let fa = Float.Array.of_list values in
      Stats.sort_floatarray fa;
      let ok = ref true in
      Array.iteri
        (fun i v ->
          if not (Float.equal v (Float.Array.get fa i)) then ok := false)
        reference;
      !ok)

let test_normalize () =
  Alcotest.(check (array (float 1e-9)))
    "normalize" [| 0.0; 0.5; 1.0 |]
    (Stats.normalize [| 2.0; 4.0; 6.0 |])

let test_normalize_constant () =
  Alcotest.(check (array (float 1e-9)))
    "constant" [| 0.0; 0.0 |]
    (Stats.normalize [| 3.0; 3.0 |])

let test_rescale () =
  Alcotest.(check (array (float 1e-9)))
    "rescale" [| 1.0; 25.5; 50.0 |]
    (Stats.rescale ~lo:1.0 ~hi:50.0 [| 0.0; 0.5; 1.0 |])

let test_histogram_counts () =
  let h = Stats.histogram ~buckets:5 ~lo:0.0 ~hi:10.0 [| 0.5; 1.5; 2.5; 9.9; 10.0 |] in
  Alcotest.(check (array int)) "counts" [| 2; 1; 0; 0; 2 |] h

let test_histogram_clamps () =
  let h = Stats.histogram ~buckets:2 ~lo:0.0 ~hi:1.0 [| -5.0; 5.0 |] in
  Alcotest.(check (array int)) "clamped" [| 1; 1 |] h

let test_histogram_fractions () =
  let h = Stats.histogram_fractions ~buckets:2 ~lo:0.0 ~hi:1.0 [| 0.1; 0.2; 0.9; 0.8 |] in
  Alcotest.(check (array (float 1e-9))) "fractions" [| 0.5; 0.5 |] h

let test_histogram_invalid () =
  Alcotest.check_raises "no buckets" (Invalid_argument "Stats.histogram: buckets <= 0")
    (fun () -> ignore (Stats.histogram ~buckets:0 ~lo:0.0 ~hi:1.0 [||]))

let test_pearson_perfect () =
  feq "positive" 1.0 (Stats.pearson [| 1.0; 2.0; 3.0 |] [| 2.0; 4.0; 6.0 |]);
  feq "negative" (-1.0) (Stats.pearson [| 1.0; 2.0; 3.0 |] [| 3.0; 2.0; 1.0 |])

let test_pearson_constant () =
  feq "constant side" 0.0 (Stats.pearson [| 1.0; 1.0; 1.0 |] [| 1.0; 2.0; 3.0 |])

let test_distances () =
  feq "euclidean" 5.0 (Stats.euclidean_distance [| 0.0; 0.0 |] [| 3.0; 4.0 |]);
  feq "chebyshev" 4.0 (Stats.chebyshev_distance [| 0.0; 0.0 |] [| 3.0; 4.0 |])

let test_distance_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Stats.euclidean_distance: length mismatch") (fun () ->
      ignore (Stats.euclidean_distance [| 1.0 |] [| 1.0; 2.0 |]))

(* Property tests *)

let float_array = QCheck2.Gen.(array_size (int_range 1 40) (float_range (-1e6) 1e6))

let prop_mean_bounded =
  QCheck2.Test.make ~name:"mean between min and max" ~count:200 float_array
    (fun a ->
      let m = Stats.mean a in
      m >= Stats.min a -. 1e-6 && m <= Stats.max a +. 1e-6)

let prop_normalize_range =
  QCheck2.Test.make ~name:"normalize lands in [0,1]" ~count:200 float_array
    (fun a ->
      Array.for_all (fun v -> v >= -1e-9 && v <= 1.0 +. 1e-9) (Stats.normalize a))

let prop_histogram_total =
  QCheck2.Test.make ~name:"histogram preserves count" ~count:200 float_array
    (fun a ->
      let h = Stats.histogram ~buckets:7 ~lo:(-1e6) ~hi:1e6 a in
      Array.fold_left ( + ) 0 h = Array.length a)

let prop_variance_nonneg =
  QCheck2.Test.make ~name:"variance nonnegative" ~count:200 float_array
    (fun a -> Stats.variance a >= 0.0)

(* The distance kernels against closure-based reference versions:
   results must agree bit for bit, NaN payloads, signed zeros and
   infinities included, and a length mismatch must raise the same
   [Invalid_argument]. *)
let reference_chebyshev a b =
  if Array.length a <> Array.length b then
    invalid_arg "Stats.chebyshev_distance: length mismatch";
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
  !d

let reference_euclidean a b =
  if Array.length a <> Array.length b then
    invalid_arg "Stats.euclidean_distance: length mismatch";
  let s = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. b.(i) in
      s := !s +. (d *. d))
    a;
  sqrt !s

(* NaNs of both signs and two payloads, signed zeros, infinities, and
   values whose differences are exactly 1e-9 or one ulp past it. *)
let special_floats =
  [
    Float.nan; Float.neg Float.nan; Int64.float_of_bits 0x7ff0_0000_0000_0001L;
    Float.infinity; Float.neg_infinity; 0.0; -0.0; 1e-9; Float.succ 1e-9;
    Float.pred 1e-9; -1e-9; 1.0; Float.max_float; Float.min_float;
  ]

let gen_kernel_pair =
  let open QCheck2.Gen in
  let value = frequency [ (3, oneofl special_floats); (2, float_range (-10.0) 10.0) ] in
  let* n = int_range 0 12 in
  let* a = array_size (return n) value in
  let* b =
    flatten_a
      (Array.map
         (fun x ->
           frequency
             [
               (3, return x);
               (1, map (fun d -> x +. d) (oneofl [ 1e-9; -1e-9; 1e-12 ]));
               (3, value);
             ])
         a)
  in
  let* mismatch = frequencyl [ (9, false); (1, true) ] in
  return (a, if mismatch then Array.append b [| 0.0 |] else b)

let outcome f a b =
  match f a b with
  | v -> Ok (Int64.bits_of_float v)
  | exception Invalid_argument msg -> Error msg

let print_kernel_pair (a, b) =
  let show v = Printf.sprintf "%h" v in
  Printf.sprintf "[%s] [%s]"
    (String.concat "; " (Array.to_list (Array.map show a)))
    (String.concat "; " (Array.to_list (Array.map show b)))

let prop_distances_match_reference =
  QCheck2.Test.make ~name:"distances bit-identical to the closure reference"
    ~count:2000 ~print:print_kernel_pair gen_kernel_pair (fun (a, b) ->
      outcome Stats.euclidean_distance a b = outcome reference_euclidean a b
      && outcome Stats.chebyshev_distance a b = outcome reference_chebyshev a b
      && outcome Stats.euclidean_distance b a = outcome reference_euclidean b a
      && outcome Stats.chebyshev_distance b a = outcome reference_chebyshev b a)

let test_chebyshev_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Stats.chebyshev_distance: length mismatch") (fun () ->
      ignore (Stats.chebyshev_distance [| 1.0; 2.0 |] [| 1.0 |]))

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "mean single" `Quick test_mean_single;
    Alcotest.test_case "mean empty" `Quick test_mean_empty;
    Alcotest.test_case "variance" `Quick test_variance;
    Alcotest.test_case "variance short" `Quick test_variance_short;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "min max" `Quick test_min_max;
    Alcotest.test_case "median odd" `Quick test_median_odd;
    Alcotest.test_case "median even" `Quick test_median_even;
    Alcotest.test_case "percentile endpoints" `Quick test_percentile_endpoints;
    Alcotest.test_case "percentile interpolates" `Quick test_percentile_interpolates;
    Alcotest.test_case "percentile invalid" `Quick test_percentile_invalid;
    Alcotest.test_case "percentile sorted" `Quick test_percentile_sorted;
    Alcotest.test_case "sort floatarray" `Quick test_sort_floatarray;
    Alcotest.test_case "percentile sorted floatarray" `Quick
      test_percentile_sorted_floatarray;
    Alcotest.test_case "normalize" `Quick test_normalize;
    Alcotest.test_case "normalize constant" `Quick test_normalize_constant;
    Alcotest.test_case "rescale" `Quick test_rescale;
    Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
    Alcotest.test_case "histogram clamps" `Quick test_histogram_clamps;
    Alcotest.test_case "histogram fractions" `Quick test_histogram_fractions;
    Alcotest.test_case "histogram invalid" `Quick test_histogram_invalid;
    Alcotest.test_case "pearson perfect" `Quick test_pearson_perfect;
    Alcotest.test_case "pearson constant" `Quick test_pearson_constant;
    Alcotest.test_case "distances" `Quick test_distances;
    Alcotest.test_case "distance mismatch" `Quick test_distance_mismatch;
    Alcotest.test_case "chebyshev mismatch" `Quick test_chebyshev_mismatch;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_mean_bounded; prop_normalize_range; prop_histogram_total;
        prop_variance_nonneg; prop_sort_floatarray_matches_array_sort;
        prop_distances_match_reference;
      ]

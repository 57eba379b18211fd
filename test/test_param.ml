module Param = Harmony_param.Param

let feq = Alcotest.(check (float 1e-9))

let p = Param.make ~name:"p" ~min_value:2.0 ~max_value:10.0 ~step:2.0 ~default:4.0

let test_make_fields () =
  Alcotest.(check string) "name" "p" p.Param.name;
  feq "min" 2.0 p.Param.min_value;
  feq "max" 10.0 p.Param.max_value;
  feq "default" 4.0 p.Param.default

let test_make_snaps_default () =
  let q = Param.make ~name:"q" ~min_value:0.0 ~max_value:10.0 ~step:2.0 ~default:5.0 in
  (* 5.0 is off-grid; snapped to the nearest even value. *)
  Alcotest.(check bool) "snapped" true (q.Param.default = 4.0 || q.Param.default = 6.0)

let test_make_invalid () =
  Alcotest.check_raises "max < min" (Invalid_argument "Param.make: max < min")
    (fun () ->
      ignore (Param.make ~name:"x" ~min_value:5.0 ~max_value:1.0 ~step:1.0 ~default:1.0));
  Alcotest.check_raises "bad step" (Invalid_argument "Param.make: step <= 0")
    (fun () ->
      ignore (Param.make ~name:"x" ~min_value:0.0 ~max_value:1.0 ~step:0.0 ~default:0.0));
  Alcotest.check_raises "default oob"
    (Invalid_argument "Param.make: default out of range") (fun () ->
      ignore (Param.make ~name:"x" ~min_value:0.0 ~max_value:1.0 ~step:1.0 ~default:2.0))

let test_int_range () =
  let q = Param.int_range ~name:"q" ~lo:1 ~hi:10 ~default:5 () in
  Alcotest.(check int) "num values" 10 (Param.num_values q);
  feq "default" 5.0 q.Param.default

let test_num_values () =
  Alcotest.(check int) "count" 5 (Param.num_values p);
  let single = Param.make ~name:"s" ~min_value:3.0 ~max_value:3.0 ~step:1.0 ~default:3.0 in
  Alcotest.(check int) "single point" 1 (Param.num_values single)

let test_values () =
  Alcotest.(check (array (float 1e-9)))
    "grid" [| 2.0; 4.0; 6.0; 8.0; 10.0 |]
    (Array.init (Param.num_values p) (Param.value_at p))

let test_value_at_bounds () =
  feq "first" 2.0 (Param.value_at p 0);
  feq "last" 10.0 (Param.value_at p 4);
  Alcotest.check_raises "oob" (Invalid_argument "Param.value_at: out of range")
    (fun () -> ignore (Param.value_at p 5))

(* Normalization clamps into the range first. *)
let test_clamp () =
  feq "below" 0.0 (Param.normalize p 0.0);
  feq "above" 1.0 (Param.normalize p 99.0);
  feq "inside" 0.375 (Param.normalize p 5.0)

let test_snap () =
  feq "rounds down" 4.0 (Param.snap p 4.9);
  feq "rounds up" 6.0 (Param.snap p 5.1);
  feq "clamps then snaps" 2.0 (Param.snap p (-100.0));
  feq "top" 10.0 (Param.snap p 100.0)

let test_index_of () =
  Alcotest.(check int) "exact" 2 (Param.index_of p 6.0);
  Alcotest.(check int) "nearest" 2 (Param.index_of p 6.3);
  Alcotest.(check int) "clamped" 4 (Param.index_of p 42.0)

let test_is_valid () =
  Alcotest.(check bool) "on grid" true (Param.is_valid p 8.0);
  Alcotest.(check bool) "off grid" false (Param.is_valid p 5.0);
  Alcotest.(check bool) "out of range" false (Param.is_valid p 12.0)

let test_normalize_denormalize () =
  feq "min -> 0" 0.0 (Param.normalize p 2.0);
  feq "max -> 1" 1.0 (Param.normalize p 10.0);
  feq "mid" 0.5 (Param.normalize p 6.0);
  feq "round trip" 6.0 (Param.denormalize p (Param.normalize p 6.0))

let test_normalize_degenerate () =
  let single = Param.make ~name:"s" ~min_value:3.0 ~max_value:3.0 ~step:1.0 ~default:3.0 in
  feq "degenerate" 0.0 (Param.normalize single 3.0)

(* Properties *)

let param_gen =
  QCheck2.Gen.(
    let* lo = int_range (-50) 50 in
    let* span = int_range 1 100 in
    let* step = int_range 1 7 in
    return
      (Param.make ~name:"g" ~min_value:(float_of_int lo)
         ~max_value:(float_of_int (lo + span))
         ~step:(float_of_int step) ~default:(float_of_int lo)))

let prop_snap_valid =
  QCheck2.Test.make ~name:"snap yields a valid value" ~count:300
    QCheck2.Gen.(pair param_gen (float_range (-200.0) 200.0))
    (fun (q, v) -> Param.is_valid q (Param.snap q v))

let prop_snap_idempotent =
  QCheck2.Test.make ~name:"snap is idempotent" ~count:300
    QCheck2.Gen.(pair param_gen (float_range (-200.0) 200.0))
    (fun (q, v) ->
      let s = Param.snap q v in
      Float.abs (Param.snap q s -. s) < 1e-9)

let prop_value_at_index_roundtrip =
  QCheck2.Test.make ~name:"index_of (value_at i) = i" ~count:300
    QCheck2.Gen.(pair param_gen (int_range 0 1000))
    (fun (q, i) ->
      let i = i mod Param.num_values q in
      Param.index_of q (Param.value_at q i) = i)

let suite =
  [
    Alcotest.test_case "fields" `Quick test_make_fields;
    Alcotest.test_case "snaps default" `Quick test_make_snaps_default;
    Alcotest.test_case "make invalid" `Quick test_make_invalid;
    Alcotest.test_case "int_range" `Quick test_int_range;
    Alcotest.test_case "num_values" `Quick test_num_values;
    Alcotest.test_case "values" `Quick test_values;
    Alcotest.test_case "value_at bounds" `Quick test_value_at_bounds;
    Alcotest.test_case "clamp" `Quick test_clamp;
    Alcotest.test_case "snap" `Quick test_snap;
    Alcotest.test_case "index_of" `Quick test_index_of;
    Alcotest.test_case "is_valid" `Quick test_is_valid;
    Alcotest.test_case "normalize denormalize" `Quick test_normalize_denormalize;
    Alcotest.test_case "normalize degenerate" `Quick test_normalize_degenerate;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_snap_valid; prop_snap_idempotent; prop_value_at_index_roundtrip ]

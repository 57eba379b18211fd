module Param = Harmony_param.Param
module Space = Harmony_param.Space
module Rng = Harmony_numerics.Rng

let space =
  Space.create
    [
      Param.int_range ~name:"a" ~lo:0 ~hi:4 ~default:2 ();
      Param.int_range ~name:"b" ~lo:10 ~hi:30 ~step:10 ~default:10 ();
    ]

let farr = Alcotest.(array (float 1e-9))

let test_create_duplicate () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Space.create: duplicate parameter a") (fun () ->
      ignore
        (Space.create
           [
             Param.int_range ~name:"a" ~lo:0 ~hi:1 ~default:0 ();
             Param.int_range ~name:"a" ~lo:0 ~hi:1 ~default:0 ();
           ]))

let test_create_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Space.create: empty parameter list")
    (fun () -> ignore (Space.create []))

let test_dims_and_lookup () =
  Alcotest.(check int) "dims" 2 (Space.dims space);
  Alcotest.(check int) "index b" 1 (Space.index_of_name space "b");
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Space.index_of_name space "zz"))

let test_defaults_mins_maxs () =
  Alcotest.check farr "defaults" [| 2.0; 10.0 |] (Space.defaults space);
  Alcotest.check farr "mins" [| 0.0; 10.0 |] (Space.mins space);
  Alcotest.check farr "maxs" [| 4.0; 30.0 |] (Space.maxs space)

let test_snap () =
  Alcotest.check farr "snapped" [| 3.0; 20.0 |] (Space.snap space [| 3.2; 24.0 |])

let test_is_valid () =
  Alcotest.(check bool) "valid" true (Space.is_valid space [| 1.0; 30.0 |]);
  Alcotest.(check bool) "off grid" false (Space.is_valid space [| 1.0; 25.0 |]);
  Alcotest.(check bool) "wrong arity" false (Space.is_valid space [| 1.0 |])

let test_normalize_roundtrip () =
  let c = [| 3.0; 20.0 |] in
  Alcotest.check farr "roundtrip" c (Space.denormalize space (Space.normalize space c))

let test_cardinality () =
  Alcotest.(check (float 1e-9)) "5*3" 15.0 (Space.cardinality space)

let test_cardinality_huge () =
  (* The paper's motivating 2^1000 example must not overflow. *)
  let big =
    Space.create
      (List.init 1000 (fun i ->
           Param.int_range ~name:(Printf.sprintf "p%d" i) ~lo:0 ~hi:1 ~default:0 ()))
  in
  let c = Space.cardinality big in
  Alcotest.(check bool) "finite and huge" true (c > 1e300 && Float.is_finite c)

let test_random_valid () =
  let rng = Rng.create 1 in
  for _ = 1 to 200 do
    Alcotest.(check bool) "valid" true (Space.is_valid space (Space.random rng space))
  done

let test_neighbors_interior () =
  let n = Space.neighbors space [| 2.0; 20.0 |] in
  Alcotest.(check int) "four neighbours" 4 (List.length n);
  List.iter
    (fun c -> Alcotest.(check bool) "valid" true (Space.is_valid space c))
    n

let test_neighbors_corner () =
  let n = Space.neighbors space [| 0.0; 10.0 |] in
  Alcotest.(check int) "two neighbours" 2 (List.length n)

let test_enumerate_count () =
  let count = Seq.fold_left (fun acc _ -> acc + 1) 0 (Space.enumerate space) in
  Alcotest.(check int) "full enumeration" 15 count

let test_enumerate_distinct_and_valid () =
  let seen = Hashtbl.create 16 in
  Seq.iter
    (fun c ->
      Alcotest.(check bool) "valid" true (Space.is_valid space c);
      let key = Space.config_to_string space c in
      Alcotest.(check bool) "distinct" false (Hashtbl.mem seen key);
      Hashtbl.add seen key ())
    (Space.enumerate space)

let test_distance () =
  Alcotest.(check (float 1e-9))
    "normalized euclidean" (sqrt 2.0)
    (Space.distance space [| 0.0; 10.0 |] [| 4.0; 30.0 |])

let test_config_equal () =
  Alcotest.(check bool) "equal" true (Space.config_equal [| 1.0 |] [| 1.0 +. 1e-12 |]);
  Alcotest.(check bool) "not equal" false (Space.config_equal [| 1.0 |] [| 1.1 |]);
  Alcotest.(check bool) "arity" false (Space.config_equal [| 1.0 |] [| 1.0; 2.0 |])

let test_config_to_string () =
  Alcotest.(check string)
    "rendering" "{a=2; b=10}"
    (Space.config_to_string space [| 2.0; 10.0 |])

(* Property: snap is a projection onto the valid grid. *)
let prop_snap_projection =
  QCheck2.Test.make ~name:"snap projects onto the grid" ~count:300
    QCheck2.Gen.(pair (float_range (-10.0) 10.0) (float_range 0.0 40.0))
    (fun (a, b) ->
      let s = Space.snap space [| a; b |] in
      Space.is_valid space s && Space.config_equal s (Space.snap space s))

(* [config_equal] against a closure-based reference version; NaN
   differences count as equal in both, and 1e-9 apart is equal while
   one ulp more is not. *)
let reference_config_equal a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri (fun i v -> if Float.abs (v -. b.(i)) > 1e-9 then ok := false) a;
       !ok
     end

let test_config_equal_tolerance () =
  let at_tolerance = [| 0.0; 1e-9; Float.succ 1e-9; -0.0 |] in
  Array.iter
    (fun x ->
      Array.iter
        (fun y ->
          Alcotest.(check bool)
            (Printf.sprintf "%h vs %h" x y)
            (reference_config_equal [| x |] [| y |])
            (Space.config_equal [| x |] [| y |]))
        at_tolerance)
    at_tolerance;
  Alcotest.(check bool) "exactly 1e-9 apart" true (Space.config_equal [| 0.0 |] [| 1e-9 |]);
  Alcotest.(check bool) "one ulp more" false
    (Space.config_equal [| 0.0 |] [| Float.succ 1e-9 |]);
  Alcotest.(check bool) "NaN counts as equal" true
    (Space.config_equal [| Float.nan; 1.0 |] [| 2.0; 1.0 |])

let prop_config_equal_matches_reference =
  let open QCheck2.Gen in
  let value =
    frequency
      [
        ( 3,
          oneofl
            [
              Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; 1e-9;
              Float.succ 1e-9; -1e-9; 1.0;
            ] );
        (2, float_range (-10.0) 10.0);
      ]
  in
  let gen =
    let* n = int_range 0 10 in
    let* a = array_size (return n) value in
    let* b =
      flatten_a
        (Array.map
           (fun x ->
             frequency
               [
                 (6, return x);
                 (1, map (fun d -> x +. d) (oneofl [ 1e-9; -1e-9; 1e-12 ]));
                 (1, value);
               ])
           a)
    in
    let* extra = frequencyl [ (9, 0); (1, 1) ] in
    return (a, Array.append b (Array.make extra 0.0))
  in
  QCheck2.Test.make ~name:"config_equal matches the closure reference" ~count:2000 gen
    (fun (a, b) ->
      Bool.equal (Space.config_equal a b) (reference_config_equal a b)
      && Bool.equal (Space.config_equal b a) (reference_config_equal b a))

let suite =
  [
    Alcotest.test_case "create duplicate" `Quick test_create_duplicate;
    Alcotest.test_case "create empty" `Quick test_create_empty;
    Alcotest.test_case "dims and lookup" `Quick test_dims_and_lookup;
    Alcotest.test_case "defaults mins maxs" `Quick test_defaults_mins_maxs;
    Alcotest.test_case "snap" `Quick test_snap;
    Alcotest.test_case "is_valid" `Quick test_is_valid;
    Alcotest.test_case "normalize roundtrip" `Quick test_normalize_roundtrip;
    Alcotest.test_case "cardinality" `Quick test_cardinality;
    Alcotest.test_case "cardinality huge" `Quick test_cardinality_huge;
    Alcotest.test_case "random valid" `Quick test_random_valid;
    Alcotest.test_case "neighbors interior" `Quick test_neighbors_interior;
    Alcotest.test_case "neighbors corner" `Quick test_neighbors_corner;
    Alcotest.test_case "enumerate count" `Quick test_enumerate_count;
    Alcotest.test_case "enumerate distinct valid" `Quick test_enumerate_distinct_and_valid;
    Alcotest.test_case "distance" `Quick test_distance;
    Alcotest.test_case "config equal" `Quick test_config_equal;
    Alcotest.test_case "config equal tolerance" `Quick test_config_equal_tolerance;
    Alcotest.test_case "config to string" `Quick test_config_to_string;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_snap_projection; prop_config_equal_matches_reference ]

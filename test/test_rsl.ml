module Rsl = Harmony_param.Rsl
module Rng = Harmony_numerics.Rng

let paper_spec =
  "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {1 9-$B 1} }}"

let test_parse_simple () =
  let t = Rsl.parse "{ harmonyBundle B { int {1 10 1}}}" in
  Alcotest.(check (list string)) "names" [ "B" ] (Rsl.names t)

let test_parse_paper_example () =
  let t = Rsl.parse paper_spec in
  Alcotest.(check (list string)) "names" [ "B"; "C" ] (Rsl.names t)

let test_roundtrip () =
  let t = Rsl.parse paper_spec in
  let t' = Rsl.parse (Rsl.to_string t) in
  Alcotest.(check string) "stable" (Rsl.to_string t) (Rsl.to_string t')

let test_parse_expressions () =
  let t =
    Rsl.parse
      "{ harmonyBundle A { int {1 20 1}}}\n\
       { harmonyBundle B { int {(2*$A+1)/3 20-$A 2} }}"
  in
  let lo, hi, step = Rsl.bounds t [| 6; 0 |] 1 in
  Alcotest.(check (triple int int int)) "evaluated" (4, 14, 2) (lo, hi, step)

let test_parse_negative_literal () =
  let t = Rsl.parse "{ harmonyBundle A { int {-5 5 1}}}" in
  let lo, hi, _ = Rsl.bounds t [| 0 |] 0 in
  Alcotest.(check (pair int int)) "negative lo" (-5, 5) (lo, hi)

let test_parse_errors () =
  let expect_fail s =
    match Rsl.parse s with
    | exception Rsl.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  expect_fail "";
  expect_fail "{ harmonyBundle }";
  expect_fail "{ harmonyBundle B { int {1 10} }}";
  expect_fail "{ harmonyBundle B { int {1 10 1} }";
  expect_fail "{ harmonyBundle B { int {1 $ 1} }}";
  (* Forward reference is rejected. *)
  expect_fail
    "{ harmonyBundle B { int {1 $C 1} }}\n{ harmonyBundle C { int {1 5 1} }}";
  (* Duplicate names are rejected. *)
  expect_fail
    "{ harmonyBundle B { int {1 5 1} }}\n{ harmonyBundle B { int {1 5 1} }}"

let test_eval_expr () =
  let lookup = function "X" -> 7 | _ -> raise Not_found in
  Alcotest.(check int) "arith" 11 (Rsl.eval_expr lookup (Rsl.Add (Rsl.Const 4, Rsl.Ref "X")));
  Alcotest.(check int) "neg" (-7) (Rsl.eval_expr lookup (Rsl.Neg (Rsl.Ref "X")));
  Alcotest.(check int) "div" 3 (Rsl.eval_expr lookup (Rsl.Div (Rsl.Ref "X", Rsl.Const 2)))

let test_feasible_count_paper () =
  (* Sum over B of (9 - B) for B in 1..8 = 36. *)
  let t = Rsl.parse paper_spec in
  Alcotest.(check int) "count" 36 (Rsl.feasible_count t)

let test_feasible_count_limit () =
  let t = Rsl.parse paper_spec in
  Alcotest.(check int) "limited" 10 (Rsl.feasible_count ~limit:10 t)

let test_enumerate_matches_count () =
  let t = Rsl.parse paper_spec in
  let n = Seq.fold_left (fun acc _ -> acc + 1) 0 (Rsl.enumerate t) in
  Alcotest.(check int) "36 configs" 36 n

let test_enumerate_all_feasible () =
  let t = Rsl.parse paper_spec in
  Seq.iter
    (fun v -> Alcotest.(check bool) "feasible" true (Rsl_check.feasible t v))
    (Rsl.enumerate t)

let test_enumerate_meaningful_only () =
  (* The paper: configurations with B=6 and C=6 are discarded. *)
  let t = Rsl.parse paper_spec in
  let has v = Seq.exists (fun x -> x = v) (Rsl.enumerate t) in
  Alcotest.(check bool) "B=6 C=3 kept" true (has [| 6; 3 |]);
  Alcotest.(check bool) "B=6 C=6 pruned" false (has [| 6; 6 |])

let test_is_feasible () =
  let t = Rsl.parse paper_spec in
  Alcotest.(check bool) "ok" true (Rsl_check.feasible t [| 3; 5 |]);
  Alcotest.(check bool) "C too big" false (Rsl_check.feasible t [| 8; 2 |]);
  Alcotest.(check bool) "below lo" false (Rsl_check.feasible t [| 0; 1 |]);
  Alcotest.(check bool) "arity" false (Rsl_check.feasible t [| 3 |])

let test_is_feasible_step () =
  let t = Rsl.parse "{ harmonyBundle A { int {0 10 3} }}" in
  Alcotest.(check bool) "on step" true (Rsl_check.feasible t [| 9 |]);
  Alcotest.(check bool) "off step" false (Rsl_check.feasible t [| 7 |])

let test_sample_feasible () =
  let t = Rsl.parse paper_spec in
  let rng = Rng.create 9 in
  for _ = 1 to 200 do
    match Rsl.sample rng t with
    | Some v -> Alcotest.(check bool) "feasible" true (Rsl_check.feasible t v)
    | None -> Alcotest.fail "sampling a satisfiable spec returned None"
  done

let test_repair_feasible () =
  let t = Rsl.parse paper_spec in
  let r = Rsl.repair t [| 8.0; 7.0 |] in
  Alcotest.(check bool) "repaired into range" true
    (Rsl_check.feasible t (Array.map int_of_float r))

let test_repair_identity_on_feasible () =
  let t = Rsl.parse paper_spec in
  Alcotest.(check (array (float 1e-9))) "unchanged" [| 3.0; 4.0 |]
    (Rsl.repair t [| 3.0; 4.0 |])

(* The static bounds, read back from the box space (every bundle in
   these specifications steps by 1). *)
let static_bounds t =
  Array.map
    (fun p ->
      (int_of_float p.Harmony_param.Param.min_value,
       int_of_float p.Harmony_param.Param.max_value))
    (Harmony_param.Space.params (Rsl.to_space t))

let test_static_bounds () =
  let t = Rsl.parse paper_spec in
  Alcotest.(check (array (pair int int)))
    "interval hull" [| (1, 8); (1, 8) |] (static_bounds t)

let test_static_bounds_arithmetic () =
  let t =
    Rsl.parse
      "{ harmonyBundle A { int {2 5 1}}}\n{ harmonyBundle B { int {-$A 3*$A 1} }}"
  in
  Alcotest.(check (array (pair int int)))
    "interval arithmetic" [| (2, 5); (-5, 15) |] (static_bounds t)

let test_static_bounds_empty () =
  let t = Rsl.parse "{ harmonyBundle A { int {5 2 1}}}" in
  Alcotest.check_raises "always empty"
    (Invalid_argument "Rsl.static_bounds: bundle A is always empty") (fun () ->
      ignore (static_bounds t))

let test_to_space () =
  let t = Rsl.parse paper_spec in
  let space = Rsl.to_space t in
  Alcotest.(check int) "dims" 2 (Harmony_param.Space.dims space);
  let p = Harmony_param.Space.param space 1 in
  Alcotest.(check string) "name" "C" p.Harmony_param.Param.name;
  Alcotest.(check (float 1e-9)) "box lo" 1.0 p.Harmony_param.Param.min_value;
  Alcotest.(check (float 1e-9)) "box hi" 8.0 p.Harmony_param.Param.max_value;
  (* Every feasible configuration lies inside the box space. *)
  Seq.iter
    (fun v ->
      Alcotest.(check bool) "feasible inside box" true
        (Harmony_param.Space.is_valid space (Array.map float_of_int v)))
    (Rsl.enumerate t)

let test_of_bundles_validation () =
  Alcotest.check_raises "forward ref"
    (Invalid_argument "Rsl.of_bundles: bundle A refers to B which is not earlier")
    (fun () ->
      ignore
        (Rsl.of_bundles
           [ { Rsl.name = "A"; lo = Rsl.Const 1; hi = Rsl.Ref "B"; step = Rsl.Const 1 } ]))

let test_partition_composition_count () =
  (* k rows into n blocks: the restricted space has C(k-1, n-1)
     configurations (compositions of k). *)
  let t = Harmony_experiments.Fig10.partition_spec ~rows:10 ~blocks:3 in
  Alcotest.(check int) "C(9,2)" 36 (Rsl.feasible_count t)

(* Property: for the row-partition family, the enumerator's count
   equals the closed form C(rows-1, blocks-1) (compositions of rows
   into blocks positive parts). *)
let binomial n k =
  let acc = ref 1 in
  for i = 1 to k do
    acc := !acc * (n - k + i) / i
  done;
  !acc

let prop_partition_counts =
  QCheck2.Test.make ~name:"partition spec counts = C(rows-1, blocks-1)" ~count:50
    QCheck2.Gen.(pair (int_range 4 14) (int_range 2 4))
    (fun (rows, blocks) ->
      let t = Harmony_experiments.Fig10.partition_spec ~rows ~blocks in
      Rsl.feasible_count t = binomial (rows - 1) (blocks - 1))

(* Property: every enumerated feasible configuration lies inside the
   interval-arithmetic static bounds. *)
let prop_static_bounds_hull =
  QCheck2.Test.make ~name:"feasible points inside static bounds" ~count:50
    QCheck2.Gen.(pair (int_range 4 12) (int_range 2 4))
    (fun (rows, blocks) ->
      let t = Harmony_experiments.Fig10.partition_spec ~rows ~blocks in
      let boxes = static_bounds t in
      Seq.for_all
        (fun v ->
          Array.for_all Fun.id
            (Array.mapi
               (fun i x ->
                 let lo, hi = boxes.(i) in
                 x >= lo && x <= hi)
               v))
        (Rsl.enumerate t))

(* Property: random well-formed bundle ASTs survive a
   to_string/parse round trip unchanged. *)
let rec expr_gen names depth =
  QCheck2.Gen.(
    let leaf =
      if names = [] then [ (int_range 0 30 >|= fun k -> Rsl.Const k) ]
      else
        [
          (int_range 0 30 >|= fun k -> Rsl.Const k);
          (oneofl names >|= fun n -> Rsl.Ref n);
        ]
    in
    if depth <= 0 then oneof leaf
    else
      let sub = expr_gen names (depth - 1) in
      oneof
        (leaf
        @ [
            (sub >|= fun e -> Rsl.Neg e);
            ( let* a = sub in
              let* b = sub in
              oneofl [ Rsl.Add (a, b); Rsl.Sub (a, b); Rsl.Mul (a, b) ] );
          ]))

let spec_gen =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let rec build i earlier acc =
      if i >= n then return (List.rev acc)
      else
        let name = Printf.sprintf "P%d" i in
        let* lo = expr_gen earlier 2 in
        let* hi = expr_gen earlier 2 in
        let* step = int_range 1 3 in
        build (i + 1) (name :: earlier)
          ({ Rsl.name; lo; hi; step = Rsl.Const step } :: acc)
    in
    build 0 [] [])

let prop_ast_roundtrip =
  QCheck2.Test.make ~name:"AST survives to_string/parse" ~count:200 spec_gen
    (fun bundles ->
      match Rsl.of_bundles bundles with
      | exception Invalid_argument _ -> true (* not well-formed; skip *)
      | t -> (
          match Rsl.parse (Rsl.to_string t) with
          | exception Rsl.Parse_error _ -> false
          | t' -> Rsl.to_string t = Rsl.to_string t'))

(* Property: repair always lands feasible for the paper spec (the
   spec's conditional ranges are never empty). *)
let prop_repair_feasible =
  let t = Rsl.parse paper_spec in
  QCheck2.Test.make ~name:"repair lands feasible" ~count:300
    QCheck2.Gen.(pair (float_range (-5.0) 20.0) (float_range (-5.0) 20.0))
    (fun (a, b) ->
      let r = Rsl.repair t [| a; b |] in
      Rsl_check.feasible t (Array.map int_of_float r))

let suite =
  [
    Alcotest.test_case "parse simple" `Quick test_parse_simple;
    Alcotest.test_case "parse paper example" `Quick test_parse_paper_example;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "parse expressions" `Quick test_parse_expressions;
    Alcotest.test_case "parse negative literal" `Quick test_parse_negative_literal;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "eval expr" `Quick test_eval_expr;
    Alcotest.test_case "feasible count (paper)" `Quick test_feasible_count_paper;
    Alcotest.test_case "feasible count limit" `Quick test_feasible_count_limit;
    Alcotest.test_case "enumerate matches count" `Quick test_enumerate_matches_count;
    Alcotest.test_case "enumerate all feasible" `Quick test_enumerate_all_feasible;
    Alcotest.test_case "enumerate meaningful only" `Quick test_enumerate_meaningful_only;
    Alcotest.test_case "is_feasible" `Quick test_is_feasible;
    Alcotest.test_case "is_feasible step" `Quick test_is_feasible_step;
    Alcotest.test_case "sample feasible" `Quick test_sample_feasible;
    Alcotest.test_case "repair feasible" `Quick test_repair_feasible;
    Alcotest.test_case "repair identity" `Quick test_repair_identity_on_feasible;
    Alcotest.test_case "static bounds" `Quick test_static_bounds;
    Alcotest.test_case "static bounds arithmetic" `Quick test_static_bounds_arithmetic;
    Alcotest.test_case "static bounds empty" `Quick test_static_bounds_empty;
    Alcotest.test_case "to_space" `Quick test_to_space;
    Alcotest.test_case "of_bundles validation" `Quick test_of_bundles_validation;
    Alcotest.test_case "partition composition count" `Quick test_partition_composition_count;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_partition_counts; prop_static_bounds_hull; prop_repair_feasible;
        prop_ast_roundtrip;
      ]

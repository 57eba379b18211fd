module Matrix = Harmony_numerics.Matrix

let farr = Alcotest.(array (float 1e-9))

let make rows cols x = Matrix.init rows cols (fun _ _ -> x)
let row m i = Array.init (Matrix.cols m) (Matrix.get m i)
let col m j = Array.init (Matrix.rows m) (fun i -> Matrix.get m i j)

let test_make_get_set () =
  let m = make 2 3 0.0 in
  Matrix.set m 1 2 5.0;
  Alcotest.(check (float 1e-12)) "set/get" 5.0 (Matrix.get m 1 2);
  Alcotest.(check (float 1e-12)) "untouched" 0.0 (Matrix.get m 0 0)

let test_make_invalid () =
  Alcotest.check_raises "bad dims" (Invalid_argument "Matrix.init: non-positive size")
    (fun () -> ignore (make 0 3 0.0))

let test_bounds () =
  let m = make 2 2 0.0 in
  Alcotest.check_raises "oob get" (Invalid_argument "Matrix.get: out of bounds")
    (fun () -> ignore (Matrix.get m 2 0));
  Alcotest.check_raises "oob set" (Invalid_argument "Matrix.set: out of bounds")
    (fun () -> Matrix.set m 0 (-1) 1.0)

let test_of_rows_to_rows () =
  let rows = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let m = Matrix.of_rows rows in
  Alcotest.(check (array farr)) "round trip" rows
    (Array.init (Matrix.rows m) (row m));
  (* of_rows copies. *)
  rows.(0).(0) <- 99.0;
  Alcotest.(check (float 1e-12)) "copied" 1.0 (Matrix.get m 0 0)

let test_of_rows_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_rows: ragged rows")
    (fun () -> ignore (Matrix.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_identity () =
  let i3 = Matrix.identity 3 in
  Alcotest.(check (float 1e-12)) "diag" 1.0 (Matrix.get i3 1 1);
  Alcotest.(check (float 1e-12)) "off-diag" 0.0 (Matrix.get i3 0 2)

let test_transpose () =
  let m = Matrix.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Matrix.transpose m in
  Alcotest.(check int) "rows" 3 (Matrix.rows t);
  Alcotest.(check int) "cols" 2 (Matrix.cols t);
  Alcotest.(check (float 1e-12)) "entry" 6.0 (Matrix.get t 2 1)

let test_row_col () =
  let m = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.check farr "row" [| 3.0; 4.0 |] (row m 1);
  Alcotest.check farr "col" [| 2.0; 4.0 |] (col m 1)

let test_add_sub_scale () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |] |] in
  let b = Matrix.of_rows [| [| 3.0; 5.0 |] |] in
  Alcotest.check farr "add" [| 4.0; 7.0 |] (row (Matrix.add a b) 0);
  Alcotest.check farr "sub" [| 2.0; 3.0 |]
    (row (Matrix.add b (Matrix.scale (-1.0) a)) 0);
  Alcotest.check farr "scale" [| 2.0; 4.0 |] (row (Matrix.scale 2.0 a) 0)

let test_add_mismatch () =
  let a = make 1 2 0.0 and b = make 2 1 0.0 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Matrix.add: dimension mismatch")
    (fun () -> ignore (Matrix.add a b))

let test_mul () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  Alcotest.check farr "row0" [| 19.0; 22.0 |] (row c 0);
  Alcotest.check farr "row1" [| 43.0; 50.0 |] (row c 1)

let test_mul_identity () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "a*I = a" true (Matrix.equal a (Matrix.mul a (Matrix.identity 2)))

let test_mul_vec () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.check farr "a*x" [| 5.0; 11.0 |] (Matrix.mul_vec a [| 1.0; 2.0 |])

let test_solve_simple () =
  let a = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Matrix.solve a [| 5.0; 10.0 |] in
  Alcotest.check farr "solution" [| 1.0; 3.0 |] x

let test_solve_needs_pivot () =
  (* Leading zero forces a row swap. *)
  let a = Matrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Matrix.solve a [| 2.0; 3.0 |] in
  Alcotest.check farr "pivoted" [| 3.0; 2.0 |] x

let test_solve_singular () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Matrix.solve: singular matrix")
    (fun () -> ignore (Matrix.solve a [| 1.0; 2.0 |]))

let test_solve_residual () =
  let a =
    Matrix.of_rows
      [| [| 4.0; -2.0; 1.0 |]; [| -2.0; 4.0; -2.0 |]; [| 1.0; -2.0; 4.0 |] |]
  in
  let b = [| 11.0; -16.0; 17.0 |] in
  let x = Matrix.solve a b in
  let ax = Matrix.mul_vec a x in
  Alcotest.check farr "Ax = b" b ax

let test_equal_eps () =
  let a = Matrix.of_rows [| [| 1.0 |] |] in
  let b = Matrix.of_rows [| [| 1.0 +. 1e-12 |] |] in
  Alcotest.(check bool) "within eps" true (Matrix.equal a b);
  Alcotest.(check bool) "outside eps" false (Matrix.equal ~eps:1e-15 a b)

(* Property: solve then multiply recovers the RHS for random
   well-conditioned (diagonally dominant) systems. *)
let prop_solve_roundtrip =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 6 in
      let* entries = array_size (return (n * n)) (float_range (-1.0) 1.0) in
      let* rhs = array_size (return n) (float_range (-10.0) 10.0) in
      return (n, entries, rhs))
  in
  QCheck2.Test.make ~name:"solve roundtrip (diag dominant)" ~count:100 gen
    (fun (n, entries, rhs) ->
      let a =
        Matrix.init n n (fun i j ->
            let v = entries.((i * n) + j) in
            if i = j then v +. float_of_int n +. 1.0 else v)
      in
      let x = Matrix.solve a rhs in
      let ax = Matrix.mul_vec a x in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) ax rhs)

let suite =
  [
    Alcotest.test_case "make get set" `Quick test_make_get_set;
    Alcotest.test_case "make invalid" `Quick test_make_invalid;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "of_rows to_rows" `Quick test_of_rows_to_rows;
    Alcotest.test_case "of_rows ragged" `Quick test_of_rows_ragged;
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "row col" `Quick test_row_col;
    Alcotest.test_case "add sub scale" `Quick test_add_sub_scale;
    Alcotest.test_case "add mismatch" `Quick test_add_mismatch;
    Alcotest.test_case "mul" `Quick test_mul;
    Alcotest.test_case "mul identity" `Quick test_mul_identity;
    Alcotest.test_case "mul_vec" `Quick test_mul_vec;
    Alcotest.test_case "solve simple" `Quick test_solve_simple;
    Alcotest.test_case "solve needs pivot" `Quick test_solve_needs_pivot;
    Alcotest.test_case "solve singular" `Quick test_solve_singular;
    Alcotest.test_case "solve residual" `Quick test_solve_residual;
    Alcotest.test_case "equal eps" `Quick test_equal_eps;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_solve_roundtrip ]

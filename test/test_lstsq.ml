module Matrix = Harmony_numerics.Matrix
module Lstsq = Harmony_numerics.Lstsq

let farr = Alcotest.(array (float 1e-6))

(* [||a x - b||_2]. *)
let residual_norm a x b =
  Harmony_numerics.Stats.euclidean_distance (Matrix.mul_vec a x) b

let test_square_exact () =
  let a = Matrix.of_rows [| [| 2.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  Alcotest.check farr "exact" [| 3.0; 0.5 |] (Lstsq.solve a [| 6.0; 2.0 |])

let test_overdetermined_consistent () =
  (* Three points on the line y = 2x + 1. *)
  let a = Matrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 1.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check farr "line fit" [| 2.0; 1.0 |] (Lstsq.solve a [| 1.0; 3.0; 5.0 |])

let test_overdetermined_least_squares () =
  (* Mean minimizes squared error for the all-ones design. *)
  let a = Matrix.of_rows [| [| 1.0 |]; [| 1.0 |]; [| 1.0 |]; [| 1.0 |] |] in
  Alcotest.check farr "mean" [| 2.5 |] (Lstsq.solve a [| 1.0; 2.0; 3.0; 4.0 |])

let test_underdetermined_min_norm () =
  (* x1 + x2 = 2: the minimum-norm solution is (1, 1). *)
  let a = Matrix.of_rows [| [| 1.0; 1.0 |] |] in
  Alcotest.check farr "min norm" [| 1.0; 1.0 |] (Lstsq.solve a [| 2.0 |])

let test_qr_matches_solve () =
  let a = Matrix.of_rows [| [| 3.0; 1.0 |]; [| 1.0; 2.0 |]; [| 0.0; 1.0 |] |] in
  let b = [| 9.0; 8.0; 3.0 |] in
  let x1 = Lstsq.qr_solve a b and x2 = Lstsq.solve a b in
  Alcotest.check farr "agree" x1 x2

let test_qr_requires_tall () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |] |] in
  Alcotest.check_raises "wide input"
    (Invalid_argument "Lstsq.qr_solve: fewer rows than columns") (fun () ->
      ignore (Lstsq.qr_solve a [| 1.0 |]))

let test_residual_norm () =
  let a = Matrix.of_rows [| [| 1.0 |]; [| 1.0 |] |] in
  let x = Lstsq.solve a [| 1.0; 2.0 |] in
  Alcotest.check farr "least squares" [| 1.5 |] x;
  Alcotest.(check (float 1e-9))
    "residual" (sqrt 0.5)
    (residual_norm a x [| 1.0; 2.0 |])

let test_fit_hyperplane_exact () =
  (* z = 2x - y + 3 through four points. *)
  let points = [| [| 0.0; 0.0 |]; [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let values = [| 3.0; 5.0; 2.0; 4.0 |] in
  let coeffs = Lstsq.fit_hyperplane points values in
  Alcotest.check farr "coefficients" [| 2.0; -1.0; 3.0 |] coeffs;
  Alcotest.(check (float 1e-9))
    "prediction" 4.5
    (Lstsq.predict_hyperplane coeffs [| 1.0; 0.5 |])

let test_fit_hyperplane_extrapolates () =
  let points = [| [| 0.0 |]; [| 1.0 |] |] in
  let coeffs = Lstsq.fit_hyperplane points [| 0.0; 10.0 |] in
  Alcotest.(check (float 1e-9))
    "extrapolation" 20.0
    (Lstsq.predict_hyperplane coeffs [| 2.0 |])

let test_fit_hyperplane_empty () =
  Alcotest.check_raises "no points" (Invalid_argument "Lstsq.fit_hyperplane: no points")
    (fun () -> ignore (Lstsq.fit_hyperplane [||] [||]))

let test_predict_arity () =
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Lstsq.predict_hyperplane: coefficient size mismatch")
    (fun () -> ignore (Lstsq.predict_hyperplane [| 1.0; 2.0 |] [| 1.0; 2.0 |]))

(* Property: least squares residual never exceeds the residual of the
   zero vector (optimality sanity check). *)
let prop_lstsq_beats_zero =
  let gen =
    QCheck2.Gen.(
      let* m = int_range 1 6 in
      let* n = int_range 1 6 in
      let* entries = array_size (return (m * n)) (float_range (-5.0) 5.0) in
      let* rhs = array_size (return m) (float_range (-5.0) 5.0) in
      return (m, n, entries, rhs))
  in
  QCheck2.Test.make ~name:"least squares beats the zero vector" ~count:100 gen
    (fun (m, n, entries, rhs) ->
      let a = Matrix.init m n (fun i j -> entries.((i * n) + j)) in
      let x = Lstsq.solve a rhs in
      let zero_res = residual_norm a (Array.make n 0.0) rhs in
      residual_norm a x rhs <= zero_res +. 1e-6)

(* Property: a hyperplane fit through exactly dims+1 affinely
   independent points interpolates them. *)
let prop_hyperplane_interpolates =
  let gen =
    QCheck2.Gen.(
      let* w = float_range (-3.0) 3.0 in
      let* c = float_range (-3.0) 3.0 in
      let* xs = array_size (return 5) (float_range (-10.0) 10.0) in
      return (w, c, xs))
  in
  QCheck2.Test.make ~name:"hyperplane reproduces a linear function" ~count:100 gen
    (fun (w, c, xs) ->
      let points = Array.map (fun x -> [| x |]) xs in
      let values = Array.map (fun x -> (w *. x) +. c) xs in
      let coeffs = Lstsq.fit_hyperplane points values in
      Array.for_all2
        (fun p v -> Float.abs (Lstsq.predict_hyperplane coeffs p -. v) < 1e-5)
        points values)

let suite =
  [
    Alcotest.test_case "square exact" `Quick test_square_exact;
    Alcotest.test_case "overdetermined consistent" `Quick test_overdetermined_consistent;
    Alcotest.test_case "overdetermined least squares" `Quick test_overdetermined_least_squares;
    Alcotest.test_case "underdetermined min norm" `Quick test_underdetermined_min_norm;
    Alcotest.test_case "qr matches solve" `Quick test_qr_matches_solve;
    Alcotest.test_case "qr requires tall" `Quick test_qr_requires_tall;
    Alcotest.test_case "residual norm" `Quick test_residual_norm;
    Alcotest.test_case "fit hyperplane exact" `Quick test_fit_hyperplane_exact;
    Alcotest.test_case "fit hyperplane extrapolates" `Quick test_fit_hyperplane_extrapolates;
    Alcotest.test_case "fit hyperplane empty" `Quick test_fit_hyperplane_empty;
    Alcotest.test_case "predict arity" `Quick test_predict_arity;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_lstsq_beats_zero; prop_hyperplane_interpolates ]

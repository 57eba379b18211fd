open Harmony_ml
module Rng = Harmony_numerics.Rng

let rec depth = function
  | Dtree.Leaf _ -> 0
  | Dtree.Node { left; right; _ } -> 1 + Int.max (depth left) (depth right)

let rec leaves = function
  | Dtree.Leaf _ -> 1
  | Dtree.Node { left; right; _ } -> leaves left + leaves right

(* Fraction of the examples a classifier labels correctly. *)
let accuracy (c : Classifier.t) { Classifier.features; labels } =
  let correct = ref 0 in
  Array.iteri (fun i f -> if c.classify f = labels.(i) then incr correct) features;
  float_of_int !correct /. float_of_int (Array.length features)

(* Two well-separated clusters around (0,0) and (10,10). *)
let two_blobs ?(per_class = 20) seed =
  let rng = Rng.create seed in
  let point cx cy = [| cx +. Rng.uniform rng (-1.0) 1.0; cy +. Rng.uniform rng (-1.0) 1.0 |] in
  let features =
    Array.init (2 * per_class) (fun i ->
        if i < per_class then point 0.0 0.0 else point 10.0 10.0)
  in
  let labels = Array.init (2 * per_class) (fun i -> if i < per_class then 0 else 1) in
  { Classifier.features; labels }

(* ------------------------------------------------------------------ *)
(* Classifier plumbing                                                 *)

let test_validate_training () =
  Alcotest.check_raises "empty" (Invalid_argument "Classifier: empty training set")
    (fun () ->
      ignore (Classifier.validate_training { Classifier.features = [||]; labels = [||] }));
  Alcotest.check_raises "ragged" (Invalid_argument "Classifier: ragged features")
    (fun () ->
      ignore
        (Classifier.validate_training
           { Classifier.features = [| [| 1.0 |]; [| 1.0; 2.0 |] |]; labels = [| 0; 1 |] }));
  Alcotest.check_raises "labels mismatch"
    (Invalid_argument "Classifier: labels length mismatch") (fun () ->
      ignore
        (Classifier.validate_training
           { Classifier.features = [| [| 1.0 |] |]; labels = [| 0; 1 |] }))

let test_num_classes () =
  let t = two_blobs 1 in
  Alcotest.(check int) "two classes" 2 (Classifier.num_classes t)

(* ------------------------------------------------------------------ *)
(* Nearest (the paper's least-squares classification)                  *)

let test_nearest_index () =
  let rows = [| [| 0.0; 0.0 |]; [| 5.0; 5.0 |]; [| 10.0; 0.0 |] |] in
  Alcotest.(check int) "closest row" 1 (Nearest.nearest_index rows [| 4.0; 6.0 |]);
  Alcotest.(check int) "exact" 0 (Nearest.nearest_index rows [| 0.0; 0.0 |])

let test_nearest_index_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Nearest.nearest_index: empty matrix")
    (fun () -> ignore (Nearest.nearest_index [||] [| 1.0 |]))

let test_least_squares_separates () =
  let t = two_blobs 2 in
  let c = Nearest.least_squares t in
  Alcotest.(check int) "near origin" 0 (c.Classifier.classify [| 0.5; -0.5 |]);
  Alcotest.(check int) "near far blob" 1 (c.Classifier.classify [| 9.0; 11.0 |]);
  Alcotest.(check (float 1e-9)) "training accuracy" 1.0 (accuracy c t)

let test_knn_majority () =
  let t = two_blobs 3 in
  let c = Nearest.knn ~k:5 t in
  Alcotest.(check (float 1e-9)) "accuracy" 1.0 (accuracy c t);
  Alcotest.check_raises "k" (Invalid_argument "Nearest.knn: k < 1") (fun () ->
      ignore (Nearest.knn ~k:0 t))

(* ------------------------------------------------------------------ *)
(* K-means                                                             *)

let test_kmeans_two_blobs () =
  let t = two_blobs 4 in
  let r = Kmeans.fit (Rng.create 1) ~k:2 t.Classifier.features in
  Alcotest.(check int) "two centroids" 2 (Array.length r.Kmeans.centroids);
  (* Every blob member shares its cluster with its blob mates. *)
  let c0 = r.Kmeans.assignment.(0) in
  for i = 0 to 19 do
    Alcotest.(check int) "first blob together" c0 r.Kmeans.assignment.(i)
  done;
  Alcotest.(check bool) "blobs in different clusters" true
    (r.Kmeans.assignment.(39) <> c0);
  Alcotest.(check bool) "inertia small" true (r.Kmeans.inertia < 100.0)

let test_kmeans_k1 () =
  let t = two_blobs 5 in
  let r = Kmeans.fit (Rng.create 2) ~k:1 t.Classifier.features in
  (* Single centroid = grand mean. *)
  Alcotest.(check bool) "centroid near (5,5)" true
    (Float.abs (r.Kmeans.centroids.(0).(0) -. 5.0) < 1.5)

let test_kmeans_invalid () =
  Alcotest.check_raises "k range" (Invalid_argument "Kmeans.fit: k out of range")
    (fun () -> ignore (Kmeans.fit (Rng.create 1) ~k:5 [| [| 1.0 |] |]));
  Alcotest.check_raises "no points" (Invalid_argument "Kmeans.fit: no points")
    (fun () -> ignore (Kmeans.fit (Rng.create 1) ~k:1 [||]))

let test_kmeans_classifier () =
  let t = two_blobs 6 in
  let c = Kmeans.classifier (Rng.create 3) ~k:2 t in
  Alcotest.(check bool) "good accuracy" true (accuracy c t >= 0.95)

(* ------------------------------------------------------------------ *)
(* Decision tree                                                       *)

let test_dtree_pure_leaf () =
  let t = { Classifier.features = [| [| 1.0 |]; [| 2.0 |] |]; labels = [| 1; 1 |] } in
  let tree = Dtree.fit t in
  Alcotest.(check int) "single leaf" 1 (leaves tree);
  Alcotest.(check int) "classifies the constant" 1 (Dtree.classify tree [| 9.0 |])

let test_dtree_axis_split () =
  let t =
    { Classifier.features = [| [| 1.0 |]; [| 2.0 |]; [| 8.0 |]; [| 9.0 |] |];
      labels = [| 0; 0; 1; 1 |] }
  in
  let tree = Dtree.fit t in
  Alcotest.(check int) "left" 0 (Dtree.classify tree [| 0.0 |]);
  Alcotest.(check int) "right" 1 (Dtree.classify tree [| 10.0 |]);
  Alcotest.(check int) "depth one" 1 (depth tree)

let test_dtree_xor () =
  (* XOR needs depth two: no single split separates it. *)
  let t =
    { Classifier.features =
        [| [| 0.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 0.0 |]; [| 1.0; 1.0 |] |];
      labels = [| 0; 1; 1; 0 |] }
  in
  let c = Dtree.classifier t in
  Alcotest.(check (float 1e-9)) "fits xor" 1.0 (accuracy c t)

let test_dtree_max_depth () =
  let t = two_blobs 7 in
  let tree = Dtree.fit ~max_depth:0 t in
  Alcotest.(check int) "stump" 0 (depth tree)

let test_dtree_blobs () =
  let t = two_blobs 8 in
  let c = Dtree.classifier t in
  Alcotest.(check (float 1e-9)) "separates blobs" 1.0 (accuracy c t)

(* ------------------------------------------------------------------ *)
(* MLP                                                                 *)

let test_mlp_blobs () =
  let t = two_blobs 9 in
  let c = Mlp.classifier (Rng.create 4) ~hidden:8 ~epochs:100 t in
  Alcotest.(check bool) "high accuracy" true (accuracy c t >= 0.95)

let test_mlp_probabilities_normalized () =
  let t = two_blobs 10 in
  let m = Mlp.fit (Rng.create 5) ~hidden:4 ~epochs:20 t in
  let p = Mlp.predict_probabilities m [| 5.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 p);
  Array.iter (fun v -> Alcotest.(check bool) "in [0,1]" true (v >= 0.0 && v <= 1.0)) p

let test_mlp_invalid () =
  let t = two_blobs 11 in
  Alcotest.check_raises "hidden" (Invalid_argument "Mlp.fit: hidden < 1") (fun () ->
      ignore (Mlp.fit (Rng.create 1) ~hidden:0 t))

(* Property: every classifier names a class that exists in training. *)
let prop_classify_in_range =
  QCheck2.Test.make ~name:"classifiers stay in label range" ~count:50
    QCheck2.Gen.(pair (float_range (-20.0) 20.0) (float_range (-20.0) 20.0))
    (fun (x, y) ->
      let t = two_blobs 12 in
      let classifiers =
        [
          Nearest.least_squares t;
          Nearest.knn ~k:3 t;
          Kmeans.classifier (Rng.create 6) ~k:2 t;
          Dtree.classifier t;
        ]
      in
      List.for_all
        (fun c ->
          let l = c.Classifier.classify [| x; y |] in
          l = 0 || l = 1)
        classifiers)

let suite =
  [
    Alcotest.test_case "validate training" `Quick test_validate_training;
    Alcotest.test_case "num classes" `Quick test_num_classes;
    Alcotest.test_case "nearest index" `Quick test_nearest_index;
    Alcotest.test_case "nearest index empty" `Quick test_nearest_index_empty;
    Alcotest.test_case "least squares separates" `Quick test_least_squares_separates;
    Alcotest.test_case "knn majority" `Quick test_knn_majority;
    Alcotest.test_case "kmeans two blobs" `Quick test_kmeans_two_blobs;
    Alcotest.test_case "kmeans k1" `Quick test_kmeans_k1;
    Alcotest.test_case "kmeans invalid" `Quick test_kmeans_invalid;
    Alcotest.test_case "kmeans classifier" `Quick test_kmeans_classifier;
    Alcotest.test_case "dtree pure leaf" `Quick test_dtree_pure_leaf;
    Alcotest.test_case "dtree axis split" `Quick test_dtree_axis_split;
    Alcotest.test_case "dtree xor" `Quick test_dtree_xor;
    Alcotest.test_case "dtree max depth" `Quick test_dtree_max_depth;
    Alcotest.test_case "dtree blobs" `Quick test_dtree_blobs;
    Alcotest.test_case "mlp blobs" `Quick test_mlp_blobs;
    Alcotest.test_case "mlp probabilities" `Quick test_mlp_probabilities_normalized;
    Alcotest.test_case "mlp invalid" `Quick test_mlp_invalid;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_classify_in_range ]

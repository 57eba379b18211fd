module Rng = Harmony_numerics.Rng

type result = {
  centroids : float array array;
  assignment : int array;
  inertia : float;
  iterations : int;
}

let squared_distance a b =
  let s = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. b.(i) in
      s := !s +. (d *. d))
    a;
  !s

let assign centroids query = Nearest.nearest_index centroids query

(* k-means++ seeding: each next centroid is drawn with probability
   proportional to squared distance from the chosen ones. *)
let seed_plus_plus rng k points =
  let n = Array.length points in
  let centroids = Array.make k points.(0) in
  centroids.(0) <- Array.copy points.(Rng.int rng n);
  let d2 = Array.map (fun p -> squared_distance p centroids.(0)) points in
  for c = 1 to k - 1 do
    let total = Array.fold_left ( +. ) 0.0 d2 in
    let chosen =
      if total <= 0.0 then Rng.int rng n
      else begin
        let u = Rng.float rng total in
        let acc = ref 0.0 in
        let idx = ref (n - 1) in
        (try
           Array.iteri
             (fun i d ->
               acc := !acc +. d;
               if u < !acc then begin
                 idx := i;
                 raise Exit
               end)
             d2
         with Exit -> ());
        !idx
      end
    in
    centroids.(c) <- Array.copy points.(chosen);
    Array.iteri
      (fun i p -> d2.(i) <- Float.min d2.(i) (squared_distance p centroids.(c)))
      points
  done;
  centroids

let fit rng ~k ?(max_iter = 100) points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Kmeans.fit: no points";
  if k < 1 || k > n then invalid_arg "Kmeans.fit: k out of range";
  let dim = Array.length points.(0) in
  Array.iter
    (fun p -> if Array.length p <> dim then invalid_arg "Kmeans.fit: ragged points")
    points;
  let centroids = seed_plus_plus rng k points in
  let assignment = Array.make n 0 in
  let changed = ref true in
  let iterations = ref 0 in
  while !changed && !iterations < max_iter do
    incr iterations;
    changed := false;
    Array.iteri
      (fun i p ->
        let c = assign centroids p in
        if c <> assignment.(i) then begin
          assignment.(i) <- c;
          changed := true
        end)
      points;
    (* Recompute centroids; empty clusters keep their position. *)
    let sums = Array.init k (fun _ -> Array.make dim 0.0) in
    let counts = Array.make k 0 in
    Array.iteri
      (fun i p ->
        let c = assignment.(i) in
        counts.(c) <- counts.(c) + 1;
        Array.iteri (fun j v -> sums.(c).(j) <- sums.(c).(j) +. v) p)
      points;
    Array.iteri
      (fun c count ->
        if count > 0 then
          centroids.(c) <-
            Array.map (fun s -> s /. float_of_int count) sums.(c))
      counts
  done;
  let inertia =
    let s = ref 0.0 in
    Array.iteri
      (fun i p -> s := !s +. squared_distance p centroids.(assignment.(i)))
      points;
    !s
  in
  { centroids; assignment; inertia; iterations = !iterations }

let classifier rng ~k training =
  let _dim = Classifier.validate_training training in
  let { Classifier.features; labels } = training in
  let k = Int.min k (Array.length features) in
  let { centroids; assignment; _ } = fit rng ~k features in
  let classes = Classifier.num_classes training in
  (* Majority label per cluster; empty clusters inherit label 0. *)
  let cluster_label =
    Array.init k (fun c ->
        let votes = Array.make classes 0 in
        Array.iteri
          (fun i a -> if a = c then votes.(labels.(i)) <- votes.(labels.(i)) + 1)
          assignment;
        let best = ref 0 in
        Array.iteri (fun l v -> if v > votes.(!best) then best := l) votes;
        !best)
  in
  {
    Classifier.name = Printf.sprintf "kmeans-%d" k;
    classify = (fun query -> cluster_label.(assign centroids query));
  }

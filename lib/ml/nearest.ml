let squared_distance a b =
  if Array.length a <> Array.length b then
    invalid_arg "Nearest: dimension mismatch";
  let s = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. b.(i) in
      s := !s +. (d *. d))
    a;
  !s

let nearest_index rows query =
  if Array.length rows = 0 then invalid_arg "Nearest.nearest_index: empty matrix";
  let best = ref 0 in
  let best_d = ref (squared_distance rows.(0) query) in
  Array.iteri
    (fun i row ->
      let d = squared_distance row query in
      if d < !best_d then begin
        best := i;
        best_d := d
      end)
    rows;
  !best

let least_squares training =
  let _dim = Classifier.validate_training training in
  let { Classifier.features; labels } = training in
  {
    Classifier.name = "least-squares";
    classify = (fun query -> labels.(nearest_index features query));
  }

let knn ~k training =
  if k < 1 then invalid_arg "Nearest.knn: k < 1";
  let _dim = Classifier.validate_training training in
  let { Classifier.features; labels } = training in
  let classify query =
    let n = Array.length features in
    let dist = Array.init n (fun i -> (squared_distance features.(i) query, i)) in
    Array.sort
      (fun (da, ia) (db, ib) ->
        match Float.compare da db with 0 -> Int.compare ia ib | c -> c)
      dist;
    let k = Int.min k n in
    let classes = Classifier.num_classes training in
    let votes = Array.make classes 0 in
    for j = 0 to k - 1 do
      let _, i = dist.(j) in
      votes.(labels.(i)) <- votes.(labels.(i)) + 1
    done;
    (* Majority; break ties towards the class owning the closest
       example. *)
    let best = ref labels.(snd dist.(0)) in
    Array.iteri (fun c v -> if v > votes.(!best) then best := c) votes;
    !best
  in
  { Classifier.name = Printf.sprintf "%d-nn" k; classify }

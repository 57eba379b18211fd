type tree =
  | Leaf of int
  | Node of { feature : int; threshold : float; left : tree; right : tree }

let gini labels idxs classes =
  let n = Array.length idxs in
  if n = 0 then 0.0
  else begin
    let counts = Array.make classes 0 in
    Array.iter (fun i -> counts.(labels.(i)) <- counts.(labels.(i)) + 1) idxs;
    let nf = float_of_int n in
    let s = ref 1.0 in
    Array.iter
      (fun c ->
        let p = float_of_int c /. nf in
        s := !s -. (p *. p))
      counts;
    !s
  end

let majority labels idxs classes =
  let counts = Array.make classes 0 in
  Array.iter (fun i -> counts.(labels.(i)) <- counts.(labels.(i)) + 1) idxs;
  let best = ref 0 in
  Array.iteri (fun c v -> if v > counts.(!best) then best := c) counts;
  !best

let pure labels idxs =
  Array.length idxs <= 1
  || Array.for_all (fun i -> labels.(i) = labels.(idxs.(0))) idxs

(* Best (feature, threshold) by exhaustive scan of midpoints between
   consecutive distinct sorted values. *)
let best_split features labels idxs classes =
  let dim = Array.length features.(0) in
  let n = Array.length idxs in
  let parent = gini labels idxs classes in
  let best = ref None in
  for f = 0 to dim - 1 do
    let sorted = Array.copy idxs in
    Array.sort (fun a b -> Float.compare features.(a).(f) features.(b).(f)) sorted;
    for cut = 1 to n - 1 do
      let lo = features.(sorted.(cut - 1)).(f) in
      let hi = features.(sorted.(cut)).(f) in
      if hi > lo then begin
        let threshold = (lo +. hi) /. 2.0 in
        let left = Array.sub sorted 0 cut in
        let right = Array.sub sorted cut (n - cut) in
        let wl = float_of_int cut /. float_of_int n in
        let score =
          parent
          -. ((wl *. gini labels left classes)
             +. ((1.0 -. wl) *. gini labels right classes))
        in
        match !best with
        | Some (s, _, _, _, _) when s >= score -> ()
        | _ -> best := Some (score, f, threshold, left, right)
      end
    done
  done;
  (* Zero-gain splits are kept: on XOR-like data no single split
     reduces impurity, yet splitting is what lets the subtrees
     separate the classes.  Termination is safe because both sides of
     a split are non-empty (the threshold lies between two distinct
     values) and [fit] stops at pure nodes and max_depth. *)
  match !best with
  | Some (score, f, threshold, left, right) when score >= -1e-12 ->
      Some (f, threshold, left, right)
  | Some _ | None -> None

let fit ?(max_depth = 8) ?(min_samples = 2) training =
  let _dim = Classifier.validate_training training in
  let { Classifier.features; labels } = training in
  let classes = Classifier.num_classes training in
  let rec build idxs depth =
    if depth >= max_depth || Array.length idxs < min_samples || pure labels idxs
    then Leaf (majority labels idxs classes)
    else
      match best_split features labels idxs classes with
      | None -> Leaf (majority labels idxs classes)
      | Some (feature, threshold, left, right) ->
          Node
            { feature; threshold;
              left = build left (depth + 1);
              right = build right (depth + 1) }
  in
  build (Array.init (Array.length features) Fun.id) 0

let rec classify t x =
  match t with
  | Leaf label -> label
  | Node { feature; threshold; left; right } ->
      if x.(feature) <= threshold then classify left x else classify right x

let classifier ?max_depth ?min_samples training =
  let t = fit ?max_depth ?min_samples training in
  { Classifier.name = "decision-tree"; classify = classify t }

type t = { name : string; classify : float array -> int }
type training = { features : float array array; labels : int array }

let validate_training { features; labels } =
  let n = Array.length features in
  if n = 0 then invalid_arg "Classifier: empty training set";
  if Array.length labels <> n then invalid_arg "Classifier: labels length mismatch";
  let dim = Array.length features.(0) in
  if dim = 0 then invalid_arg "Classifier: empty feature vectors";
  Array.iter
    (fun f -> if Array.length f <> dim then invalid_arg "Classifier: ragged features")
    features;
  Array.iter
    (fun l -> if l < 0 then invalid_arg "Classifier: negative label")
    labels;
  dim

let num_classes { labels; _ } = 1 + Array.fold_left Int.max 0 labels

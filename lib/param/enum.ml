let check_labels labels =
  if labels = [] then invalid_arg "Enum: empty label list";
  if List.length (List.sort_uniq String.compare labels) <> List.length labels then
    invalid_arg "Enum: duplicate labels"

let param ~name ?default labels =
  check_labels labels;
  let default_index =
    match default with
    | None -> 0
    | Some d -> (
        match List.find_index (String.equal d) labels with
        | Some i -> i
        | None -> invalid_arg ("Enum.param: unknown default " ^ d))
  in
  Param.make ~name ~min_value:0.0
    ~max_value:(float_of_int (List.length labels - 1))
    ~step:1.0
    ~default:(float_of_int default_index)

let label_of labels v =
  check_labels labels;
  let n = List.length labels in
  let i = Int.max 0 (Int.min (n - 1) (int_of_float (Float.round v))) in
  match List.nth_opt labels i with
  | Some label -> label
  | None -> invalid_arg "Enum.label_of: index out of range"

let value_of labels label =
  check_labels labels;
  match List.find_index (String.equal label) labels with
  | Some i -> float_of_int i
  | None -> raise Not_found

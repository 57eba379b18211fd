type t = {
  name : string;
  min_value : float;
  max_value : float;
  step : float;
  default : float;
}

let[@inline] num_values_of ~min_value ~max_value ~step =
  1 + int_of_float (floor (((max_value -. min_value) /. step) +. 1e-9))

let[@inline] snap_raw ~min_value ~max_value ~step v =
  let v = Float.min max_value (Float.max min_value v) in
  let i = Float.round ((v -. min_value) /. step) in
  let n = num_values_of ~min_value ~max_value ~step in
  let i = Float.min (float_of_int (n - 1)) (Float.max 0.0 i) in
  min_value +. (i *. step)

let make ~name ~min_value ~max_value ~step ~default =
  if max_value < min_value then invalid_arg "Param.make: max < min";
  if step <= 0.0 then invalid_arg "Param.make: step <= 0";
  if default < min_value || default > max_value then
    invalid_arg "Param.make: default out of range";
  { name; min_value; max_value; step;
    default = snap_raw ~min_value ~max_value ~step default }

let int_range ~name ~lo ~hi ?(step = 1) ~default () =
  make ~name ~min_value:(float_of_int lo) ~max_value:(float_of_int hi)
    ~step:(float_of_int step) ~default:(float_of_int default)

let num_values p =
  num_values_of ~min_value:p.min_value ~max_value:p.max_value ~step:p.step

let value_at p i =
  if i < 0 || i >= num_values p then invalid_arg "Param.value_at: out of range";
  p.min_value +. (float_of_int i *. p.step)

let values p = Array.init (num_values p) (value_at p)
let[@inline] clamp p v = Float.min p.max_value (Float.max p.min_value v)

let snap p v =
  snap_raw ~min_value:p.min_value ~max_value:p.max_value ~step:p.step v

let index_of p v =
  let v = snap p v in
  int_of_float (Float.round ((v -. p.min_value) /. p.step))

let is_valid p v =
  v >= p.min_value -. 1e-9 && v <= p.max_value +. 1e-9
  && Float.abs (snap p v -. v) < 1e-9

let[@inline] normalize p v =
  let span = p.max_value -. p.min_value in
  if Float.equal span 0.0 then 0.0 else (clamp p v -. p.min_value) /. span

(* The array forms run [snap_raw] and [normalize] inline: a float that
   crosses a function boundary is boxed, so calling [snap] once per
   coordinate costs two boxes. *)
let snap_in_place ps c =
  if Array.length c <> Array.length ps then
    invalid_arg "Param.snap_in_place: arity mismatch";
  for i = 0 to Array.length c - 1 do
    let p = ps.(i) in
    c.(i) <-
      snap_raw ~min_value:p.min_value ~max_value:p.max_value ~step:p.step c.(i)
  done

let normalize_into ps c dst pos =
  if Array.length c <> Array.length ps then
    invalid_arg "Param.normalize_into: arity mismatch";
  for i = 0 to Array.length c - 1 do
    Float.Array.set dst (pos + i) (normalize ps.(i) c.(i))
  done

let denormalize p x =
  snap p (p.min_value +. (x *. (p.max_value -. p.min_value)))

let pp ppf p =
  Format.fprintf ppf "%s in [%g, %g] step %g default %g" p.name p.min_value
    p.max_value p.step p.default

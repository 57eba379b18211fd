open Harmony_param
module Lstsq = Harmony_numerics.Lstsq
module Stats = Harmony_numerics.Stats

type vertex_choice = Nearest | Latest

let select ~k ~choice ~space ~points ~target =
  let arr = Array.of_list points in
  let m = Array.length arr in
  let k = Int.min k m in
  match choice with
  | Latest -> Array.sub arr (m - k) k
  | Nearest ->
      let tn = Space.normalize space target in
      let keyed =
        Array.map
          (fun (c, p) -> (Stats.euclidean_distance (Space.normalize space c) tn, (c, p)))
          arr
      in
      Array.sort (fun (a, _) (b, _) -> Float.compare a b) keyed;
      Array.map snd (Array.sub keyed 0 k)

let estimate ?k ?(choice = Nearest) ~space ~points ~target () =
  if points = [] then invalid_arg "Estimator.estimate: no historical points";
  let dims = Space.dims space in
  let k = match k with Some k -> Int.max 1 k | None -> dims + 1 in
  let chosen = select ~k ~choice ~space ~points ~target in
  let coords = Array.map (fun (c, _) -> Space.normalize space c) chosen in
  let values = Array.map snd chosen in
  if Array.length chosen = 1 then values.(0)
  else begin
    let coeffs = Lstsq.fit_hyperplane coords values in
    Lstsq.predict_hyperplane coeffs (Space.normalize space target)
  end

let fill ?k ?choice ~space ~points ~targets () =
  List.map (fun target -> (target, estimate ?k ?choice ~space ~points ~target ())) targets

(* The feasibility oracle the RSL, property and server tests judge
   assignments by: the right arity, and every bundle's value inside
   its conditional range and on its step, as {!Harmony_param.Rsl.bounds}
   reads them. *)
module Rsl = Harmony_param.Rsl

let feasible t values =
  let n = List.length (Rsl.names t) in
  n = Array.length values
  && List.for_all
       (fun i ->
         let lo, hi, step = Rsl.bounds t values i in
         let v = values.(i) in
         v >= lo && v <= hi && (v - lo) mod step = 0)
       (List.init n Fun.id)

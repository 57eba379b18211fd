open Harmony_param
open Harmony_objective

let grid_space ~dims ~lo ~hi ~step ~default =
  let p i =
    Param.make ~name:(Printf.sprintf "p%d" i) ~min_value:lo ~max_value:hi ~step
      ~default
  in
  Space.create (List.init dims p)

let quadratic_bowl ?(dims = 3) ?target () =
  let space = grid_space ~dims ~lo:0.0 ~hi:100.0 ~step:1.0 ~default:10.0 in
  let target =
    match target with Some t -> t | None -> Array.make dims 50.0
  in
  if Array.length target <> dims then invalid_arg "Testbed.quadratic_bowl: target arity";
  let eval c =
    let s = ref 0.0 in
    Array.iteri
      (fun i v ->
        let d = v -. target.(i) in
        s := !s +. (d *. d))
      c;
    !s
  in
  Objective.create ~space ~direction:Objective.Lower_is_better eval

let rosenbrock ?(dims = 2) () =
  let space = grid_space ~dims ~lo:(-2.048) ~hi:2.048 ~step:0.016 ~default:(-1.2) in
  let eval c =
    let s = ref 0.0 in
    for i = 0 to dims - 2 do
      let a = c.(i + 1) -. (c.(i) *. c.(i)) in
      let b = 1.0 -. c.(i) in
      s := !s +. (100.0 *. a *. a) +. (b *. b)
    done;
    !s
  in
  Objective.create ~space ~direction:Objective.Lower_is_better eval

let rastrigin ?(dims = 2) () =
  let space = grid_space ~dims ~lo:(-5.12) ~hi:5.12 ~step:0.08 ~default:4.0 in
  let eval c =
    let s = ref (10.0 *. float_of_int dims) in
    Array.iter
      (fun v -> s := !s +. ((v *. v) -. (10.0 *. cos (2.0 *. Float.pi *. v))))
      c;
    !s
  in
  Objective.create ~space ~direction:Objective.Lower_is_better eval

let interior_peak ?(dims = 3) ?peak () =
  let space = grid_space ~dims ~lo:0.0 ~hi:100.0 ~step:1.0 ~default:10.0 in
  let peak = match peak with Some p -> p | None -> Array.make dims 60.0 in
  if Array.length peak <> dims then invalid_arg "Testbed.interior_peak: peak arity";
  (* A smooth single peak; performance collapses towards the box
     boundary, mimicking thrashing at extreme parameter values. *)
  let eval c =
    let d2 = ref 0.0 in
    Array.iteri
      (fun i v ->
        let d = (v -. peak.(i)) /. 100.0 in
        d2 := !d2 +. (d *. d))
      c;
    100.0 *. exp (-4.0 *. !d2)
  in
  Objective.create ~space ~direction:Objective.Higher_is_better eval

let step_plateau ?(dims = 2) () =
  let space = grid_space ~dims ~lo:0.0 ~hi:100.0 ~step:1.0 ~default:0.0 in
  let eval c =
    let s = ref 0.0 in
    Array.iter
      (fun v ->
        (* Plateaus of width 20 rising towards the middle then falling. *)
        let bucket = int_of_float v / 20 in
        let score = match bucket with 0 -> 10.0 | 1 -> 30.0 | 2 -> 50.0 | 3 -> 30.0 | _ -> 10.0 in
        s := !s +. score)
      c;
    !s
  in
  Objective.create ~space ~direction:Objective.Higher_is_better eval

let with_irrelevant obj idxs =
  let space = obj.Objective.space in
  List.iter
    (fun i ->
      if i < 0 || i >= Space.dims space then
        invalid_arg "Testbed.with_irrelevant: index out of range")
    idxs;
  let defaults = Space.defaults space in
  let mask c =
    let c' = Array.copy c in
    List.iter (fun i -> c'.(i) <- defaults.(i)) idxs;
    c'
  in
  let eval c = obj.Objective.eval (mask c) in
  let batch disp configs =
    Objective.run_batch obj disp (Array.map mask configs)
  in
  { obj with Objective.eval; batch = Some batch }

let negate (t : Objective.t) =
  let direction =
    match t.direction with
    | Higher_is_better -> Objective.Lower_is_better
    | Lower_is_better -> Higher_is_better
  in
  {
    t with
    direction;
    eval = (fun c -> -.t.eval c);
    batch =
      Some
        (fun disp configs ->
          Array.map Float.neg (Objective.run_batch t disp configs));
  }

let with_snap (t : Objective.t) =
  let snap c = Space.snap t.space c in
  (* Snapping merges distinct configurations into one grid point, so
     keyed draws below are no longer keyed by this layer's input: the
     point's attempt counter advances in whatever order the merged
     configurations arrive.  Above a snap they count as [Stream]. *)
  let randomness =
    match t.randomness with
    | Keyed -> Objective.Stream
    | Deterministic | Stream -> t.randomness
  in
  {
    t with
    eval = (fun c -> t.eval (snap c));
    batch =
      Some
        (fun disp configs ->
          Objective.run_batch t disp (Array.map snap configs));
    randomness;
  }

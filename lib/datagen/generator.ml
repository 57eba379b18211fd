open Harmony_param
open Harmony_objective
module Rng = Harmony_numerics.Rng

type bump = { mu : float; sigma : float; weight : float }

type t = {
  space : Space.t;
  workload_dims : int;
  irrelevant : int list;
  bumps : bump array; (* one per tunable parameter; weight 0 if irrelevant *)
  interactions : (int * int * float) array;
  workload_matrix : float array array; (* weight modulation.(param).(workload dim) *)
  peak_shift : float array array; (* bump-centre drift.(param).(workload dim) *)
  cells_per_param : int;
  cells_per_workload : int;
  scale : float;
  offset : float;
}

(* ------------------------------------------------------------------ *)
(* Ground-truth response                                               *)

let check_workload t w =
  if Array.length w <> t.workload_dims then
    invalid_arg "Generator: workload arity mismatch"

let raw_response t c w =
  let n = Space.dims t.space in
  if Array.length c <> n then invalid_arg "Generator: config arity mismatch";
  let norm = Space.normalize t.space c in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let b = t.bumps.(i) in
    if not (Float.equal b.weight 0.0) then begin
      let modulation = ref 1.0 in
      let mu = ref b.mu in
      for j = 0 to t.workload_dims - 1 do
        modulation := !modulation +. (t.workload_matrix.(i).(j) *. (w.(j) -. 0.5));
        (* The workload also moves where the optimum sits, so distant
           workloads genuinely need different configurations. *)
        mu := !mu +. (t.peak_shift.(i).(j) *. (w.(j) -. 0.5))
      done;
      let mu = Float.min 0.95 (Float.max 0.05 !mu) in
      let d = (norm.(i) -. mu) /. b.sigma in
      acc := !acc +. (b.weight *. Float.max 0.2 !modulation *. exp (-.(d *. d)))
    end
  done;
  Array.iter
    (fun (i, j, strength) -> acc := !acc +. (strength *. norm.(i) *. norm.(j)))
    t.interactions;
  !acc

(* ------------------------------------------------------------------ *)
(* Rule-cell quantization                                              *)

let param_cells t i =
  if List.mem i t.irrelevant then 1 else t.cells_per_param

(* Centre of the cell containing [v] when [lo, hi] is cut into [cells]
   equal parts; values on a boundary belong to the upper cell. *)
let cell_center ~lo ~hi ~cells v =
  if cells <= 1 then (lo +. hi) /. 2.0
  else begin
    let width = (hi -. lo) /. float_of_int cells in
    let idx = int_of_float (floor ((v -. lo) /. width)) in
    let idx = Int.max 0 (Int.min (cells - 1) idx) in
    lo +. ((float_of_int idx +. 0.5) *. width)
  end

let quantize_config t c =
  Array.mapi
    (fun i v ->
      let p = Space.param t.space i in
      cell_center ~lo:p.Param.min_value ~hi:p.Param.max_value
        ~cells:(param_cells t i) v)
    c

let quantize_workload t w =
  Array.map (fun v -> cell_center ~lo:0.0 ~hi:1.0 ~cells:t.cells_per_workload v) w

let eval t c ~workload =
  check_workload t workload;
  t.offset
  +. (t.scale *. raw_response t (quantize_config t c) (quantize_workload t workload))

let objective t ~workload =
  check_workload t workload;
  let workload = Array.copy workload in
  Objective.create ~space:t.space ~direction:Objective.Higher_is_better (fun c ->
      eval t c ~workload)

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)

let generate ~space ?(workload_dims = 3) ?(irrelevant = []) ?(cells_per_param = 8)
    ?(cells_per_workload = 4) ?(interaction_strength = 0.1)
    ?(perf_range = (1.0, 50.0)) ~seed () =
  let n = Space.dims space in
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Generator.generate: irrelevant index")
    irrelevant;
  if cells_per_param < 1 || cells_per_workload < 1 then
    invalid_arg "Generator.generate: cells must be >= 1";
  let rng = Rng.create seed in
  let relevant =
    List.filter (fun i -> not (List.mem i irrelevant)) (List.init n Fun.id)
  in
  (* Weights form a jittered geometric ladder (ratio 0.65) assigned to
     the relevant parameters in shuffled order: a few parameters
     dominate the response (so tuning only the top-n costs little,
     Figure 6) while every relevant parameter keeps a nonzero
     sensitivity (Figure 5). *)
  let weights =
    let ranks = Array.of_list relevant in
    Rng.shuffle rng ranks;
    let w = Array.make n 0.0 in
    Array.iteri
      (fun rank i ->
        w.(i) <- 40.0 *. (0.65 ** float_of_int rank) *. exp (Rng.uniform rng (-0.3) 0.3))
      ranks;
    w
  in
  let bumps =
    Array.init n (fun i ->
        if List.mem i irrelevant then { mu = 0.5; sigma = 1.0; weight = 0.0 }
        else
          {
            mu = Rng.uniform rng 0.2 0.8;
            sigma = Rng.uniform rng 0.2 0.5;
            weight = weights.(i);
          })
  in
  let interactions =
    (* A handful of weak pairwise terms among relevant parameters. *)
    let pairs = ref [] in
    let rel = Array.of_list relevant in
    let count = Int.min 4 (Array.length rel / 2) in
    for _ = 1 to count do
      let i = Rng.choice rng rel and j = Rng.choice rng rel in
      if i <> j then
        pairs := (i, j, Rng.uniform rng (-.interaction_strength) interaction_strength) :: !pairs
    done;
    Array.of_list !pairs
  in
  let workload_matrix =
    Array.init n (fun i ->
        Array.init workload_dims (fun _ ->
            if List.mem i irrelevant then 0.0 else Rng.uniform rng (-0.8) 0.8))
  in
  let peak_shift =
    Array.init n (fun i ->
        Array.init workload_dims (fun _ ->
            if List.mem i irrelevant then 0.0 else Rng.uniform rng (-0.5) 0.5))
  in
  let t =
    {
      space;
      workload_dims;
      irrelevant;
      bumps;
      interactions;
      workload_matrix;
      peak_shift;
      cells_per_param;
      cells_per_workload;
      scale = 1.0;
      offset = 0.0;
    }
  in
  (* Rescale the raw response onto [perf_range] using a random sample
     of cell centres. *)
  let sample_rng = Rng.create (seed lxor 0x55aa55) in
  let samples =
    Array.init 4096 (fun _ ->
        let c = quantize_config t (Space.random sample_rng space) in
        let w =
          quantize_workload t
            (Array.init workload_dims (fun _ -> Rng.float sample_rng 1.0))
        in
        raw_response t c w)
  in
  let lo_raw = Harmony_numerics.Stats.min samples in
  let hi_raw = Harmony_numerics.Stats.max samples in
  let lo, hi = perf_range in
  let scale = if hi_raw > lo_raw then (hi -. lo) /. (hi_raw -. lo_raw) else 1.0 in
  { t with scale; offset = lo -. (scale *. lo_raw) }

let letters = [| "D"; "E"; "F"; "G"; "H"; "I"; "J"; "K"; "L"; "M"; "N"; "O"; "P"; "Q"; "R" |]

let synthetic_webservice ?(seed = 42) () =
  let params =
    Array.to_list
      (Array.map
         (fun name -> Param.int_range ~name ~lo:1 ~hi:10 ~default:5 ())
         letters)
  in
  let space = Space.create params in
  (* H is index 4 and M is index 9: the two performance-irrelevant
     parameters of Section 5.2. *)
  generate ~space ~workload_dims:3 ~irrelevant:[ 4; 9 ] ~seed ()

let space t = t.space
let irrelevant t = t.irrelevant

let mix ~browsing ~shopping ~ordering =
  let total = browsing +. shopping +. ordering in
  if total <= 0.0 then invalid_arg "Generator.mix: non-positive total";
  [| browsing /. total; shopping /. total; ordering /. total |]

let browsing_mix = mix ~browsing:0.95 ~shopping:0.04 ~ordering:0.01
let shopping_mix = mix ~browsing:0.80 ~shopping:0.15 ~ordering:0.05
let ordering_mix = mix ~browsing:0.50 ~shopping:0.25 ~ordering:0.25

let objective_of_rules rules ~space ?(workload = [||]) () =
  let dims = Space.dims space in
  if Rules.num_vars rules <> dims + Array.length workload then
    invalid_arg "Generator.objective_of_rules: rule arity mismatch";
  let workload = Array.copy workload in
  Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
      Rules.eval rules (Array.append c workload))

(* ------------------------------------------------------------------ *)
(* Explicit rule materialization                                       *)

let to_rules ?(max_rules = 100_000) t =
  let n = Space.dims t.space in
  let wd = t.workload_dims in
  let cells_of_var v = if v < n then param_cells t v else t.cells_per_workload in
  let range_of_var v =
    if v < n then begin
      let p = Space.param t.space v in
      (p.Param.min_value, p.Param.max_value)
    end
    else (0.0, 1.0)
  in
  let total =
    let acc = ref 1.0 in
    for v = 0 to n + wd - 1 do
      acc := !acc *. float_of_int (cells_of_var v)
    done;
    !acc
  in
  if total > float_of_int max_rules then
    invalid_arg "Generator.to_rules: too many cells to materialize";
  let num_vars = n + wd in
  let ranges = Array.init num_vars range_of_var in
  (* Enumerate cell index vectors; emit one rule per cell. *)
  let indices = Array.make num_vars 0 in
  let out = ref [] in
  let rec go v =
    if v = num_vars then begin
      let conditions = ref [] in
      let center = Array.make num_vars 0.0 in
      for u = num_vars - 1 downto 0 do
        let lo, hi = ranges.(u) in
        let cells = cells_of_var u in
        let width = (hi -. lo) /. float_of_int cells in
        let c_lo = lo +. (float_of_int indices.(u) *. width) in
        let c_hi = if indices.(u) = cells - 1 then hi else c_lo +. width -. 1e-9 in
        center.(u) <- c_lo +. (width /. 2.0);
        if cells > 1 then
          conditions := { Rules.var = u; lo = c_lo; hi = c_hi } :: !conditions
      done;
      let config = Array.sub center 0 n in
      let w = Array.sub center n wd in
      let performance = t.offset +. (t.scale *. raw_response t config w) in
      out := { Rules.conditions = !conditions; performance } :: !out
    end
    else
      for i = 0 to cells_of_var v - 1 do
        indices.(v) <- i;
        go (v + 1)
      done
  in
  go 0;
  Rules.create ~num_vars ~ranges (List.rev !out)

open Harmony_param
open Harmony_objective
module Rng = Harmony_numerics.Rng

type outcome = {
  best_config : Space.config;
  best_performance : float;
  trace : Recorder.entry list;
  evaluations : int;
}

let outcome_of_recorder obj recorder =
  match Recorder.best obj recorder with
  | None -> invalid_arg "Baselines: no evaluations performed"
  | Some best ->
      {
        best_config = best.Recorder.config;
        best_performance = best.Recorder.performance;
        trace = Recorder.entries recorder;
        evaluations = Recorder.count recorder;
      }

let random_search rng ?(max_evaluations = 400) obj =
  if max_evaluations < 1 then invalid_arg "Baselines.random_search: empty budget";
  let recorder, recorded = Recorder.wrap obj in
  for _ = 1 to max_evaluations do
    ignore (recorded.Objective.eval (Space.random rng obj.Objective.space))
  done;
  outcome_of_recorder obj recorder

let check_cardinality name limit space =
  let card = Space.cardinality space in
  if card > float_of_int limit then
    invalid_arg
      (Printf.sprintf "%s: space has %.3g configurations (limit %d)" name card limit)

let exhaustive ?(limit = 1_000_000) obj =
  check_cardinality "Baselines.exhaustive" limit obj.Objective.space;
  let recorder, recorded = Recorder.wrap obj in
  Seq.iter
    (fun c -> ignore (recorded.Objective.eval c))
    (Space.enumerate obj.Objective.space);
  outcome_of_recorder obj recorder

let sweep ?(limit = 1_000_000) obj =
  check_cardinality "Baselines.sweep" limit obj.Objective.space;
  let out = ref [] in
  Seq.iter
    (fun c -> out := obj.Objective.eval c :: !out)
    (Space.enumerate obj.Objective.space);
  Array.of_list (List.rev !out)

let random_sweep rng ~samples obj =
  if samples < 1 then invalid_arg "Baselines.random_sweep: samples < 1";
  Array.init samples (fun _ ->
      obj.Objective.eval (Space.random rng obj.Objective.space))

let simulated_annealing rng ?(max_evaluations = 400) ?initial_temperature obj =
  if max_evaluations < 1 then
    invalid_arg "Baselines.simulated_annealing: empty budget";
  let space = obj.Objective.space in
  let recorder, recorded = Recorder.wrap obj in
  let eval c = recorded.Objective.eval c in
  let current = ref (Space.defaults space) in
  let current_value = ref (eval !current) in
  let t0 =
    match initial_temperature with
    | Some t -> t
    | None -> Float.max 1e-9 (0.1 *. Float.abs !current_value)
  in
  (* Geometric cooling reaching t0/100 at the end of the budget. *)
  let steps = Int.max 1 (max_evaluations - 1) in
  let alpha = exp (log 0.01 /. float_of_int steps) in
  let temperature = ref t0 in
  while Recorder.count recorder < max_evaluations do
    let neighbors = Space.neighbors space !current in
    (match neighbors with
    | [] -> ()
    | _ :: _ ->
        let candidate = Rng.choice rng (Array.of_list neighbors) in
        let v = eval candidate in
        let accept =
          Objective.better obj v !current_value
          ||
          let delta = Float.abs (v -. !current_value) in
          Rng.float rng 1.0 < exp (-.delta /. !temperature)
        in
        if accept then begin
          current := candidate;
          current_value := v
        end);
    temperature := !temperature *. alpha
  done;
  outcome_of_recorder obj recorder

(* ------------------------------------------------------------------ *)
(* Powell's direction-set method on a grid.                           *)

let powell ?(max_evaluations = 400) ?(line_points = 9) obj =
  if line_points < 3 then invalid_arg "Baselines.powell: line_points < 3";
  let space = obj.Objective.space in
  let n = Space.dims space in
  let recorder, recorded = Recorder.wrap obj in
  let budget_left () = Recorder.count recorder < max_evaluations in
  let eval c = recorded.Objective.eval c in
  (* Line search: sample [line_points] parameters t such that
     current + t * dir stays in the box; keep the best snapped point. *)
  let line_search current current_value dir =
    (* Feasible t range per dimension, intersected. *)
    let tmin = ref neg_infinity and tmax = ref infinity in
    Array.iteri
      (fun i d ->
        if Float.abs d > 1e-12 then begin
          let p = Space.param space i in
          let lo = (p.Param.min_value -. current.(i)) /. d in
          let hi = (p.Param.max_value -. current.(i)) /. d in
          let lo, hi = if lo <= hi then (lo, hi) else (hi, lo) in
          tmin := Float.max !tmin lo;
          tmax := Float.min !tmax hi
        end)
      dir;
    if !tmin > !tmax || Float.equal !tmax infinity || Float.equal !tmin neg_infinity
    then
      (current, current_value)
    else begin
      let best_c = ref current and best_v = ref current_value in
      let seen = ref [ current ] in
      for k = 0 to line_points - 1 do
        let t =
          !tmin +. (float_of_int k /. float_of_int (line_points - 1) *. (!tmax -. !tmin))
        in
        let c =
          Space.snap space (Array.mapi (fun i v -> v +. (t *. dir.(i))) current)
        in
        if (not (List.exists (Space.config_equal c) !seen)) && budget_left () then begin
          seen := c :: !seen;
          let v = eval c in
          if Objective.better obj v !best_v then begin
            best_c := c;
            best_v := v
          end
        end
      done;
      (!best_c, !best_v)
    end
  in
  let directions =
    Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0))
  in
  let current = ref (Space.defaults space) in
  let current_value = ref (eval !current) in
  let improved = ref true in
  while !improved && budget_left () do
    improved := false;
    let round_start = Array.copy !current in
    let round_start_value = !current_value in
    let biggest_gain = ref 0.0 in
    let biggest_idx = ref (-1) in
    Array.iteri
      (fun i dir ->
        if budget_left () then begin
          let before = !current_value in
          let c, v = line_search !current !current_value dir in
          let gain = Float.abs (v -. before) in
          if Objective.better obj v !current_value then begin
            current := c;
            current_value := v;
            improved := true
          end;
          if gain > !biggest_gain then begin
            biggest_gain := gain;
            biggest_idx := i
          end
        end)
      directions;
    (* Powell update: replace the direction of largest improvement by
       the overall displacement of this round. *)
    if !biggest_idx >= 0 then begin
      let disp = Array.mapi (fun i v -> v -. round_start.(i)) !current in
      let nonzero = Array.exists (fun v -> Float.abs v > 1e-12) disp in
      if nonzero && budget_left () then begin
        let c, v = line_search !current !current_value disp in
        if Objective.better obj v !current_value then begin
          current := c;
          current_value := v;
          improved := true
        end;
        directions.(!biggest_idx) <- disp
      end
    end;
    if
      Space.config_equal round_start !current
      && Float.equal round_start_value !current_value
    then improved := false
  done;
  outcome_of_recorder obj recorder

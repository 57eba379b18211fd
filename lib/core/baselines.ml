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

let exhaustive ?(limit = 1_000_000) obj =
  let card = Space.cardinality obj.Objective.space in
  if card > float_of_int limit then
    invalid_arg
      (Printf.sprintf
         "Baselines.exhaustive: space has %.3g configurations (limit %d)" card
         limit);
  let recorder, recorded = Recorder.wrap obj in
  Seq.iter
    (fun c -> ignore (recorded.Objective.eval c))
    (Space.enumerate obj.Objective.space);
  outcome_of_recorder obj recorder

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

open Harmony_param
open Harmony_objective

type score = {
  index : int;
  name : string;
  sensitivity : float;
  best_value : float;
  worst_value : float;
  evaluations : int;
}

type report = { scores : score array }

(* Evenly subsample [count] indices out of [0 .. n-1], endpoints
   included. *)
let subsample n count =
  if count >= n then Array.init n Fun.id
  else
    Array.init count (fun i ->
        let f = float_of_int i /. float_of_int (count - 1) in
        int_of_float (Float.round (f *. float_of_int (n - 1))))

module Telemetry = Harmony_telemetry.Telemetry

let analyze ?(telemetry = Telemetry.off) ?pool ?(max_points = 16) ?(repeats = 1)
    obj =
  if max_points < 2 then invalid_arg "Sensitivity.analyze: max_points < 2";
  if repeats < 1 then invalid_arg "Sensitivity.analyze: repeats < 1";
  Telemetry.span telemetry "sensitivity" @@ fun () ->
  let space = obj.Objective.space in
  let defaults = Space.defaults space in
  (* Per-parameter sweep plans, flattened into one batch over every
     (parameter, value, repeat) in the exact sequential order — the
     one-at-a-time sweeps are independent, so the batch engine fans
     them across the pool while keeping the readings (and, for a noisy
     objective, the draw order — [eval_batch] then folds sequentially)
     byte-identical to the sequential per-parameter loops. *)
  let plans =
    Array.init (Space.dims space) (fun index ->
        let p = Space.param space index in
        let picks = subsample (Param.num_values p) max_points in
        (index, p, Array.map (Param.value_at p) picks))
  in
  let rev_configs = ref [] in
  Array.iter
    (fun (index, _, values) ->
      Array.iter
        (fun v ->
          let c = Array.copy defaults in
          c.(index) <- v;
          for _ = 1 to repeats do
            rev_configs := c :: !rev_configs
          done)
        values)
    plans;
  let all = Objective.eval_batch ?pool obj (Array.of_list (List.rev !rev_configs)) in
  let cursor = ref 0 in
  let scores =
    Array.map
      (fun (index, p, values) ->
        let perfs =
          Array.map
            (fun _ ->
              let total = ref 0.0 in
              for _ = 1 to repeats do
                total := !total +. all.(!cursor);
                incr cursor
              done;
              !total /. float_of_int repeats)
            values
        in
        (* argmax / argmin of the sweep. *)
        let a = ref 0 and b = ref 0 in
        Array.iteri
          (fun i perf ->
            if perf > perfs.(!a) then a := i;
            if perf < perfs.(!b) then b := i)
          perfs;
        let dp = Float.abs (perfs.(!a) -. perfs.(!b)) in
        let dv =
          Float.abs (Param.normalize p values.(!a) -. Param.normalize p values.(!b))
        in
        let sensitivity = if Float.equal dv 0.0 then 0.0 else dp /. dv in
        {
          index;
          name = p.Param.name;
          sensitivity;
          best_value = values.(!a);
          worst_value = values.(!b);
          evaluations = Array.length values * repeats;
        })
      plans
  in
  (* Per-parameter instants are emitted here, sequentially over the
     finished scores, so the trace is identical whether the sweeps ran
     pooled or not. *)
  Array.iter
    (fun s ->
      Telemetry.instant telemetry "sensitivity.param"
        ~args:
          [
            ("name", Telemetry.Str s.name);
            ("sensitivity", Telemetry.Num s.sensitivity);
          ];
      Telemetry.incr telemetry ~by:s.evaluations "sensitivity.evaluations")
    scores;
  { scores }

let ranked report =
  let scores = Array.copy report.scores in
  Array.sort
    (fun a b ->
      match Float.compare b.sensitivity a.sensitivity with
      | 0 -> Int.compare a.index b.index
      | c -> c)
    scores;
  scores

let top_n report n =
  let scores = ranked report in
  let n = Int.max 0 (Int.min n (Array.length scores)) in
  List.sort Int.compare (List.init n (fun i -> scores.(i).index))

let evaluations report =
  Array.fold_left (fun acc s -> acc + s.evaluations) 0 report.scores

let pp ppf report =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun s -> Format.fprintf ppf "%-24s %10.3f@," s.name s.sensitivity)
    (ranked report);
  Format.fprintf ppf "@]"

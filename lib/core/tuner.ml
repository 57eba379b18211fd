open Harmony_param
open Harmony_objective

type options = {
  init : Simplex.Init.t;
  max_evaluations : int;
  tolerance : float;
  measure : Measure.policy option;
  on_evaluation : (Recorder.entry -> unit) option;
}

let default_options =
  {
    init = Simplex.Init.Spread;
    max_evaluations = 400;
    tolerance = 1e-3;
    measure = None;
    on_evaluation = None;
  }

let original_options = { default_options with init = Simplex.Init.Extremes }

type outcome = {
  best_config : Space.config;
  best_performance : float;
  trace : Recorder.entry list;
  evaluations : int;
  converged : bool;
  measurement : Measure.summary option;
}

module Telemetry = Harmony_telemetry.Telemetry

let tune ?(telemetry = Telemetry.off) ?ctx ?pool ?(options = default_options)
    obj =
  (* With a measurement policy, every evaluation the kernel requests
     goes through the fault-tolerant pipeline; a measurement that
     exhausts the policy evaluates to the worst-case penalty, so the
     simplex walks away from the failed vertex instead of being
     poisoned by it. *)
  let measured, handle =
    match options.measure with
    | None -> (obj, None)
    | Some policy ->
        let robust, handle = Measure.robust ~telemetry ~policy obj in
        (robust, Some handle)
  in
  let evaluations = Telemetry.counter telemetry "tuner.evaluations" in
  let controller =
    Controller.create ~telemetry
      ~options:
        {
          Simplex.init = options.init;
          max_evaluations = options.max_evaluations;
          tolerance = options.tolerance;
        }
      ~space:obj.Objective.space ~direction:obj.Objective.direction ()
  in
  let rev_trace = ref [] in
  (* Once a batch's readings return, on the calling domain in batch
     order (so at any pool size): a [measure] span per reading, a child
     of [ctx] numbered in evaluation order, then its trace entry and
     the [on_evaluation] hook. *)
  let measure batch =
    let values = Objective.eval_batch ?pool measured batch in
    let first = Controller.measurements controller in
    if Telemetry.enabled telemetry then
      for i = 0 to Array.length values - 1 do
        (match ctx with
        | None -> Telemetry.span_begin telemetry "measure"
        | Some c ->
            let ctx = Telemetry.Ctx.child_i c "measure" (first + i) in
            Telemetry.span_begin telemetry ~ctx "measure");
        Telemetry.add evaluations 1;
        Telemetry.span_end telemetry
          ~args:[ ("performance", Telemetry.Num values.(i)) ]
          "measure"
      done;
    for i = 0 to Array.length values - 1 do
      let config = Array.copy batch.(i) in
      let entry = { Recorder.index = first + i; config; performance = values.(i) } in
      rev_trace := entry :: !rev_trace;
      match options.on_evaluation with Some hook -> hook entry | None -> ()
    done;
    values
  in
  let rec run () =
    match Controller.outcome controller with
    | Some result -> result
    | None ->
        (match measure (Controller.asked controller) with
        | values -> Controller.tell controller values
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Controller.abandon controller;
            Printexc.raise_with_backtrace e bt);
        run ()
  in
  let result = run () in
  {
    best_config = result.Simplex.best_config;
    best_performance = result.Simplex.best_performance;
    trace = List.rev !rev_trace;
    evaluations = result.Simplex.evaluations;
    converged = result.Simplex.converged;
    measurement = Option.map Measure.summary handle;
  }

let trace_csv space outcome =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "iteration";
  Array.iter
    (fun p ->
      Buffer.add_char buf ',';
      Buffer.add_string buf p.Param.name)
    (Space.params space);
  Buffer.add_string buf ",performance\n";
  List.iter
    (fun e ->
      Buffer.add_string buf (string_of_int (e.Recorder.index + 1));
      Array.iter
        (fun v ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "%g" v))
        e.Recorder.config;
      Buffer.add_string buf (Printf.sprintf ",%g\n" e.Recorder.performance))
    outcome.trace;
  Buffer.contents buf

module Metrics = struct
  type t = {
    performance : float;
    convergence_iteration : int;
    settling_iteration : int;
    worst_performance : float;
    bad_iterations : int;
    initial_mean : float;
    initial_stddev : float;
  }

  (* Direction-aware test: is [p] within [frac] of [target]? *)
  let within obj frac target p =
    match obj.Objective.direction with
    | Objective.Higher_is_better -> p >= target *. (1.0 -. frac)
    | Objective.Lower_is_better -> p <= target *. (1.0 +. frac)

  let of_outcome ?(convergence_fraction = 0.05) ?(bad_fraction = 0.8) ?reference
      obj outcome =
    let perfs =
      Array.of_list (List.map (fun e -> e.Recorder.performance) outcome.trace)
    in
    let n = Array.length perfs in
    if n = 0 then
      {
        performance = outcome.best_performance;
        convergence_iteration = 0;
        settling_iteration = 0;
        worst_performance = outcome.best_performance;
        bad_iterations = 0;
        initial_mean = outcome.best_performance;
        initial_stddev = 0.0;
      }
    else begin
      let final_best = outcome.best_performance in
      let reference = Option.value reference ~default:final_best in
      (* Best-so-far series, under the best-measured rule. *)
      let best_so_far = Array.make n perfs.(0) in
      for i = 1 to n - 1 do
        best_so_far.(i) <-
          (if
             Objective.improves obj.Objective.direction perfs.(i)
               best_so_far.(i - 1)
           then perfs.(i)
           else best_so_far.(i - 1))
      done;
      let convergence_iteration =
        let rec find i =
          if i >= n then n
          else if within obj convergence_fraction reference best_so_far.(i) then
            i + 1
          else find (i + 1)
        in
        find 0
      in
      (* Last iteration that still improved the incumbent by more than
         0.5% (relative): how long the tuner kept finding better
         configurations. *)
      let settling_iteration =
        let last = ref 1 in
        for i = 1 to n - 1 do
          let prev = best_so_far.(i - 1) in
          if
            Objective.better obj best_so_far.(i) prev
            && Float.abs (best_so_far.(i) -. prev) > 0.005 *. Float.abs prev
          then last := i + 1
        done;
        !last
      in
      let bad_threshold =
        match obj.Objective.direction with
        | Objective.Higher_is_better -> fun p -> p < reference *. bad_fraction
        | Objective.Lower_is_better -> fun p -> p > reference /. bad_fraction
      in
      let bad_iterations =
        Array.fold_left (fun acc p -> if bad_threshold p then acc + 1 else acc) 0 perfs
      in
      (* The initial oscillation stage: everything before convergence. *)
      let window = Array.sub perfs 0 (Int.max 1 convergence_iteration) in
      {
        performance = final_best;
        convergence_iteration;
        settling_iteration;
        worst_performance = Objective.worst_of obj window;
        bad_iterations;
        initial_mean = Harmony_numerics.Stats.mean window;
        initial_stddev = Harmony_numerics.Stats.stddev window;
      }
    end

  let pp ppf t =
    Format.fprintf ppf
      "perf=%.2f converge@%d settle@%d worst=%.2f bad=%d initial=%.2f (%.2f)"
      t.performance t.convergence_iteration t.settling_iteration
      t.worst_performance t.bad_iterations t.initial_mean t.initial_stddev
end

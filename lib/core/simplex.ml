open Harmony_param
open Harmony_objective

let log_src = Logs.Src.create "harmony.simplex" ~doc:"Nelder-Mead tuning kernel"

module Log = (val Logs.src_log log_src)

module Init = struct
  type t =
    | Extremes
    | Spread
    | Around_default of float
    | Seeded of (Space.config * float option) list

  (* The original predefined simplex "tries the extreme values for the
     parameters" (Figure 1a): n+1 distinct corners of the box, rotating
     which half of the parameters sit at their maximum. *)
  let extremes space =
    let n = Space.dims space in
    let corner j =
      Array.init n (fun i ->
          let p = Space.param space i in
          if (i + j) mod (n + 1) < (n + 1) / 2 then p.Param.max_value
          else p.Param.min_value)
    in
    List.init (n + 1) (fun j -> (corner j, None))

  (* A staircase spread: vertex j places parameter i at the interior
     grid fraction (((i + j) mod (n+1)) + 1/2) / (n+1), so the n+1
     vertices jointly cover every (n+1)-ile of every parameter without
     touching the boundaries. *)
  let spread space =
    let n = Space.dims space in
    let vertex j =
      Array.init n (fun i ->
          let p = Space.param space i in
          let frac = (float_of_int ((i + j) mod (n + 1)) +. 0.5) /. float_of_int (n + 1) in
          Param.denormalize p frac)
    in
    List.init (n + 1) (fun j -> (vertex j, None))

  let around_default offset space =
    let n = Space.dims space in
    let base = Space.defaults space in
    let shifted i =
      let c = Array.copy base in
      let p = Space.param space i in
      let span = p.Param.max_value -. p.Param.min_value in
      let v = c.(i) +. (offset *. span) in
      (* Flip the offset direction rather than collapse onto the
         boundary. *)
      c.(i) <- (if v > p.Param.max_value then c.(i) -. (offset *. span) else v);
      c
    in
    (base, None) :: List.init n (fun i -> (shifted i, None))

  let dedup space vertices =
    let rec go seen = function
      | [] -> List.rev seen
      | (c, v) :: rest ->
          if List.exists (fun (c', _) -> Space.config_equal c c') seen then
            go seen rest
          else go ((c, v) :: seen) rest
    in
    go []
      (List.map (fun (c, v) -> (Space.snap space c, v)) vertices)

  let vertices t space =
    let n = Space.dims space in
    let raw =
      match t with
      | Extremes -> extremes space
      | Spread -> spread space
      | Around_default offset -> around_default offset space
      | Seeded seeds ->
          (* Fill up to n+1 vertices from a Spread simplex, skipping
             duplicates of the seeds. *)
          let seeds = dedup space seeds in
          let missing = (n + 1) - List.length seeds in
          if missing <= 0 then seeds
          else begin
            let fillers =
              List.filter
                (fun (c, _) ->
                  not (List.exists (fun (s, _) -> Space.config_equal c s) seeds))
                (spread space)
            in
            seeds @ List.filteri (fun i _ -> i < missing) fillers
          end
    in
    dedup space raw
end

type options = { init : Init.t; max_evaluations : int; tolerance : float }

let default_options = { init = Init.Spread; max_evaluations = 400; tolerance = 1e-3 }

type outcome = {
  best_config : Space.config;
  best_performance : float;
  evaluations : int;
  iterations : int;
  converged : bool;
}

type vertex = { config : Space.config; value : float }

(* Normalized simplex diameter: the largest pairwise Chebyshev
   distance in [0,1]^n coordinates. *)
let diameter space vertices =
  let norm = Array.map (fun v -> Space.normalize space v.config) vertices in
  let d = ref 0.0 in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if j > i then
            d := Float.max !d (Harmony_numerics.Stats.chebyshev_distance a b))
        norm)
    norm;
  !d

module Telemetry = Harmony_telemetry.Telemetry

(* What one simplex step did, for the step's instant and its span's
   [kind] argument.  Names and args are constants, so a step builds no
   string. *)
type step = No_step | Converged | Reflect | Expand | Contract | Shrink

let step_instant = function
  | No_step -> "simplex.none"
  | Converged -> "simplex.converged"
  | Reflect -> "simplex.reflect"
  | Expand -> "simplex.expand"
  | Contract -> "simplex.contract"
  | Shrink -> "simplex.shrink"

let step_args = function
  | No_step -> [ ("kind", Telemetry.Str "none") ]
  | Converged -> [ ("kind", Telemetry.Str "converged") ]
  | Reflect -> [ ("kind", Telemetry.Str "reflect") ]
  | Expand -> [ ("kind", Telemetry.Str "expand") ]
  | Contract -> [ ("kind", Telemetry.Str "contract") ]
  | Shrink -> [ ("kind", Telemetry.Str "shrink") ]

let optimize ?(telemetry = Telemetry.off) ?pool ?(options = default_options) obj =
  let space = obj.Objective.space in
  let n = Space.dims space in
  if options.max_evaluations < n + 2 then
    invalid_arg "Simplex.optimize: budget below n+2 evaluations";
  let evaluations = ref 0 in
  (* Every measurement goes through the batch engine — the phases that
     produce whole config sets (initial simplex, shrink, restarts)
     issue one batch, single proposals are batches of one — so the
     evaluation sequence is identical with and without a pool. *)
  let eval_batch configs =
    evaluations := !evaluations + Array.length configs;
    Objective.eval_batch ?pool obj configs
  in
  let eval c = (eval_batch [| c |]).(0) in
  (* What the current simplex step did, for the step span's [kind]
     argument; set at each transformation site below. *)
  let step_kind = ref No_step in
  let steps = Telemetry.counter telemetry "simplex.steps" in
  let budget_left () = !evaluations < options.max_evaluations in
  let iterations = ref 0 in
  let sort vertices =
    Array.sort
      (fun a b ->
        if Objective.better obj a.value b.value then -1
        else if Objective.better obj b.value a.value then 1
        else 0)
      vertices
  in
  let move ~from ~towards ~factor =
    Space.snap space
      (Array.mapi (fun d v -> v +. (factor *. (towards.(d) -. v))) from)
  in
  (* One Nelder-Mead run over a given simplex; returns with the
     simplex sorted, and whether it genuinely converged (by tolerance
     or because no transformation can change it any more). *)
  let search vertices =
    let k = Array.length vertices in
    sort vertices;
    let converged = ref false in
    let centroid () =
      let c = Array.make n 0.0 in
      for i = 0 to k - 2 do
        Array.iteri (fun d v -> c.(d) <- c.(d) +. v) vertices.(i).config
      done;
      Array.map (fun v -> v /. float_of_int (k - 1)) c
    in
    let is_vertex c =
      Array.exists (fun v -> Space.config_equal v.config c) vertices
    in
    let replace_worst kind v =
      step_kind := kind;
      vertices.(k - 1) <- v;
      sort vertices
    in
    (* Shrink every non-best vertex halfway towards the best one.  On a
       discrete grid this is the genuine fixpoint test: when shrinking
       moves nothing, the simplex cannot change any further. *)
    let shrink () =
      step_kind := Shrink;
      let best = vertices.(0) in
      (* Every move is computed from the pre-shrink simplex (each
         vertex shrinks towards the fixed best), so the changed
         vertices — capped at the remaining budget, in vertex order,
         exactly the set the per-vertex budget check admitted — can be
         evaluated as one batch. *)
      let rev_jobs = ref [] in
      let budget = ref (options.max_evaluations - !evaluations) in
      for i = 1 to k - 1 do
        let c = move ~from:vertices.(i).config ~towards:best.config ~factor:0.5 in
        if (not (Space.config_equal c vertices.(i).config)) && !budget > 0
        then begin
          decr budget;
          rev_jobs := (i, c) :: !rev_jobs
        end
      done;
      let jobs = Array.of_list (List.rev !rev_jobs) in
      let values = eval_batch (Array.map snd jobs) in
      Array.iteri
        (fun j (i, c) -> vertices.(i) <- { config = c; value = values.(j) })
        jobs;
      sort vertices;
      if Array.length jobs = 0 then converged := true
    in
    while budget_left () && not !converged do
      incr iterations;
      step_kind := No_step;
      Telemetry.span_begin telemetry "simplex.step";
      Telemetry.add steps 1;
      if diameter space vertices <= options.tolerance then begin
        step_kind := Converged;
        converged := true
      end
      else begin
        let worst = vertices.(k - 1) in
        let second_worst = vertices.(k - 2) in
        let best = vertices.(0) in
        let cen = centroid () in
        (* Reflection of the worst vertex through the centroid; when
           snapping collapses it onto the simplex, fall through to
           contraction, then to a shrink. *)
        let reflected = move ~from:worst.config ~towards:cen ~factor:2.0 in
        if is_vertex reflected then begin
          let contracted = move ~from:worst.config ~towards:cen ~factor:0.5 in
          if is_vertex contracted || not (budget_left ()) then shrink ()
          else begin
            let v = eval contracted in
            if Objective.better obj v worst.value then
              replace_worst Contract { config = contracted; value = v }
            else shrink ()
          end
        end
        else begin
          let rv = eval reflected in
          if Objective.better obj rv best.value && budget_left () then begin
            (* Try expanding further. *)
            let expanded = move ~from:worst.config ~towards:cen ~factor:3.0 in
            if Space.config_equal expanded reflected || is_vertex expanded then
              replace_worst Reflect { config = reflected; value = rv }
            else begin
              let ev = eval expanded in
              if Objective.better obj ev rv then
                replace_worst Expand { config = expanded; value = ev }
              else replace_worst Reflect { config = reflected; value = rv }
            end
          end
          else if Objective.better obj rv second_worst.value then
            replace_worst Reflect { config = reflected; value = rv }
          else if budget_left () then begin
            (* Contraction (keep the reflection if it at least beats
               the worst vertex). *)
            let contracted = move ~from:worst.config ~towards:cen ~factor:0.5 in
            if is_vertex contracted then
              if Objective.better obj rv worst.value then
                replace_worst Reflect { config = reflected; value = rv }
              else shrink ()
            else begin
              let cv = eval contracted in
              if Objective.better obj cv worst.value then
                replace_worst Contract { config = contracted; value = cv }
              else if Objective.better obj rv worst.value then
                replace_worst Reflect { config = reflected; value = rv }
              else shrink ()
            end
          end
        end
      end;
      Telemetry.instant telemetry (step_instant !step_kind);
      Telemetry.span_end telemetry ~args:(step_args !step_kind) "simplex.step"
    done;
    !converged
  in
  let eval_initial initial =
    (* Trusted vertices keep their value; the rest are evaluated as
       one batch — the first [budget-left] of them, exactly the set
       the sequential per-vertex budget check would have admitted. *)
    let missing =
      List.filter
        (fun (_, value) -> match value with None -> true | Some _ -> false)
        initial
    in
    let budget = Stdlib.max 0 (options.max_evaluations - !evaluations) in
    let admitted = List.filteri (fun i _ -> i < budget) missing in
    let values = eval_batch (Array.of_list (List.map fst admitted)) in
    let next = ref 0 in
    Array.of_list
      (List.filter_map
         (fun (config, value) ->
           match value with
           | Some v -> Some { config; value = v }
           | None ->
               if !next < Array.length values then begin
                 let v = values.(!next) in
                 incr next;
                 Some { config; value = v }
               end
               else None)
         initial)
  in
  let vertices =
    Telemetry.span telemetry "simplex.init" (fun () ->
        eval_initial (Init.vertices options.init space))
  in
  if Array.length vertices < 2 then
    invalid_arg "Simplex.optimize: degenerate initial simplex";
  let converged = ref (search vertices) in
  let best = ref vertices.(0) in
  (* Oriented restarts: a collapsed simplex loses dimensions (e.g.
     every vertex shares one coordinate) and can stall far from the
     optimum.  While budget remains, rebuild a fresh simplex around
     the incumbent best; the restart offset halves after each failed
     attempt, and the search only gives up once the smallest offset
     fails to improve. *)
  let min_offset = 0.05 in
  let offset = ref 0.25 in
  let keep_restarting = ref true in
  while
    budget_left () && !keep_restarting
    && !evaluations + n + 1 <= options.max_evaluations
  do
    let around =
      List.init n (fun i ->
          let c = Array.copy !best.config in
          let p = Space.param space i in
          let span = p.Param.max_value -. p.Param.min_value in
          let v = c.(i) +. (!offset *. span) in
          c.(i) <-
            (if v > p.Param.max_value then c.(i) -. (!offset *. span) else v);
          (c, None))
    in
    let restart =
      eval_initial ((!best.config, Some !best.value) :: Init.dedup space around)
    in
    if Array.length restart < 2 then keep_restarting := false
    else begin
      Telemetry.incr telemetry "simplex.restarts";
      let c =
        Telemetry.span telemetry "simplex.restart" (fun () -> search restart)
      in
      converged := c;
      if Objective.better obj restart.(0).value !best.value then begin
        Log.debug (fun m ->
            m "restart (offset %.2f) improved %g -> %g" !offset !best.value
              restart.(0).value);
        best := restart.(0)
      end
      else if !offset <= min_offset then keep_restarting := false;
      offset := Float.max min_offset (!offset /. 2.0)
    end
  done;
  Log.debug (fun m ->
      m "finished: best %g after %d evaluations (%d iterations, converged %b)"
        !best.value !evaluations !iterations !converged);
  {
    best_config = !best.config;
    best_performance = !best.value;
    evaluations = !evaluations;
    iterations = !iterations;
    converged = !converged;
  }

(* The simplex state machine against the kernel it replaced, kept here
   as it stood:

   - [Ref_simplex.optimize], the direct-style Nelder-Mead loop with its
     locals in closures, snapping each coordinate with [Param.snap] and
     measuring the diameter with [Space.normalize] and
     [Stats.chebyshev_distance];
   - [Ref_controller], which ran that loop under an effect handler and
     parked it in a continuation between reports;
   - [ref_repair] and [ref_bounds], which looked each bundle up with
     [List.nth_opt] and each [$Name] through a closure.

   QCheck drives both sides over 1–10-parameter spaces (single-value
   parameters included), objectives with ties, plateaus, +-1e9
   penalties, NaN and raising evaluations, all four [Init] kinds
   (seeded with trusted values, duplicates and now and then a seed of
   the wrong arity), budgets from n+2 (and a few below, for the
   exception) and tolerances that let restarts and
   shrinks run, at 1 and 4 domains.  Everything observable must agree:
   every batch's configuration bits, the outcome's bits, the telemetry
   events (name, args and logical tick) and counters, a controller's
   [measurements] after every report, and the text of every exception.
   A controller answers [Done] with the best-measured rule, which
   [Ref_controller] spells out: the earliest best number read when it
   beats the final vertex (any number beats a NaN vertex), else the
   vertex. *)

open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space
module Rsl = Harmony_param.Rsl
module Stats = Harmony_numerics.Stats
module Pool = Harmony_parallel.Pool
module Telemetry = Harmony_telemetry.Telemetry
module Gen = QCheck2.Gen

let seed = [| 0x5eed; 23 |]

(* ------------------------------------------------------------------ *)
(* The reference kernel                                                *)

module Ref_simplex = struct
  let snap space c =
    if Array.length c <> Space.dims space then
      invalid_arg "Space.snap: arity mismatch";
    Array.mapi (fun i v -> Param.snap (Space.param space i) v) c

  module Init = struct
    let extremes space =
      let n = Space.dims space in
      let corner j =
        Array.init n (fun i ->
            let p = Space.param space i in
            if (i + j) mod (n + 1) < (n + 1) / 2 then p.Param.max_value
            else p.Param.min_value)
      in
      List.init (n + 1) (fun j -> (corner j, None))

    let spread space =
      let n = Space.dims space in
      let vertex j =
        Array.init n (fun i ->
            let p = Space.param space i in
            let frac =
              (float_of_int ((i + j) mod (n + 1)) +. 0.5) /. float_of_int (n + 1)
            in
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
      go [] (List.map (fun (c, v) -> (snap space c, v)) vertices)

    let vertices t space =
      let n = Space.dims space in
      let raw =
        match t with
        | Simplex.Init.Extremes -> extremes space
        | Simplex.Init.Spread -> spread space
        | Simplex.Init.Around_default offset -> around_default offset space
        | Simplex.Init.Seeded seeds ->
            let seeds = dedup space seeds in
            let missing = n + 1 - List.length seeds in
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

  type vertex = { config : Space.config; value : float }

  let diameter space vertices =
    let norm = Array.map (fun v -> Space.normalize space v.config) vertices in
    let d = ref 0.0 in
    Array.iteri
      (fun i a ->
        Array.iteri
          (fun j b ->
            if j > i then d := Float.max !d (Stats.chebyshev_distance a b))
          norm)
      norm;
    !d

  type step = No_step | Converged | Reflect | Expand | Contract | Shrink

  let step_instant = function
    | No_step -> "simplex.none"
    | Converged -> "simplex.converged"
    | Reflect -> "simplex.reflect"
    | Expand -> "simplex.expand"
    | Contract -> "simplex.contract"
    | Shrink -> "simplex.shrink"

  let step_args k =
    let kind =
      match k with
      | No_step -> "none"
      | Converged -> "converged"
      | Reflect -> "reflect"
      | Expand -> "expand"
      | Contract -> "contract"
      | Shrink -> "shrink"
    in
    [ ("kind", Telemetry.Str kind) ]

  let optimize ?(telemetry = Telemetry.off) ?pool
      ?(options = Simplex.default_options) obj =
    let space = obj.Objective.space in
    let n = Space.dims space in
    if options.Simplex.max_evaluations < n + 2 then
      invalid_arg "Simplex.optimize: budget below n+2 evaluations";
    let evaluations = ref 0 in
    let eval_batch configs =
      evaluations := !evaluations + Array.length configs;
      Objective.eval_batch ?pool obj configs
    in
    let eval c = (eval_batch [| c |]).(0) in
    let step_kind = ref No_step in
    let steps = Telemetry.counter telemetry "simplex.steps" in
    let budget_left () = !evaluations < options.Simplex.max_evaluations in
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
      snap space (Array.mapi (fun d v -> v +. (factor *. (towards.(d) -. v))) from)
    in
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
      let shrink () =
        step_kind := Shrink;
        let best = vertices.(0) in
        let rev_jobs = ref [] in
        let budget = ref (options.Simplex.max_evaluations - !evaluations) in
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
        if diameter space vertices <= options.Simplex.tolerance then begin
          step_kind := Converged;
          converged := true
        end
        else begin
          let worst = vertices.(k - 1) in
          let second_worst = vertices.(k - 2) in
          let best = vertices.(0) in
          let cen = centroid () in
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
      let missing =
        List.filter
          (fun (_, value) -> match value with None -> true | Some _ -> false)
          initial
      in
      let budget = Stdlib.max 0 (options.Simplex.max_evaluations - !evaluations) in
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
          eval_initial (Init.vertices options.Simplex.init space))
    in
    if Array.length vertices < 2 then
      invalid_arg "Simplex.optimize: degenerate initial simplex";
    let converged = ref (search vertices) in
    let best = ref vertices.(0) in
    let min_offset = 0.05 in
    let offset = ref 0.25 in
    let keep_restarting = ref true in
    while
      budget_left () && !keep_restarting
      && !evaluations + n + 1 <= options.Simplex.max_evaluations
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
        if Objective.better obj restart.(0).value !best.value then
          best := restart.(0)
        else if !offset <= min_offset then keep_restarting := false;
        offset := Float.max min_offset (!offset /. 2.0)
      end
    done;
    {
      Simplex.best_config = !best.config;
      best_performance = !best.value;
      evaluations = !evaluations;
      iterations = !iterations;
      converged = !converged;
    }
end

(* The controller as it ran the reference kernel: under an effect
   handler, one continuation parked per outstanding measurement.  Its
   [best] is the earliest best number reported. *)
module Ref_controller = struct
  type _ Effect.t += Measure : Space.config -> float Effect.t

  type state =
    | Waiting of {
        config : Space.config;
        resume : (float, unit) Effect.Deep.continuation;
      }
    | Finished of Simplex.outcome
    | Running

  type t = {
    direction : Objective.direction;
    mutable state : state;
    mutable measurements : int;
    mutable best : (Space.config * float) option;
  }

  let create ?telemetry ?(options = Simplex.default_options) ~space ~direction ()
      =
    let t = { direction; state = Running; measurements = 0; best = None } in
    let computation () =
      let objective =
        Objective.create ~space ~direction (fun config ->
            Effect.perform (Measure (Array.copy config)))
      in
      let outcome = Ref_simplex.optimize ?telemetry ~options objective in
      t.state <- Finished outcome
    in
    let effc :
        type a. a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option
        = function
      | Measure config -> Some (fun resume -> t.state <- Waiting { config; resume })
      | _ -> None
    in
    Effect.Deep.match_with computation () { retc = Fun.id; exnc = raise; effc };
    t

  let better t (a : float) b =
    match t.direction with
    | Objective.Higher_is_better -> a > b
    | Objective.Lower_is_better -> a < b

  let pending t =
    match t.state with
    | Waiting { config; _ } -> `Measure (Array.copy config)
    | Finished outcome -> (
        match t.best with
        | Some (config, v)
          when Float.is_nan outcome.Simplex.best_performance
               || better t v outcome.Simplex.best_performance ->
            `Done { outcome with best_config = config; best_performance = v }
        | Some _ | None -> `Done outcome)
    | Running -> invalid_arg "Controller.pending: controller is mid-step"

  let report t performance =
    match t.state with
    | Finished _ -> invalid_arg "Controller.report: search already finished"
    | Running -> invalid_arg "Controller.report: no measurement outstanding"
    | Waiting { config; resume } ->
        t.measurements <- t.measurements + 1;
        (match t.best with
        | _ when Float.is_nan performance -> ()
        | Some (_, best_perf) when not (better t performance best_perf) -> ()
        | Some _ | None -> t.best <- Some (Array.copy config, performance));
        t.state <- Running;
        Effect.Deep.continue resume performance

  let measurements t = t.measurements
end

(* The restriction walk as it stood. *)
let ref_lookup_in t values name =
  let rec find i = function
    | [] -> raise Not_found
    | b :: _ when b.Rsl.name = name -> values.(i)
    | _ :: rest -> find (i + 1) rest
  in
  find 0 t

let ref_bounds (t : Rsl.bundle list) values i =
  let b =
    match List.nth_opt t i with
    | Some b -> b
    | None -> invalid_arg "Rsl.bounds: index out of range"
  in
  let lookup = ref_lookup_in t values in
  let lo = Rsl.eval_expr lookup b.Rsl.lo in
  let hi = Rsl.eval_expr lookup b.Rsl.hi in
  let step = Rsl.eval_expr lookup b.Rsl.step in
  if step <= 0 then invalid_arg ("Rsl.bounds: non-positive step for " ^ b.Rsl.name);
  (lo, hi, step)

let ref_repair (t : Rsl.bundle list) c =
  let n = List.length t in
  if Array.length c <> n then invalid_arg "Rsl.repair: arity mismatch";
  let values = Array.make n 0 in
  List.iteri
    (fun i _ ->
      let lo, hi, step = ref_bounds t values i in
      if hi < lo then values.(i) <- lo
      else begin
        let v = c.(i) in
        let v = Float.min (float_of_int hi) (Float.max (float_of_int lo) v) in
        let k = Float.round ((v -. float_of_int lo) /. float_of_int step) in
        let kmax = (hi - lo) / step in
        let k = Stdlib.max 0 (Stdlib.min kmax (int_of_float k)) in
        values.(i) <- lo + (k * step)
      end)
    t;
  Array.map float_of_int values

(* ------------------------------------------------------------------ *)
(* Cases                                                               *)

type family = Bowl | Plateau | Ties | Penalty | Nan | Raising

let family_name = function
  | Bowl -> "bowl"
  | Plateau -> "plateau"
  | Ties -> "ties"
  | Penalty -> "penalty"
  | Nan -> "nan"
  | Raising -> "raising"

type init = Extremes | Spread | Around of float | Seeded of (float array * float option) list

type case = {
  ranges : (int * int * int) list;  (* lo, width, step *)
  family : family;
  higher : bool;
  key : int;
  init : init;
  budget_over : int;  (* budget - (n + 2) *)
  tolerance : float;
}

let space_of case =
  Space.create
    (List.mapi
       (fun i (lo, width, step) ->
         Param.int_range ~name:(Printf.sprintf "p%d" i) ~lo ~hi:(lo + width) ~step
           ~default:lo ())
       case.ranges)

let direction_of case =
  if case.higher then Objective.Higher_is_better else Objective.Lower_is_better

let init_of = function
  | Extremes -> Simplex.Init.Extremes
  | Spread -> Simplex.Init.Spread
  | Around f -> Simplex.Init.Around_default f
  | Seeded seeds -> Simplex.Init.Seeded seeds

let options_of case =
  {
    Simplex.init = init_of case.init;
    max_evaluations = List.length case.ranges + 2 + case.budget_over;
    tolerance = case.tolerance;
  }

exception Boom of int

(* A deterministic function of the configuration for each family. *)
let measure case c =
  let h = Hashtbl.hash (case.key, Space.config_key c) in
  let bowl =
    let s = ref 0.0 in
    Array.iteri
      (fun i v ->
        let d = v -. float_of_int ((case.key + (7 * i)) mod 13) in
        s := !s +. (d *. d))
      c;
    !s
  in
  match case.family with
  | Bowl -> bowl
  | Plateau -> Float.round (bowl /. 40.0)
  | Ties -> float_of_int (h mod 3)
  | Penalty -> if h mod 5 = 0 then (if h mod 2 = 0 then 1e9 else -1e9) else bowl
  | Nan -> if h mod 4 = 0 then Float.nan else bowl
  | Raising -> if h mod 9 = 0 then raise (Boom (h mod 1000)) else bowl

let gen_case =
  let open Gen in
  let* n = int_range 1 10 in
  let* ranges =
    list_repeat n
      (triple (int_range (-5) 5)
         (frequency [ (1, return 0); (4, int_range 1 20) ])
         (frequency [ (4, return 1); (1, int_range 2 3) ]))
  in
  let* family =
    oneofl [ Bowl; Bowl; Plateau; Ties; Penalty; Nan; Raising ]
  in
  let* higher = bool in
  let* key = int_range 0 10_000 in
  (* Now and then a seed of the wrong arity, which the initial simplex
     rejects inside its span. *)
  let point =
    let* arity = frequency [ (40, return n); (1, return (n + 1)) ] in
    array_size (return arity) (float_range (-8.0) 30.0)
  in
  let value =
    frequency
      [
        (3, return None);
        (3, map Option.some (float_range (-50.0) 50.0));
        (1, return (Some 0.0));
        (1, return (Some Float.nan));
      ]
  in
  let* init =
    frequency
      [
        (2, return Extremes);
        (2, return Spread);
        (1, map (fun f -> Around f) (oneofl [ 0.1; 0.25; 0.5; 0.9 ]));
        ( 3,
          let* seeds = list_size (int_range 0 (n + 2)) (pair point value) in
          (* Duplicates: repeat some seeds, possibly with another value. *)
          let* dups = list_size (int_range 0 2) (pair (int_range 0 100) value) in
          let seeds =
            match seeds with
            | [] -> []
            | _ ->
                seeds
                @ List.map
                    (fun (i, v) -> (fst (List.nth seeds (i mod List.length seeds)), v))
                    dups
          in
          return (Seeded seeds) );
      ]
  in
  let* budget_over =
    frequency [ (1, int_range (-2) (-1)); (6, int_range 0 12); (3, int_range 13 70) ]
  in
  let* tolerance = oneofl [ 1e-3; 0.0; 0.2; 0.5 ] in
  return { ranges; family; higher; key; init; budget_over; tolerance }

let print_case c =
  let value = function
    | None -> "-"
    | Some v -> Printf.sprintf "%h" v
  in
  Printf.sprintf "ranges=[%s] family=%s higher=%b key=%d init=%s budget+%d tol=%g"
    (String.concat "; "
       (List.map (fun (lo, w, s) -> Printf.sprintf "%d+%d/%d" lo w s) c.ranges))
    (family_name c.family) c.higher c.key
    (match c.init with
    | Extremes -> "extremes"
    | Spread -> "spread"
    | Around f -> Printf.sprintf "around %g" f
    | Seeded seeds ->
        "seeded "
        ^ String.concat ","
            (List.map
               (fun (p, v) ->
                 Printf.sprintf "(%s|%s)"
                   (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") p)))
                   (value v))
               seeds))
    c.budget_over c.tolerance

(* ------------------------------------------------------------------ *)
(* What a run shows                                                    *)

let bits c = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") c))

let outcome_text (o : Simplex.outcome) =
  Printf.sprintf "best %s perf %h evals %d iters %d converged %b"
    (bits o.Simplex.best_config) o.Simplex.best_performance o.Simplex.evaluations
    o.Simplex.iterations o.Simplex.converged

let event_text = function
  | Telemetry.Begin { name; ts; args } -> ("B", name, ts, args)
  | Telemetry.End { name; ts; args } -> ("E", name, ts, args)
  | Telemetry.Instant { name; ts; args } -> ("I", name, ts, args)

let events_text tel =
  String.concat "\n"
    (List.map
       (fun ev ->
         let kind, name, ts, args = event_text ev in
         Printf.sprintf "%s %s @%g %s" kind name ts
           (String.concat ","
              (List.map
                 (fun (k, v) ->
                   k ^ "="
                   ^
                   match v with
                   | Telemetry.Str s -> s
                   | Telemetry.Num f -> Printf.sprintf "%h" f
                   | Telemetry.Int i -> string_of_int i
                   | Telemetry.Bool b -> string_of_bool b)
                 args)))
       (Telemetry.events tel))
  ^ "\n"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Telemetry.counters tel))

(* One [optimize] run: the batches it asked for (configuration bits),
   its outcome or exception, and its telemetry. *)
let optimize_transcript optimize ?pool case =
  let space = space_of case in
  let direction = direction_of case in
  let log = Buffer.create 256 in
  let f = measure case in
  let base = Objective.create ~space ~direction f in
  let obj =
    {
      base with
      Objective.batch =
        Some
          (fun disp configs ->
            Buffer.add_string log "[";
            Array.iter (fun c -> Buffer.add_string log (bits c ^ ";")) configs;
            Buffer.add_string log "]\n";
            disp.Objective.run f configs);
    }
  in
  let tel = Telemetry.create () in
  let result =
    match optimize ~telemetry:tel ?pool ~options:(options_of case) obj with
    | o -> outcome_text o
    | exception e -> "raised " ^ Printexc.to_string e
  in
  String.concat "\n" [ Buffer.contents log; result; events_text tel ]

let new_optimize ~telemetry ?pool ~options obj =
  Simplex.optimize ~telemetry ?pool ~options obj

let ref_optimize ~telemetry ?pool ~options obj =
  Ref_simplex.optimize ~telemetry ?pool ~options obj

type 'c controller = {
  create :
    telemetry:Telemetry.t ->
    options:Simplex.options ->
    space:Space.t ->
    direction:Objective.direction ->
    'c;
  pending : 'c -> [ `Measure of Space.config | `Done of Simplex.outcome ];
  report : 'c -> float -> unit;
  measurements : 'c -> int;
}

let new_controller =
  {
    create =
      (fun ~telemetry ~options ~space ~direction ->
        Controller.create ~telemetry ~options ~space ~direction ());
    pending = Controller.pending;
    report = Controller.report;
    measurements = Controller.measurements;
  }

let ref_controller =
  {
    create =
      (fun ~telemetry ~options ~space ~direction ->
        Ref_controller.create ~telemetry ~options ~space ~direction ());
    pending = Ref_controller.pending;
    report = Ref_controller.report;
    measurements = Ref_controller.measurements;
  }

(* A client session: every [pending] and [report], the client's own
   instants on the same handle between them (so each search event's
   tick says which call emitted it), [measurements] after every
   report, the answer at [Done], and what every raising call said —
   including the calls after a report raised. *)
let controller_transcript (type c) (ctl : c controller) case =
  let space = space_of case in
  let tel = Telemetry.create () in
  let out = Buffer.create 256 in
  let line s = Buffer.add_string out (s ^ "\n") in
  let value c = match measure case c with v -> v | exception Boom _ -> Float.nan in
  (match
     ctl.create ~telemetry:tel ~options:(options_of case) ~space
       ~direction:(direction_of case)
   with
  | exception e -> line ("create raised " ^ Printexc.to_string e)
  | c ->
      let observe () =
        line (Printf.sprintf "measurements %d" (ctl.measurements c))
      in
      let rec loop () =
        Telemetry.instant tel "client.pending";
        match ctl.pending c with
        | exception e -> line ("pending raised " ^ Printexc.to_string e)
        | `Done o -> line ("done " ^ outcome_text o)
        | `Measure cfg -> (
            line ("measure " ^ bits cfg);
            Telemetry.instant tel "client.report";
            match ctl.report c (value cfg) with
            | () ->
                observe ();
                loop ()
            | exception e ->
                line ("report raised " ^ Printexc.to_string e);
                observe ();
                (match ctl.pending c with
                | exception e -> line ("then pending raised " ^ Printexc.to_string e)
                | `Done _ | `Measure _ -> line "then pending answered");
                match ctl.report c 0.0 with
                | exception e -> line ("then report raised " ^ Printexc.to_string e)
                | () -> line "then report accepted")
      in
      loop ();
      (match ctl.report c 1.0 with
      | exception e -> line ("late report raised " ^ Printexc.to_string e)
      | () -> line "late report accepted"));
  Buffer.contents out ^ events_text tel

(* ------------------------------------------------------------------ *)
(* Restriction specs                                                   *)

let gen_expr ~refs =
  let open Gen in
  let leaf =
    match refs with
    | [] -> map (fun k -> Rsl.Const k) (int_range (-3) 25)
    | _ ->
        frequency
          [
            (2, map (fun k -> Rsl.Const k) (int_range (-3) 25));
            (2, map (fun r -> Rsl.Ref r) (oneofl refs));
          ]
  in
  let node self depth =
    if depth <= 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map (fun e -> Rsl.Neg e) (self (depth - 1)));
          (1, map2 (fun a b -> Rsl.Add (a, b)) (self (depth - 1)) (self (depth - 1)));
          (1, map2 (fun a b -> Rsl.Sub (a, b)) (self (depth - 1)) (self (depth - 1)));
          (1, map2 (fun a b -> Rsl.Mul (a, b)) (self (depth - 1)) (self (depth - 1)));
          (1, map2 (fun a b -> Rsl.Div (a, b)) (self (depth - 1)) (self (depth - 1)));
        ]
  in
  fix (fun self depth -> node self depth) 2

let gen_spec =
  let open Gen in
  let* k = int_range 1 6 in
  let rec bundles i acc =
    if i = k then return (List.rev acc)
    else
      let refs = List.map (fun b -> b.Rsl.name) acc in
      let* lo = gen_expr ~refs in
      let* hi = gen_expr ~refs in
      let* step =
        frequency
          [ (4, map (fun s -> Rsl.Const s) (int_range 1 3)); (1, gen_expr ~refs) ]
      in
      bundles (i + 1) ({ Rsl.name = Printf.sprintf "B%d" i; lo; hi; step } :: acc)
  in
  bundles 0 []

let gen_coord =
  Gen.frequency
    [
      (8, Gen.float_range (-10.0) 40.0);
      (1, Gen.oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 1e300; -1e300 ]);
    ]

let repair_text f t c =
  match f t c with
  | r -> bits r
  | exception e -> "raised " ^ Printexc.to_string e

let bounds_text f t values i =
  match f t values i with
  | lo, hi, step -> Printf.sprintf "%d %d %d" lo hi step
  | exception e -> "raised " ^ Printexc.to_string e

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let check_equal what ~expected ~actual =
  if not (String.equal expected actual) then
    QCheck2.Test.fail_reportf "%s differs.\nreference:\n%s\nstate machine:\n%s" what
      expected actual;
  true

let prop_optimize pool =
  QCheck2.Test.make ~name:"optimize equals the direct-style kernel" ~count:400
    ~print:print_case gen_case (fun case ->
      check_equal "one domain"
        ~expected:(optimize_transcript ref_optimize case)
        ~actual:(optimize_transcript new_optimize case)
      && check_equal "four domains"
           ~expected:(optimize_transcript ref_optimize ~pool case)
           ~actual:(optimize_transcript new_optimize ~pool case))

let prop_controller =
  QCheck2.Test.make ~name:"controller equals the effect-handler controller"
    ~count:400 ~print:print_case gen_case (fun case ->
      check_equal "session"
        ~expected:(controller_transcript ref_controller case)
        ~actual:(controller_transcript new_controller case))

let prop_repair =
  let open Gen in
  let gen =
    let* bundles = gen_spec in
    let k = List.length bundles in
    let* c = array_size (return k) gen_coord in
    let* values = array_size (return k) (int_range (-5) 30) in
    let* i = int_range 0 k in
    return (bundles, c, values, i)
  in
  QCheck2.Test.make ~name:"repair and bounds equal the list walk" ~count:2000
    ~print:(fun (bundles, c, values, i) ->
      Printf.sprintf "%s\nconfig %s values %s index %d"
        (Rsl.to_string (Rsl.of_bundles bundles))
        (bits c)
        (String.concat " " (Array.to_list (Array.map string_of_int values)))
        i)
    gen
    (fun (bundles, c, values, i) ->
      let t = Rsl.of_bundles bundles in
      let l = (t :> Rsl.bundle list) in
      check_equal "repair" ~expected:(repair_text ref_repair l c)
        ~actual:(repair_text Rsl.repair t c)
      && check_equal "short repair"
           ~expected:(repair_text ref_repair l (Array.sub c 0 (Array.length c - 1)))
           ~actual:(repair_text Rsl.repair t (Array.sub c 0 (Array.length c - 1)))
      && check_equal "bounds"
           ~expected:(bounds_text ref_bounds l values i)
           ~actual:(bounds_text Rsl.bounds t values i))

let run_qcheck test () =
  QCheck2.Test.check_exn ~rand:(Random.State.make seed) test

let suite =
  [
    Alcotest.test_case "optimize equals the direct-style kernel" `Quick
      (fun () ->
        Pool.with_pool ~domains:4 (fun pool -> run_qcheck (prop_optimize pool) ()));
    Alcotest.test_case "controller equals the effect-handler controller" `Quick
      (run_qcheck prop_controller);
    Alcotest.test_case "repair and bounds equal the list walk" `Quick
      (run_qcheck prop_repair);
  ]

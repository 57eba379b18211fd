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

let no_vertex = { config = [||]; value = Float.nan }

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

(* Per-domain scratch for the tolerance test: the normalized
   coordinates of the simplex under test, one row per vertex, grown on
   demand.  The test runs inside one step, so searches that share a
   domain never see each other's rows. *)
type scratch = { mutable norm : floatarray }

let scratch_key = Domain.DLS.new_key (fun () -> { norm = Float.Array.create 0 })

(* Whether the normalized simplex diameter, the largest pairwise
   Chebyshev distance in [0,1]^n coordinates, is at most [tolerance].
   The diameter is within tolerance exactly when every coordinate
   distance is; a NaN distance makes the diameter NaN, which never
   is. *)
let within_tolerance params vertices tolerance =
  let k = Array.length vertices in
  let n = Array.length params in
  let sc = Domain.DLS.get scratch_key in
  if Float.Array.length sc.norm < k * n then
    sc.norm <- Float.Array.make (k * n) 0.0;
  let norm = sc.norm in
  for i = 0 to k - 1 do
    Param.normalize_into params vertices.(i).config norm (i * n)
  done;
  let within = ref true in
  for i = 0 to k - 2 do
    for j = i + 1 to k - 1 do
      for d = 0 to n - 1 do
        let x =
          Float.abs
            (Float.Array.get norm ((i * n) + d)
            -. Float.Array.get norm ((j * n) + d))
        in
        if not (x <= tolerance) then within := false
      done
    done
  done;
  !within

let higher_first a b =
  if a.value > b.value then -1 else if b.value > a.value then 1 else 0

let lower_first a b =
  if a.value < b.value then -1 else if b.value < a.value then 1 else 0

(* [Array.sort]'s ternary heap sort over vertices, step for step, with
   the comparator picked by direction instead of passed as a closure
   and the bottom of the heap returned as [-1] instead of raised: it
   allocates nothing, and ties and NaNs end in the order [Array.sort]
   leaves them. *)
let[@inline] order direction a b =
  match direction with
  | Objective.Higher_is_better -> higher_first a b
  | Objective.Lower_is_better -> lower_first a b

(* The son of [i] that moves up, or [-1] when none lies below [l]. *)
let maxson dir a l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then
    let x = if order dir a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if order dir a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  else if i31 + 1 < l && order dir a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickle dir a l i e =
  let j = maxson dir a l i in
  if j >= 0 && order dir a.(j) e > 0 then begin
    a.(i) <- a.(j);
    trickle dir a l j e
  end
  else a.(i) <- e

let rec bubble dir a l i =
  let j = maxson dir a l i in
  if j < 0 then i
  else begin
    a.(i) <- a.(j);
    bubble dir a l j
  end

let rec trickle_up dir a i e =
  let father = (i - 1) / 3 in
  if order dir a.(father) e < 0 then begin
    a.(i) <- a.(father);
    if father > 0 then trickle_up dir a father e else a.(0) <- e
  end
  else a.(i) <- e

let sort_vertices dir (a : vertex array) =
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle dir a l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickle_up dir a (bubble dir a i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let rec vertex_in vertices c i =
  i < Array.length vertices
  && (Space.config_equal vertices.(i).config c || vertex_in vertices c (i + 1))

(* ------------------------------------------------------------------ *)
(* The search as an ask/tell state machine                             *)

(* The batch a search has asked for, which says what its values mean
   when they are told. *)
type phase =
  | Initial  (** the initial simplex's untrusted vertices *)
  | Reflection  (** the worst vertex reflected through the centroid *)
  | Expansion  (** further out, after the reflection beat the best *)
  | Collapsed_contraction
      (** the worst vertex halfway to the centroid, after the
          reflection snapped onto the simplex *)
  | Contraction
      (** the same point, after a measured reflection that beat no
          more than the worst vertex *)
  | Shrink_batch  (** every changed non-best vertex, halfway to the best *)
  | Restart_batch  (** an oriented restart's new vertices *)
  | Finished of outcome

(* One plain record holds a whole search, restarts included, between
   two batches. *)
type search = {
  space : Space.t;
  params : Param.t array;
  n : int;
  direction : Objective.direction;
  options : options;
  telemetry : Telemetry.t;
  steps : Telemetry.counter;  (* simplex.steps *)
  centroid : float array;  (* of the open step: every vertex but the worst *)
  mutable phase : phase;
  mutable batch : Space.config array;  (* asked for, not yet told *)
  mutable evaluations : int;  (* asked for so far *)
  mutable iterations : int;
  mutable seeds : (Space.config * float option) list;
      (* the initial or restart vertices whose untrusted ones [batch]
         measures *)
  mutable replaces : int array;  (* the vertex each shrink entry replaces *)
  mutable vertices : vertex array;  (* the running search's simplex *)
  mutable kind : step;  (* what the open step did *)
  mutable reflection : vertex;
      (* the measured reflection, while expanding or contracting *)
  mutable converged : bool;  (* of the last search to run *)
  mutable in_restart : bool;  (* the running search is a restart's *)
  mutable best : vertex;  (* the incumbent once the first search ends *)
  mutable offset : float;  (* the next restart's *)
  mutable keep_restarting : bool;
}

(* Oriented restarts give up once a restart at this offset fails to
   improve the incumbent. *)
let min_offset = 0.05

let[@inline] better s (a : float) (b : float) =
  match s.direction with
  | Objective.Higher_is_better -> a > b
  | Objective.Lower_is_better -> a < b

let budget_left s = s.evaluations < s.options.max_evaluations

let sort s = sort_vertices s.direction s.vertices

let is_vertex s c = vertex_in s.vertices c 0
let worst s = s.vertices.(Array.length s.vertices - 1)

(* The centroid of every vertex but the worst. *)
let fill_centroid s =
  let k = Array.length s.vertices in
  for d = 0 to s.n - 1 do
    let sum = ref 0.0 in
    for i = 0 to k - 2 do
      sum := !sum +. s.vertices.(i).config.(d)
    done;
    s.centroid.(d) <- !sum /. float_of_int (k - 1)
  done

(* [from] moved [factor] of the way to [towards], snapped onto the
   grid: the one allocation of a proposal. *)
let move s ~from ~towards factor =
  let c = Array.make s.n 0.0 in
  for d = 0 to s.n - 1 do
    let v = from.(d) in
    c.(d) <- v +. (factor *. (towards.(d) -. v))
  done;
  Param.snap_in_place s.params c;
  c

let ask s phase batch =
  s.phase <- phase;
  s.batch <- batch;
  s.evaluations <- s.evaluations + Array.length batch

(* The untrusted vertices of [seeds] that the budget admits: the first
   [budget-left] of them, exactly the set the sequential per-vertex
   budget check would have admitted. *)
let admitted s seeds =
  let rec take budget acc = function
    | [] -> acc
    | (_, Some _) :: rest -> take budget acc rest
    | (config, None) :: rest ->
        if budget > 0 then take (budget - 1) (config :: acc) rest else acc
  in
  Array.of_list
    (List.rev
       (take (Int.max 0 (s.options.max_evaluations - s.evaluations)) [] seeds))

(* Trusted vertices keep their value, admitted ones take [values] in
   order, and the rest are dropped. *)
let seeded_vertices seeds values =
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
       seeds)

(* Each function below runs the search from where its name says to its
   next batch ([ask]) or to its end ([finish]), emitting telemetry as it
   goes, so a step's span opens in one [tell] and may close in a later
   one. *)

(* The top of the Nelder-Mead loop: open the next step, or end the
   running search. *)
let rec next_step s =
  if budget_left s && not s.converged then begin
    s.iterations <- s.iterations + 1;
    s.kind <- No_step;
    Telemetry.span_begin s.telemetry "simplex.step";
    Telemetry.add s.steps 1;
    if within_tolerance s.params s.vertices s.options.tolerance then begin
      s.kind <- Converged;
      s.converged <- true;
      close_step s
    end
    else begin
      let worst = worst s in
      fill_centroid s;
      (* Reflection of the worst vertex through the centroid; when
         snapping collapses it onto the simplex, fall through to
         contraction, then to a shrink. *)
      let reflected = move s ~from:worst.config ~towards:s.centroid 2.0 in
      if is_vertex s reflected then begin
        let contracted = move s ~from:worst.config ~towards:s.centroid 0.5 in
        if is_vertex s contracted || not (budget_left s) then shrink s
        else ask s Collapsed_contraction [| contracted |]
      end
      else ask s Reflection [| reflected |]
    end
  end
  else end_search s

and close_step s =
  Telemetry.instant s.telemetry (step_instant s.kind);
  Telemetry.span_end s.telemetry ~args:(step_args s.kind) "simplex.step";
  next_step s

and replace_worst s kind v =
  s.kind <- kind;
  s.vertices.(Array.length s.vertices - 1) <- v;
  sort s;
  close_step s

(* Shrink every non-best vertex halfway towards the best one.  On a
   discrete grid this is the genuine fixpoint test: when shrinking
   moves nothing, the simplex cannot change any further. *)
and shrink s =
  s.kind <- Shrink;
  let vertices = s.vertices in
  let best = vertices.(0) in
  (* Every move is computed from the pre-shrink simplex (each vertex
     shrinks towards the fixed best), so the changed vertices — capped
     at the remaining budget, in vertex order, exactly the set the
     per-vertex budget check admitted — can be evaluated as one
     batch. *)
  let rev_jobs = ref [] in
  let budget = ref (s.options.max_evaluations - s.evaluations) in
  for i = 1 to Array.length vertices - 1 do
    let c = move s ~from:vertices.(i).config ~towards:best.config 0.5 in
    if (not (Space.config_equal c vertices.(i).config)) && !budget > 0 then begin
      decr budget;
      rev_jobs := (i, c) :: !rev_jobs
    end
  done;
  match List.rev !rev_jobs with
  | [] ->
      sort s;
      s.converged <- true;
      close_step s
  | jobs ->
      s.replaces <- Array.of_list (List.map fst jobs);
      ask s Shrink_batch (Array.of_list (List.map snd jobs))

(* The running search is over.  The first search's best becomes the
   incumbent; a restart's best replaces it only when better. *)
and end_search s =
  if s.in_restart then begin
    s.in_restart <- false;
    Telemetry.span_end s.telemetry "simplex.restart";
    let first = s.vertices.(0) in
    if better s first.value s.best.value then begin
      Log.debug (fun m ->
          m "restart (offset %.2f) improved %g -> %g" s.offset s.best.value
            first.value);
      s.best <- first
    end
    else if s.offset <= min_offset then s.keep_restarting <- false;
    s.offset <- Float.max min_offset (s.offset /. 2.0)
  end
  else s.best <- s.vertices.(0);
  next_restart s

(* Oriented restarts: a collapsed simplex loses dimensions (e.g. every
   vertex shares one coordinate) and can stall far from the optimum.
   While budget remains, rebuild a fresh simplex around the incumbent
   best; the restart offset halves after each failed attempt, and the
   search only gives up once the smallest offset fails to improve. *)
and next_restart s =
  if
    budget_left s && s.keep_restarting
    && s.evaluations + s.n + 1 <= s.options.max_evaluations
  then begin
    let best = s.best in
    let around =
      List.init s.n (fun i ->
          let c = Array.copy best.config in
          let p = s.params.(i) in
          let span = p.Param.max_value -. p.Param.min_value in
          let v = c.(i) +. (s.offset *. span) in
          c.(i) <-
            (if v > p.Param.max_value then c.(i) -. (s.offset *. span) else v);
          (c, None))
    in
    s.seeds <- (best.config, Some best.value) :: Init.dedup s.space around;
    let batch = admitted s s.seeds in
    if Array.length batch = 0 then restart_told s [||]
    else ask s Restart_batch batch
  end
  else finish s

and restart_told s values =
  let restart = seeded_vertices s.seeds values in
  s.seeds <- [];
  if Array.length restart < 2 then begin
    s.keep_restarting <- false;
    next_restart s
  end
  else begin
    Telemetry.incr s.telemetry "simplex.restarts";
    Telemetry.span_begin s.telemetry "simplex.restart";
    s.in_restart <- true;
    run s restart
  end

(* One Nelder-Mead run over a fresh simplex. *)
and run s vertices =
  s.vertices <- vertices;
  sort s;
  s.converged <- false;
  next_step s

and finish s =
  Log.debug (fun m ->
      m "finished: best %g after %d evaluations (%d iterations, converged %b)"
        s.best.value s.evaluations s.iterations s.converged);
  s.batch <- [||];
  s.phase <-
    Finished
      {
        best_config = s.best.config;
        best_performance = s.best.value;
        evaluations = s.evaluations;
        iterations = s.iterations;
        converged = s.converged;
      }

let initial_told s values =
  let vertices = seeded_vertices s.seeds values in
  s.seeds <- [];
  Telemetry.span_end s.telemetry "simplex.init";
  if Array.length vertices < 2 then
    invalid_arg "Simplex.optimize: degenerate initial simplex";
  run s vertices

let reflection_told s rv =
  let vertices = s.vertices in
  let k = Array.length vertices in
  let worst = vertices.(k - 1) in
  let reflected = s.batch.(0) in
  if better s rv vertices.(0).value && budget_left s then begin
    (* Try expanding further. *)
    let expanded = move s ~from:worst.config ~towards:s.centroid 3.0 in
    if Space.config_equal expanded reflected || is_vertex s expanded then
      replace_worst s Reflect { config = reflected; value = rv }
    else begin
      s.reflection <- { config = reflected; value = rv };
      ask s Expansion [| expanded |]
    end
  end
  else if better s rv vertices.(k - 2).value then
    replace_worst s Reflect { config = reflected; value = rv }
  else if budget_left s then begin
    (* Contraction (keep the reflection if it at least beats the worst
       vertex). *)
    let contracted = move s ~from:worst.config ~towards:s.centroid 0.5 in
    if is_vertex s contracted then
      if better s rv worst.value then
        replace_worst s Reflect { config = reflected; value = rv }
      else shrink s
    else begin
      s.reflection <- { config = reflected; value = rv };
      ask s Contraction [| contracted |]
    end
  end
  else close_step s

let tell s values =
  if Array.length values <> Array.length s.batch then
    invalid_arg "Simplex.Search.tell: one value per asked configuration";
  match s.phase with
  | Finished _ -> invalid_arg "Simplex.Search.tell: the search has finished"
  | Initial -> initial_told s values
  | Reflection -> reflection_told s values.(0)
  | Expansion ->
      let ev = values.(0) in
      if better s ev s.reflection.value then
        replace_worst s Expand { config = s.batch.(0); value = ev }
      else replace_worst s Reflect s.reflection
  | Collapsed_contraction ->
      let v = values.(0) in
      if better s v (worst s).value then
        replace_worst s Contract { config = s.batch.(0); value = v }
      else shrink s
  | Contraction ->
      let cv = values.(0) in
      if better s cv (worst s).value then
        replace_worst s Contract { config = s.batch.(0); value = cv }
      else if better s s.reflection.value (worst s).value then
        replace_worst s Reflect s.reflection
      else shrink s
  | Shrink_batch ->
      for j = 0 to Array.length s.replaces - 1 do
        s.vertices.(s.replaces.(j)) <- { config = s.batch.(j); value = values.(j) }
      done;
      sort s;
      close_step s
  | Restart_batch -> restart_told s values

let start ?(telemetry = Telemetry.off) ?(options = default_options) ~space
    ~direction () =
  let n = Space.dims space in
  if options.max_evaluations < n + 2 then
    invalid_arg "Simplex.optimize: budget below n+2 evaluations";
  let s =
    {
      space;
      params = Space.params space;
      n;
      direction;
      options;
      telemetry;
      steps = Telemetry.counter telemetry "simplex.steps";
      centroid = Array.make n 0.0;
      phase = Initial;
      batch = [||];
      evaluations = 0;
      iterations = 0;
      seeds = [];
      replaces = [||];
      vertices = [||];
      kind = No_step;
      reflection = no_vertex;
      converged = false;
      in_restart = false;
      best = no_vertex;
      offset = 0.25;
      keep_restarting = true;
    }
  in
  Telemetry.span_begin telemetry "simplex.init";
  (match Init.vertices options.init space with
  | seeds -> s.seeds <- seeds
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Telemetry.span_end telemetry "simplex.init";
      Printexc.raise_with_backtrace e bt);
  (* Trusted vertices keep their value; the rest are evaluated as one
     batch. *)
  let batch = admitted s s.seeds in
  if Array.length batch = 0 then initial_told s [||] else ask s Initial batch;
  s

(* An evaluation raised.  The spans around the initial simplex and
   around a restart's search close on an exception, as a
   [Telemetry.span] does; a step's span stays open. *)
let abandon s =
  match s.phase with
  | Initial -> Telemetry.span_end s.telemetry "simplex.init"
  | Reflection | Expansion | Collapsed_contraction | Contraction | Shrink_batch
    ->
      if s.in_restart then Telemetry.span_end s.telemetry "simplex.restart"
  | Restart_batch | Finished _ -> ()

module Search = struct
  type t = search

  let start = start
  let asked s = s.batch
  let tell = tell
  let abandon = abandon

  let outcome s =
    match s.phase with
    | Finished outcome -> Some outcome
    | Initial | Reflection | Expansion | Collapsed_contraction | Contraction
    | Shrink_batch | Restart_batch ->
        None
end

let optimize ?telemetry ?pool ?options obj =
  let s =
    start ?telemetry ?options ~space:obj.Objective.space
      ~direction:obj.Objective.direction ()
  in
  (* Every measurement goes through the batch engine — the phases that
     produce whole config sets (initial simplex, shrink, restarts) ask
     for one batch, single proposals are batches of one — so the
     evaluation sequence is identical with and without a pool. *)
  let rec drive () =
    match s.phase with
    | Finished outcome -> outcome
    | Initial | Reflection | Expansion | Collapsed_contraction | Contraction
    | Shrink_batch | Restart_batch ->
        (match Objective.eval_batch ?pool obj s.batch with
        | values -> tell s values
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            abandon s;
            Printexc.raise_with_backtrace e bt);
        drive ()
  in
  drive ()

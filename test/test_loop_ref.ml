(* The tuning run against the two loops it replaced, kept here as they
   stood:

   - [Ref_tuner.tune], which ran [Simplex.optimize] over two objective
     wrappers (a [measure] span per reading, then a recorder with an
     [on_record] hook) and answered with the recorder's newest-first
     [best] when it beat the final vertex;
   - [Ref_controller], the per-report controller with its own
     [improves] and [best_so_far], and [Ref_session], the server
     session over it, which fell back to [best_so_far] with its own
     [better] at [Done].

   QCheck drives both sides over 1–4-parameter spaces (single-value
   and degenerate ones included), both directions, every [Init] kind
   (seeded with trusted values and duplicates), budgets from below n+2
   up, noise and faults under [Measure.default_policy], objectives and
   hooks that raise, and pools of 1 and 4 domains.  Where no NaN
   reading reaches the best-measured rule, everything must agree: the
   batches the objective was handed, the trace entries, the order of
   the [on_evaluation] calls, the outcome's bits, the telemetry (JSONL
   events with their trace ids, and the metrics registry), the text of
   every exception, and every [Server] reply.

   Over streams with NaN readings the old loops disagree with each
   other, so the last property states the rule instead: [Tuner.tune]
   and a [Server] fed the same readings answer with the same best, the
   earliest best number when it beats the final vertex, else that
   vertex. *)

open Harmony
open Harmony_objective
module Space = Harmony_param.Space
module Rsl = Harmony_param.Rsl
module Rng = Harmony_numerics.Rng
module Pool = Harmony_parallel.Pool
module Telemetry = Harmony_telemetry.Telemetry
module Export = Harmony_telemetry.Export
module Gen = QCheck2.Gen

let seed = [| 0x100b; 27 |]

(* ------------------------------------------------------------------ *)
(* The references                                                      *)

module Ref_recorder = struct
  type t = { mutable rev_entries : Recorder.entry list; mutable next : int }

  let wrap ?on_record obj =
    let r = { rev_entries = []; next = 0 } in
    let record c performance =
      let entry = { Recorder.index = r.next; config = Array.copy c; performance } in
      r.rev_entries <- entry :: r.rev_entries;
      r.next <- r.next + 1;
      match on_record with None -> () | Some f -> f entry
    in
    let eval c =
      let performance = obj.Objective.eval c in
      record c performance;
      performance
    in
    let batch disp configs =
      let values = Objective.run_batch obj disp configs in
      Array.iteri (fun i v -> record configs.(i) v) values;
      values
    in
    (r, { obj with Objective.eval; batch = Some batch })

  let entries r = List.rev r.rev_entries

  let best obj r =
    List.fold_left
      (fun acc (e : Recorder.entry) ->
        match acc with
        | None -> Some e
        | Some (b : Recorder.entry) ->
            if
              Objective.better obj e.performance b.performance
              || (Float.equal e.performance b.performance && e.index < b.index)
            then Some e
            else acc)
      None r.rev_entries
end

module Ref_tuner = struct
  let tune ?(telemetry = Telemetry.off) ?ctx ?pool ?(options = Tuner.default_options)
      obj =
    let measured, handle =
      match options.Tuner.measure with
      | None -> (obj, None)
      | Some policy ->
          let robust, handle = Measure.robust ~telemetry ~policy obj in
          (robust, Some handle)
    in
    let measure_seq = ref 0 in
    let measure_begin () =
      match ctx with
      | None -> Telemetry.span_begin telemetry "measure"
      | Some c ->
          let i = !measure_seq in
          incr measure_seq;
          Telemetry.span_begin telemetry
            ~ctx:(Telemetry.Ctx.child_i c "measure" i)
            "measure"
    in
    let evaluations = Telemetry.counter telemetry "tuner.evaluations" in
    let traced =
      if not (Telemetry.enabled telemetry) then measured
      else
        {
          measured with
          Objective.eval =
            (fun c ->
              measure_begin ();
              Telemetry.add evaluations 1;
              match measured.Objective.eval c with
              | v ->
                  Telemetry.span_end telemetry
                    ~args:[ ("performance", Telemetry.Num v) ]
                    "measure";
                  v
              | exception e ->
                  Telemetry.span_end telemetry "measure";
                  raise e);
          batch =
            Some
              (fun disp configs ->
                let values = Objective.run_batch measured disp configs in
                Array.iter
                  (fun v ->
                    measure_begin ();
                    Telemetry.add evaluations 1;
                    Telemetry.span_end telemetry
                      ~args:[ ("performance", Telemetry.Num v) ]
                      "measure")
                  values;
                values);
        }
    in
    let recorder, recorded =
      Ref_recorder.wrap ?on_record:options.Tuner.on_evaluation traced
    in
    let simplex_options =
      {
        Simplex.init = options.Tuner.init;
        max_evaluations = options.Tuner.max_evaluations;
        tolerance = options.Tuner.tolerance;
      }
    in
    let result = Simplex.optimize ~telemetry ?pool ~options:simplex_options recorded in
    let trace = Ref_recorder.entries recorder in
    let best_config, best_performance =
      match Ref_recorder.best obj recorder with
      | Some e
        when Objective.better obj e.Recorder.performance
               result.Simplex.best_performance ->
          (e.Recorder.config, e.Recorder.performance)
      | Some _ | None -> (result.Simplex.best_config, result.Simplex.best_performance)
    in
    {
      Tuner.best_config;
      best_performance;
      trace;
      evaluations = result.Simplex.evaluations;
      converged = result.Simplex.converged;
      measurement = Option.map Measure.summary handle;
    }
end

module Ref_controller = struct
  type t = {
    search : Simplex.Search.t;
    direction : Objective.direction;
    mutable readings : float array;
    mutable next : int;
    mutable broken : bool;
    mutable measurements : int;
    mutable best : (Space.config * float) option;
  }

  let create ?telemetry ?(options = Simplex.default_options) ~space ~direction
      () =
    let search = Simplex.Search.start ?telemetry ~options ~space ~direction () in
    {
      search;
      direction;
      readings = Array.make (Array.length (Simplex.Search.asked search)) 0.0;
      next = 0;
      broken = false;
      measurements = 0;
      best = None;
    }

  let pending t =
    if t.broken then invalid_arg "Controller.pending: controller is mid-step";
    match Simplex.Search.outcome t.search with
    | Some outcome -> `Done outcome
    | None -> `Measure (Array.copy (Simplex.Search.asked t.search).(t.next))

  let improves t (performance : float) best =
    match t.direction with
    | Objective.Higher_is_better -> performance > best
    | Objective.Lower_is_better -> performance < best

  let report t performance =
    if t.broken then invalid_arg "Controller.report: no measurement outstanding";
    match Simplex.Search.outcome t.search with
    | Some _ -> invalid_arg "Controller.report: search already finished"
    | None ->
        let asked = Simplex.Search.asked t.search in
        t.measurements <- t.measurements + 1;
        (match t.best with
        | Some (_, best) when not (improves t performance best) -> ()
        | Some _ | None -> t.best <- Some (Array.copy asked.(t.next), performance));
        t.readings.(t.next) <- performance;
        t.next <- t.next + 1;
        if t.next = Array.length asked then begin
          t.broken <- true;
          Simplex.Search.tell t.search t.readings;
          t.broken <- false;
          t.next <- 0;
          let len = Array.length (Simplex.Search.asked t.search) in
          if Array.length t.readings <> len then t.readings <- Array.make len 0.0
        end

  let best_so_far t = t.best
end

(* A session of the server as it stood: register, then queries,
   reports and failed reports, answered from [Ref_controller] with
   [next_reply]'s fallback at [Done]. *)
module Ref_session = struct
  type session = {
    rsl : Rsl.t;
    names : string list;
    controller : Ref_controller.t;
    direction : Objective.direction;
    mutable outstanding : (string * int) list option;
    mutable failures : int;
  }

  type t = { options : Simplex.options; mutable session : session option }

  let better direction (a : float) (b : float) =
    match direction with
    | Objective.Higher_is_better -> a > b
    | Objective.Lower_is_better -> a < b

  let assignment session config =
    let feasible = Rsl.repair session.rsl config in
    List.mapi (fun i name -> (name, int_of_float feasible.(i))) session.names

  let next_reply session =
    match Ref_controller.pending session.controller with
    | `Measure config ->
        let a = assignment session config in
        session.outstanding <- Some a;
        session.failures <- 0;
        Server.Assign a
    | `Done outcome ->
        session.outstanding <- None;
        session.failures <- 0;
        let best_config, performance =
          match Ref_controller.best_so_far session.controller with
          | Some (config, perf)
            when better session.direction perf outcome.Simplex.best_performance
            ->
              (config, perf)
          | Some _ | None ->
              (outcome.Simplex.best_config, outcome.Simplex.best_performance)
        in
        Server.Done { best = assignment session best_config; performance }

  let handle_message t message =
    match (message, t.session) with
    | Server.Register { spec; direction }, _ -> (
        let rsl = Rsl.parse spec in
        let direction =
          match direction with
          | Server.Minimize -> Objective.Lower_is_better
          | Server.Maximize -> Objective.Higher_is_better
        in
        match
          Ref_controller.create ~options:t.options ~space:(Rsl.to_space rsl)
            ~direction ()
        with
        | exception Invalid_argument msg ->
            Server.Rejected ("untunable specification: " ^ msg)
        | controller ->
            let session =
              {
                rsl;
                names = Rsl.names rsl;
                controller;
                direction;
                outstanding = None;
                failures = 0;
              }
            in
            t.session <- Some session;
            next_reply session)
    | (Server.Query | Server.Report _ | Server.Report_failed), None ->
        Server.Rejected "no specification registered"
    | Server.Query, Some session -> (
        match session.outstanding with
        | Some a -> Server.Assign a
        | None -> next_reply session)
    | Server.Report v, Some session -> (
        match session.outstanding with
        | None -> Server.Rejected "no assignment outstanding"
        | Some _ ->
            session.outstanding <- None;
            session.failures <- 0;
            Ref_controller.report session.controller v;
            next_reply session)
    | Server.Report_failed, Some session -> (
        match session.outstanding with
        | None -> Server.Rejected "no assignment outstanding"
        | Some a ->
            session.failures <- session.failures + 1;
            if session.failures < 3 then Server.Assign a
            else begin
              session.outstanding <- None;
              session.failures <- 0;
              Ref_controller.report session.controller
                (Measure.penalty_for session.direction);
              next_reply session
            end)
    | Server.Metrics, _ -> invalid_arg "Ref_session: not scripted"

  let handle t message =
    match handle_message t message with
    | reply -> reply
    | exception Invalid_argument msg ->
        t.session <- None;
        Server.Rejected ("session aborted: " ^ msg)
end

(* ------------------------------------------------------------------ *)
(* Cases                                                               *)

type family = Bowl | Plateau | Ties | Penalty | Raising | Nan

type init =
  | Extremes
  | Spread
  | Around of float
  | Seeded of (float array * float option) list

type case = {
  ranges : (int * int * int) list;  (* lo >= 0 (an RSL literal), width, step *)
  family : family;
  higher : bool;
  key : int;
  init : init;
  budget_over : int;  (* budget - (n + 2) *)
  tolerance : float;
  noise : float option;
  faults : float option;
  policy : bool;  (* measure under [Measure.default_policy] *)
  domains : int option;  (* pool size *)
  traced : bool;  (* a live telemetry handle *)
  ctx : bool;
  hook_raises_at : int option;  (* the [on_evaluation] call that raises *)
  failed : int;  (* per mille of assignments a server client fails *)
}

let family_name = function
  | Bowl -> "bowl"
  | Plateau -> "plateau"
  | Ties -> "ties"
  | Penalty -> "penalty"
  | Raising -> "raising"
  | Nan -> "nan"

(* The box as an RSL spec, the server's view of the tuner's space. *)
let spec_of case =
  String.concat "\n"
    (List.mapi
       (fun i (lo, width, step) ->
         Printf.sprintf "{ harmonyBundle P%d { int {%d %d %d} }}" i lo (lo + width)
           step)
       case.ranges)

let space_of case = Rsl.to_space (Rsl.parse (spec_of case))

let direction_of case =
  if case.higher then Objective.Higher_is_better else Objective.Lower_is_better

let simplex_options case =
  {
    Simplex.init =
      (match case.init with
      | Extremes -> Simplex.Init.Extremes
      | Spread -> Simplex.Init.Spread
      | Around f -> Simplex.Init.Around_default f
      | Seeded seeds -> Simplex.Init.Seeded seeds);
    max_evaluations = List.length case.ranges + 2 + case.budget_over;
    tolerance = case.tolerance;
  }

exception Boom of int

(* A deterministic function of the configuration for each family. *)
let reading case c =
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
  | Raising -> if h mod 9 = 0 then raise (Boom (h mod 1000)) else bowl
  | Nan -> if h mod 5 = 0 then Float.nan else bowl

let gen_case ~nan =
  let open Gen in
  let* n = int_range 1 4 in
  let* ranges =
    list_repeat n
      (triple (int_range 0 10)
         (frequency [ (1, return 0); (5, int_range 1 20) ])
         (frequency [ (4, return 1); (1, int_range 2 3) ]))
  in
  let* policy = frequency [ (2, return false); (1, return true) ] in
  (* A NaN reading reaches the rule unless the policy vets it. *)
  let* family =
    if nan then return Nan
    else if policy then oneofl [ Bowl; Bowl; Plateau; Ties; Penalty; Raising; Nan ]
    else oneofl [ Bowl; Bowl; Plateau; Ties; Penalty; Raising ]
  in
  let* higher = bool in
  let* key = int_range 0 10_000 in
  let point = array_size (return n) (float_range (-8.0) 30.0) in
  let value =
    frequency
      [
        (3, return None);
        (3, map Option.some (float_range (-50.0) 50.0));
        (1, return (Some 0.0));
        ((if nan then 1 else 0), return (Some Float.nan));
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
    frequency [ (1, int_range (-2) (-1)); (6, int_range 0 12); (3, int_range 13 60) ]
  in
  let* tolerance = oneofl [ 1e-3; 0.0; 0.2; 0.5 ] in
  let sometimes g = frequency [ (3, return None); (1, map Option.some g) ] in
  let* noise = sometimes (oneofl [ 0.05; 0.25 ]) in
  (* Faults without a policy raise [Measurement_failed]. *)
  let* faults = sometimes (oneofl [ 0.1; 0.3 ]) in
  let* domains = oneofl [ None; Some 1; Some 4 ] in
  let* traced = frequency [ (4, return true); (1, return false) ] in
  let* ctx = bool in
  let* hook_raises_at =
    frequency [ (6, return None); (1, map Option.some (int_range 0 30)) ]
  in
  let* failed = oneofl [ 0; 0; 100; 300 ] in
  return
    {
      ranges;
      family;
      higher;
      key;
      init;
      budget_over;
      tolerance;
      noise;
      faults;
      policy;
      domains;
      traced;
      ctx;
      hook_raises_at;
      failed;
    }

let print_case c =
  let value = function None -> "-" | Some v -> Printf.sprintf "%h" v in
  let opt f = function None -> "-" | Some x -> f x in
  Printf.sprintf
    "ranges=[%s] family=%s higher=%b key=%d init=%s budget+%d tol=%g noise=%s \
     faults=%s policy=%b domains=%s traced=%b ctx=%b hook-raises=%s failed=%d"
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
    c.budget_over c.tolerance (opt string_of_float c.noise)
    (opt string_of_float c.faults) c.policy (opt string_of_int c.domains) c.traced
    c.ctx (opt string_of_int c.hook_raises_at) c.failed

(* ------------------------------------------------------------------ *)
(* What a run shows                                                    *)

let bits c = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") c))

exception Hook_stop of int

(* One [tune]: the batches its objective was handed on the calling
   domain, every [on_evaluation] call, the outcome or the exception,
   and the telemetry. *)
let tune_transcript tune ~pools case =
  let space = space_of case in
  let direction = direction_of case in
  let log = Buffer.create 256 in
  let base = Objective.create ~space ~direction (reading case) in
  let noisy =
    match case.noise with
    | None -> base
    | Some level -> Objective.with_noise (Rng.create case.key) ~level base
  in
  let faulty =
    match case.faults with
    | None -> noisy
    | Some rate ->
        let rates = Objective.fault_profile rate in
        (* Without a policy a timeout's NaN would reach the rule. *)
        let rates = if case.policy then rates else { rates with timeout = 0.0 } in
        Objective.with_faults ~rates ~seed:case.key noisy
  in
  let obj =
    {
      faulty with
      Objective.batch =
        Some
          (fun disp configs ->
            Buffer.add_string log "batch [";
            Array.iter (fun c -> Buffer.add_string log (bits c ^ ";")) configs;
            Buffer.add_string log "]\n";
            Objective.run_batch faulty disp configs);
    }
  in
  let hook (e : Recorder.entry) =
    Buffer.add_string log
      (Printf.sprintf "hook %d %s = %h\n" e.index (bits e.config) e.performance);
    if Some e.index = case.hook_raises_at then raise (Hook_stop e.index)
  in
  let options =
    let s = simplex_options case in
    {
      Tuner.init = s.Simplex.init;
      max_evaluations = s.Simplex.max_evaluations;
      tolerance = s.Simplex.tolerance;
      measure = (if case.policy then Some Measure.default_policy else None);
      on_evaluation = Some hook;
    }
  in
  let telemetry = if case.traced then Telemetry.create () else Telemetry.off in
  let ctx =
    if case.ctx then Some (Telemetry.Ctx.root ~client:"loop-ref" ~seq:case.key)
    else None
  in
  let result =
    let pool = Option.map (fun d -> List.assoc d pools) case.domains in
    match tune ~telemetry ?ctx ?pool ~options obj with
    | exception e -> "raised " ^ Printexc.to_string e
    | (o : Tuner.outcome) ->
        String.concat "\n"
          (Printf.sprintf "best %s perf %h evals %d converged %b"
             (bits o.best_config) o.best_performance o.evaluations o.converged
          :: (match o.measurement with
             | None -> "no measurement"
             | Some s ->
                 Printf.sprintf "measured %d attempts %d retries %d faults %d \
                                 give-ups %d backoff %h"
                   s.Measure.measurements s.attempts s.retries s.faults s.give_ups
                   s.backoff_ms)
          :: List.map
               (fun (e : Recorder.entry) ->
                 Printf.sprintf "entry %d %s = %h" e.index (bits e.config)
                   e.performance)
               o.trace)
  in
  String.concat "\n"
    [ Buffer.contents log; result; Export.jsonl telemetry; Export.prometheus telemetry ]

let new_tune ~telemetry ?ctx ?pool ~options obj =
  Tuner.tune ~telemetry ?ctx ?pool ~options obj

let ref_tune ~telemetry ?ctx ?pool ~options obj =
  Ref_tuner.tune ~telemetry ?ctx ?pool ~options obj

(* A client of [handle]: register the case's box, then answer each
   assignment with its reading — failing some first, querying now and
   then — until [Done] or 400 messages. *)
let session_transcript handle case =
  let client = Random.State.make [| case.key |] in
  let out = Buffer.create 256 in
  let send message =
    let reply = handle message in
    Buffer.add_string out (Server.reply_to_string reply ^ "\n");
    reply
  in
  let value a =
    let c = Array.of_list (List.map (fun (_, v) -> float_of_int v) a) in
    match reading case c with v -> v | exception Boom _ -> Float.nan
  in
  let rec loop reply budget =
    if budget > 0 then
      match reply with
      | Server.Assign a ->
          let message =
            if Random.State.int client 1000 < case.failed then Server.Report_failed
            else if Random.State.int client 20 = 0 then Server.Query
            else Server.Report (value a)
          in
          loop (send message) (budget - 1)
      | Server.Done _ | Server.Rejected _ | Server.Stats _ ->
          (* One late report, answered from whatever state is left. *)
          ignore (send (Server.Report 1.0) : Server.reply)
  in
  let direction = if case.higher then Server.Maximize else Server.Minimize in
  loop (send (Server.Register { spec = spec_of case; direction })) 400;
  Buffer.contents out

let new_session case =
  let server = Server.create ~options:(simplex_options case) () in
  session_transcript (Server.handle server) case

let ref_session case =
  let session = { Ref_session.options = simplex_options case; session = None } in
  session_transcript (Ref_session.handle session) case

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let check_equal what ~expected ~actual =
  if not (String.equal expected actual) then
    QCheck2.Test.fail_reportf "%s differs.\nreference:\n%s\nrun:\n%s" what expected
      actual;
  true

let prop_tune ~pools =
  QCheck2.Test.make ~name:"tune equals the wrapper loop without NaN readings"
    ~count:400 ~print:print_case (gen_case ~nan:false) (fun case ->
      check_equal "tune"
        ~expected:(tune_transcript ref_tune ~pools case)
        ~actual:(tune_transcript new_tune ~pools case))

(* A client reads a raising configuration as NaN, and no policy vets
   its readings: only the other families keep NaN away from the
   rule. *)
let prop_server =
  QCheck2.Test.make ~name:"server replies equal the old session without NaN readings"
    ~count:400 ~print:print_case
    (Gen.map
       (fun c ->
         match c.family with
         | Raising | Nan -> { c with family = Bowl }
         | Bowl | Plateau | Ties | Penalty -> c)
       (gen_case ~nan:false))
    (fun case ->
      check_equal "session" ~expected:(ref_session case) ~actual:(new_session case))

(* The best-measured rule, stated over the run's readings: the earliest
   best number when it beats the final vertex (a number beats a NaN
   vertex), else the vertex. *)
let expected_best case =
  let obj =
    Objective.create ~space:(space_of case) ~direction:(direction_of case)
      (reading case)
  in
  let r, recorded = Recorder.wrap obj in
  let vertex = Simplex.optimize ~options:(simplex_options case) recorded in
  let better a b = if case.higher then a > b else a < b in
  let earliest =
    List.fold_left
      (fun acc (e : Recorder.entry) ->
        if Float.is_nan e.performance then acc
        else
          match acc with
          | Some (_, b) when not (better e.performance b) -> acc
          | Some _ | None -> Some (e.config, e.performance))
      None (Recorder.entries r)
  in
  match earliest with
  | Some (config, v)
    when Float.is_nan vertex.Simplex.best_performance
         || better v vertex.Simplex.best_performance ->
      (config, v)
  | Some _ | None -> (vertex.Simplex.best_config, vertex.Simplex.best_performance)

let gen_nan_case =
  (* Boxes with two values or more per parameter, under budgets that
     admit the initial simplex. *)
  Gen.map
    (fun c ->
      {
        c with
        ranges = List.map (fun (lo, w, s) -> (lo, Int.max (2 * s) w, s)) c.ranges;
        budget_over = Int.max 0 c.budget_over;
      })
    (gen_case ~nan:true)

let prop_nan =
  QCheck2.Test.make ~name:"tune and server agree on the best with NaN readings"
    ~count:400 ~print:print_case gen_nan_case (fun case ->
      let best_text (config, v) = Printf.sprintf "%s = %h" (bits config) v in
      (* A box can still collapse its initial simplex: then the tuner
         raises and the server rejects the spec. *)
      let expected =
        match expected_best case with
        | best -> best_text best
        | exception Invalid_argument msg -> "raised " ^ msg
      in
      let tuned =
        let obj =
          Objective.create ~space:(space_of case) ~direction:(direction_of case)
            (reading case)
        in
        let s = simplex_options case in
        match
          Tuner.tune
            ~options:
              {
                Tuner.default_options with
                init = s.Simplex.init;
                max_evaluations = s.Simplex.max_evaluations;
                tolerance = s.Simplex.tolerance;
              }
            obj
        with
        | o -> best_text (o.Tuner.best_config, o.Tuner.best_performance)
        | exception Invalid_argument msg -> "raised " ^ msg
      in
      let served =
        let server = Server.create ~options:(simplex_options case) () in
        let direction = if case.higher then Server.Maximize else Server.Minimize in
        let rec loop = function
          | Server.Assign a ->
              let c = Array.of_list (List.map (fun (_, v) -> float_of_int v) a) in
              loop (Server.handle server (Server.Report (reading case c)))
          | Server.Done { best; performance } ->
              best_text
                ( Array.of_list (List.map (fun (_, v) -> float_of_int v) best),
                  performance )
          | Server.Rejected msg ->
              (* What the tuner raised, after the server's "untunable
                 specification: " or "session aborted: ". *)
              let i = Option.value (String.index_opt msg ':') ~default:(-2) + 2 in
              "raised " ^ String.sub msg i (String.length msg - i)
          | Server.Stats _ as r -> Server.reply_to_string r
        in
        loop (Server.handle server (Server.Register { spec = spec_of case; direction }))
      in
      check_equal "tune" ~expected ~actual:tuned
      && check_equal "server" ~expected ~actual:served)

let run_qcheck test () = QCheck2.Test.check_exn ~rand:(Random.State.make seed) test

let suite =
  [
    Alcotest.test_case "tune equals the wrapper loop" `Quick (fun () ->
        Pool.with_pool ~domains:1 (fun one ->
            Pool.with_pool ~domains:4 (fun four ->
                run_qcheck (prop_tune ~pools:[ (1, one); (4, four) ]) ())));
    Alcotest.test_case "server replies equal the old session" `Quick
      (run_qcheck prop_server);
    Alcotest.test_case "tune and server agree on the best" `Quick
      (run_qcheck prop_nan);
  ]

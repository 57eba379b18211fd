(* Command-line front end for the Active Harmony reproduction.

   harmony_cli experiment [ID]   regenerate the paper's tables/figures
   harmony_cli tune ...          run the tuner on a built-in system
   harmony_cli prioritize ...    run the parameter prioritizing tool
   harmony_cli rsl ...           count/enumerate a restricted space
   harmony_cli db ...            inspect an experience database *)

open Cmdliner
open Harmony
open Harmony_param
open Harmony_objective
module Rng = Harmony_numerics.Rng
module Ws = Harmony_webservice
module Generator = Harmony_datagen.Generator
module Pool = Harmony_parallel.Pool
module Telemetry = Harmony_telemetry.Telemetry
module Flight = Harmony_telemetry.Flight
module Export = Harmony_telemetry.Export
module Summary = Harmony_telemetry.Summary
module Service = Harmony_service.Service
module Admission = Harmony_service.Admission

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let mix_arg =
  let doc = "TPC-W workload mix: browsing, shopping or ordering." in
  Arg.(value & opt string "shopping" & info [ "mix" ] ~docv:"MIX" ~doc)

let system_arg =
  let doc =
    "System to tune: 'model' (analytic 3-tier web service), 'sim' \
     (discrete-event web service), or 'datagen' (synthetic rule data)."
  in
  Arg.(value & opt string "model" & info [ "system" ] ~docv:"SYSTEM" ~doc)

let budget_arg =
  let doc = "Objective-evaluation budget." in
  Arg.(value & opt int 150 & info [ "budget" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed for stochastic components." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let noise_arg =
  let doc = "Uniform measurement perturbation level (e.g. 0.05 for 5%)." in
  Arg.(value & opt float 0.0 & info [ "noise" ] ~docv:"LEVEL" ~doc)

let jobs_arg =
  let doc =
    "Evaluation domains for parallelizable work (1 = today's sequential \
     path).  Defaults to the runtime's recommended domain count.  Output is \
     byte-identical at every job count."
  in
  Arg.(
    value
    & opt int (Pool.default_domains ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let faults_arg =
  let doc =
    "Inject measurement faults at RATE with an optional injection SEED \
     (default 1): transients at RATE, outliers at RATE/2, timeouts at \
     RATE/4, persistently broken configurations at RATE/8.  Enables the \
     fault-tolerant measurement policy (retry with capped backoff, \
     median-of-k re-measurement, MAD outlier rejection, worst-case \
     penalties for measurements that stay broken)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"RATE[,SEED]" ~doc)

let parse_faults = function
  | None -> Ok None
  | Some text -> (
      let rate, seed =
        match String.split_on_char ',' text with
        | [ rate ] -> (rate, Some "1")
        | [ rate; seed ] -> (rate, Some seed)
        | _ -> (text, None)
      in
      match (float_of_string_opt rate, Option.map int_of_string_opt seed) with
      | Some rate, Some (Some seed) when rate >= 0.0 && rate <= 1.0 ->
          Ok (Some (rate, seed))
      | _ -> Error ("cannot parse --faults " ^ text ^ " (want RATE[,SEED])"))

let memo_arg =
  let doc =
    "Memoize measurements per configuration: a revisited grid point returns \
     its recorded value instead of re-measuring.  The memo table sits under \
     the noise layer, so noise (if any) stays live; hit/miss counters are \
     printed afterwards."
  in
  Arg.(value & flag & info [ "memo" ] ~doc)

let objective_of ~system ~mix ~seed ~noise ?(memo = false)
    ?(telemetry = Telemetry.off) () =
  let base =
    match system with
    | "model" -> Ws.Model.objective ~mix:(Ws.Tpcw.mix_of_label mix) ()
    | "sim" -> Ws.Simulation.objective ~mix:(Ws.Tpcw.mix_of_label mix) ()
    | "datagen" ->
        let g = Generator.synthetic_webservice ~seed () in
        let workload =
          match mix with
          | "browsing" -> Generator.browsing_mix
          | "ordering" -> Generator.ordering_mix
          | _ -> Generator.shopping_mix
        in
        Generator.objective g ~workload
    | other -> invalid_arg ("unknown system: " ^ other)
  in
  (* Cache below, noise on top: the ordering Objective.cached enforces
     for live noise. *)
  let base = if memo then Objective.cached ~telemetry base else base in
  if noise > 0.0 then Objective.with_noise (Rng.create seed) ~level:noise base
  else base

let print_memo_stats objective =
  match Objective.stats objective with
  | None -> ()
  | Some s ->
      Format.printf "memo:              %d hits / %d misses (%d requests)@."
        s.Objective.hits s.Objective.misses s.Objective.evals

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

let experiment_cmd =
  let id_arg =
    let doc = "Experiment id (fig4..fig10, table1, table2, headline) or 'all'." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
  in
  let run id jobs =
    if jobs < 1 then `Error (false, "--jobs must be at least 1")
    else if id = "all" then begin
      Pool.with_pool ~domains:jobs (fun pool ->
          Harmony_experiments.Registry.run_all ~pool Format.std_formatter);
      `Ok ()
    end
    else
      match Harmony_experiments.Registry.find id with
      | Some f ->
          Pool.with_pool ~domains:jobs (fun pool ->
              Harmony_experiments.Report.print Format.std_formatter
                (f (Some pool)));
          `Ok ()
      | None ->
          `Error
            ( false,
              Printf.sprintf "unknown experiment %s (known: %s)" id
                (String.concat ", " Harmony_experiments.Registry.ids) )
  in
  let doc = "Regenerate the paper's tables and figures." in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(ret (const run $ id_arg $ jobs_arg))

(* ------------------------------------------------------------------ *)
(* tune                                                                *)

let tune_cmd =
  let init_arg =
    let doc = "Initial simplex: 'spread' (improved) or 'extremes' (original)." in
    Arg.(value & opt string "spread" & info [ "init" ] ~docv:"INIT" ~doc)
  in
  let top_n_arg =
    let doc = "Tune only the N most sensitive parameters." in
    Arg.(value & opt (some int) None & info [ "top-n" ] ~docv:"N" ~doc)
  in
  let trace_csv_arg =
    let doc = "Write the tuning trace (one measurement per line) to FILE." in
    Arg.(value & opt (some string) None & info [ "trace-csv" ] ~docv:"FILE" ~doc)
  in
  let telemetry_arg =
    let doc =
      "Record a telemetry trace of the run (phase spans, per-evaluation \
       events, metrics) to FILE.  FORMAT is 'jsonl' (default; readable back \
       with $(b,harmony_cli stats)), 'chrome' (load into about:tracing / \
       Perfetto) or 'prometheus' (metrics only); without it the format is \
       inferred from the file extension.  The trace uses a logical clock \
       (event sequence numbers), so a seeded run's trace is reproducible, \
       and recording never changes the tuning result."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE[,FORMAT]" ~doc)
  in
  let parse_telemetry = function
    | None -> Ok None
    | Some text -> (
        match String.rindex_opt text ',' with
        | None -> Ok (Some (text, Export.format_of_filename text))
        | Some i -> (
            let file = String.sub text 0 i in
            let fmt = String.sub text (i + 1) (String.length text - i - 1) in
            match Export.format_of_string fmt with
            | Some format when file <> "" -> Ok (Some (file, format))
            | _ ->
                Error
                  ("cannot parse --telemetry " ^ text ^ " (want FILE[,FORMAT])")))
  in
  let run system mix budget seed noise memo faults init top_n trace_csv
      telemetry_spec jobs =
    if jobs < 1 then `Error (false, "--jobs must be at least 1")
    else
    match parse_telemetry telemetry_spec with
    | Error msg -> `Error (false, msg)
    | Ok telemetry_out ->
    let telemetry =
      match telemetry_out with
      | None -> Telemetry.off
      | Some _ -> Telemetry.create ()
    in
    match
      (objective_of ~system ~mix ~seed ~noise ~memo ~telemetry (),
       parse_faults faults)
    with
    | exception Invalid_argument msg -> `Error (false, msg)
    | _, Error msg -> `Error (false, msg)
    | objective, Ok faults ->
        let objective, measure =
          match faults with
          | None -> (objective, None)
          | Some (rate, fault_seed) ->
              ( Objective.with_faults
                  ~rates:(Objective.fault_profile rate)
                  ~seed:fault_seed objective,
                Some Measure.default_policy )
        in
        let init =
          match init with
          | "extremes" -> Simplex.Init.Extremes
          | _ -> Simplex.Init.Spread
        in
        let options =
          { Tuner.default_options with Tuner.init; max_evaluations = budget;
            measure }
        in
        let session = Session.create ~objective ~options ~telemetry () in
        let r =
          if jobs = 1 then Session.tune ?top_n session
          else
            Pool.with_pool ~domains:jobs (fun pool ->
                Session.tune ?top_n ~pool session)
        in
        let space = objective.Objective.space in
        Format.printf "tuned parameters:  %s@."
          (String.concat ", "
             (List.map
                (fun i -> (Space.param space i).Param.name)
                r.Session.tuned_indices));
        Format.printf "best performance:  %.3f@." r.Session.outcome.Tuner.best_performance;
        Format.printf "best configuration: %a@." (Space.pp_config space)
          r.Session.full_best_config;
        Format.printf "evaluations:       %d@." r.Session.outcome.Tuner.evaluations;
        let m = Tuner.Metrics.of_outcome objective r.Session.outcome in
        Format.printf "trace summary:     %a@." Tuner.Metrics.pp m;
        (match trace_csv with
        | None -> ()
        | Some file ->
            (* Session.trace_csv renders the trace over the *full*
               space: with --top-n the frozen parameters appear as
               constant columns at their pinned values instead of
               being dropped. *)
            Out_channel.with_open_text file (fun oc ->
                Out_channel.output_string oc (Session.trace_csv session r));
            Format.printf "trace written to   %s@." file);
        (match r.Session.outcome.Tuner.measurement with
        | None -> ()
        | Some s ->
            Format.printf "measurement:       %a@." Measure.pp_summary s;
            Format.printf "degraded:          %b@." r.Session.degraded);
        print_memo_stats objective;
        (match telemetry_out with
        | None -> ()
        | Some (file, format) ->
            Out_channel.with_open_text file (fun oc ->
                Out_channel.output_string oc (Export.render telemetry format));
            Format.printf "telemetry written to %s (%s, %d events)@." file
              (Export.format_to_string format)
              (Telemetry.event_count telemetry));
        `Ok ()
  in
  let doc = "Tune a built-in system with Active Harmony." in
  Cmd.v (Cmd.info "tune" ~doc)
    Term.(
      ret
        (const run $ system_arg $ mix_arg $ budget_arg $ seed_arg $ noise_arg
       $ memo_arg $ faults_arg $ init_arg $ top_n_arg $ trace_csv_arg
       $ telemetry_arg $ jobs_arg))

(* ------------------------------------------------------------------ *)
(* prioritize                                                          *)

let prioritize_cmd =
  let repeats_arg =
    let doc = "Measurements per sweep point (averaged)." in
    Arg.(value & opt int 1 & info [ "repeats" ] ~docv:"K" ~doc)
  in
  let run system mix seed noise memo repeats jobs =
    if jobs < 1 then `Error (false, "--jobs must be at least 1")
    else
      match objective_of ~system ~mix ~seed ~noise ~memo () with
      | exception Invalid_argument msg -> `Error (false, msg)
      | objective ->
          let report =
            Pool.with_pool ~domains:jobs (fun pool ->
                Sensitivity.analyze ~pool ~repeats objective)
          in
          Format.printf "%a" Sensitivity.pp report;
          Format.printf "total evaluations: %d@." (Sensitivity.evaluations report);
          print_memo_stats objective;
          `Ok ()
  in
  let doc = "Rank parameters by performance sensitivity (the prioritizing tool)." in
  Cmd.v (Cmd.info "prioritize" ~doc)
    Term.(
      ret
        (const run $ system_arg $ mix_arg $ seed_arg $ noise_arg $ memo_arg
       $ repeats_arg $ jobs_arg))

(* ------------------------------------------------------------------ *)
(* rsl                                                                 *)

let rsl_cmd =
  let file_arg =
    let doc = "File containing a resource specification." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let enumerate_arg =
    let doc = "Print up to N feasible configurations." in
    Arg.(value & opt (some int) None & info [ "enumerate" ] ~docv:"N" ~doc)
  in
  let run file enumerate =
    let ic = open_in file in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Rsl.parse text with
    | exception Rsl.Parse_error msg -> `Error (false, "parse error: " ^ msg)
    | spec ->
        Format.printf "bundles: %s@." (String.concat ", " (Rsl.names spec));
        Format.printf "feasible configurations: %d@."
          (Rsl.feasible_count ~limit:10_000_000 spec);
        (match enumerate with
        | None -> ()
        | Some n ->
            let count = ref 0 in
            Seq.iter
              (fun v ->
                if !count < n then begin
                  incr count;
                  Format.printf "  %s@."
                    (String.concat " "
                       (Array.to_list (Array.map string_of_int v)))
                end)
              (Rsl.enumerate spec));
        `Ok ()
  in
  let doc = "Parse a resource specification and count its restricted space." in
  Cmd.v (Cmd.info "rsl" ~doc) Term.(ret (const run $ file_arg $ enumerate_arg))

(* ------------------------------------------------------------------ *)
(* factorial                                                           *)

let factorial_cmd =
  let design_arg =
    let doc = "'full' (two-level full factorial, with interactions) or 'pb' \
               (Plackett-Burman main-effect screening)." in
    Arg.(value & opt string "pb" & info [ "design" ] ~docv:"DESIGN" ~doc)
  in
  let run system mix seed noise design =
    match objective_of ~system ~mix ~seed ~noise () with
    | exception Invalid_argument msg -> `Error (false, msg)
    | objective -> (
        let effects =
          match design with
          | "full" -> Ok (Factorial.full objective)
          | "pb" -> Ok (Factorial.plackett_burman objective)
          | other -> Error ("unknown design: " ^ other)
        in
        match effects with
        | Error msg -> `Error (false, msg)
        | exception Invalid_argument msg -> `Error (false, msg)
        | Ok effects ->
            Format.printf "design runs: %d@." effects.Factorial.runs;
            List.iter
              (fun (name, effect) -> Format.printf "%-24s %12.3f@." name effect)
              (Factorial.ranked_main effects);
            if Array.length effects.Factorial.interactions > 0 then begin
              Format.printf "@.two-way interactions:@.";
              Array.iter
                (fun (i, j, e) ->
                  if Float.abs e > 1e-9 then
                    Format.printf "%-12s x %-12s %12.3f@."
                      effects.Factorial.names.(i) effects.Factorial.names.(j) e)
                effects.Factorial.interactions;
              Format.printf "interaction/main ratio: %.3f@."
                (Factorial.interaction_ratio effects)
            end;
            `Ok ())
  in
  let doc = "Factorial experiment designs (for interacting parameters)." in
  Cmd.v (Cmd.info "factorial" ~doc)
    Term.(ret (const run $ system_arg $ mix_arg $ seed_arg $ noise_arg $ design_arg))

(* ------------------------------------------------------------------ *)
(* stats                                                               *)

let stats_cmd =
  let file_arg =
    let doc =
      "JSONL telemetry trace, as written by $(b,tune --telemetry FILE.jsonl)."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let ic = open_in file in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Summary.of_jsonl text with
    | Error msg -> `Error (false, file ^ ": " ^ msg)
    | Ok summary ->
        print_string (Summary.to_string summary);
        `Ok ()
  in
  let doc =
    "Summarize a JSONL telemetry trace: span durations, instants, counters, \
     gauges and histograms."
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(ret (const run $ file_arg))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve_cmd =
  let journal_arg =
    let doc =
      "Write-ahead journal FILE: every state-changing protocol event is \
       logged and fsynced before it is applied, so a crashed server can be \
       restarted with $(b,--recover) without losing the tuning session.  \
       Shard $(i,i) journals to $(b,FILE.shard)$(i,i) (a single session to \
       $(b,FILE.shard0)), compacting into $(b,.snapshot) beside it."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let recover_arg =
    let doc =
      "Rebuild the server state from the journal (and its snapshot) before \
       serving, instead of starting fresh.  Requires $(b,--journal).  A \
       torn or corrupt journal tail degrades to the longest valid prefix.  \
       A bare $(b,FILE) or $(b,FILE.snapshot) without $(b,FILE.shard0) is \
       a single-session journal from an earlier version: it is refused, \
       not read."
    in
    Arg.(value & flag & info [ "recover" ] ~doc)
  in
  let shards_arg =
    let doc =
      "Serve the sharded multi-session service with $(docv) shards instead \
       of a single session.  Every protocol line is prefixed with a client \
       id ($(b,<id> register min|max) + RSL lines + blank line, $(b,<id> \
       query), $(b,<id> report <perf>), $(b,<id> done)); the unprefixed \
       $(b,service-metrics) dumps the merged per-shard registries and \
       $(b,dump-flight) the per-shard flight recorders (the most recent \
       telemetry events, JSONL).  With $(b,--journal FILE), each shard \
       journals independently to $(b,FILE.shard<i>)."
    in
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)
  in
  let max_inflight_arg =
    let doc =
      "Admission control: at most $(docv) messages in flight per shard \
       (0 = unlimited).  Excess work is answered with a total \
       $(b,overloaded: retry-after=N) rejection, never dropped.  Giving \
       any of $(b,--max-inflight), $(b,--rate) or $(b,--deadline-ticks) \
       turns edge policing on (remaining knobs at their defaults)."
    in
    Arg.(value & opt (some int) None & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc =
      "Admission control: per-client token bucket of $(docv) tokens per \
       logical tick (burst capacity $(docv); 0 = unlimited).  The logical \
       clock ticks once per handled line."
    in
    Arg.(value & opt (some int) None & info [ "rate" ] ~docv:"R" ~doc)
  in
  let deadline_arg =
    let doc =
      "Admission control: every message carries a logical deadline \
       $(docv) ticks after arrival; work that misses it is shed with \
       $(b,deadline-expired: retry-after=0) before it touches a session."
    in
    Arg.(
      value & opt (some int) None & info [ "deadline-ticks" ] ~docv:"D" ~doc)
  in
  let run budget shards journal recover max_inflight rate deadline_ticks =
    let options =
      { Simplex.default_options with Simplex.max_evaluations = budget }
    in
    (* Any admission flag turns edge policing on; the rest of the
       config keeps the library defaults (hysteretic degraded mode
       included). *)
    let admission_config =
      match (max_inflight, rate, deadline_ticks) with
      | None, None, None -> None
      | _ ->
          let base = Admission.default_config in
          Some
            {
              base with
              Admission.max_inflight =
                Option.value ~default:base.Admission.max_inflight max_inflight;
              rate = Option.value ~default:0 rate;
              burst = Option.value ~default:0 rate;
              refill_every = 1;
            }
    in
    (* The serve loop is the one place a wall clock is injected: span
       timestamps and handle latencies are milliseconds since startup.
       lib/ itself never reads a clock (lint rule D1).  Serve never
       exports events — [metrics] and [service-metrics] read the
       registry, [dump-flight] reads the rings — so each shard handle is
       metrics-only and memory stays bounded however long it runs; the
       flight recorder keeps the last 256 events per shard for
       [dump-flight]. *)
    let start = Unix.gettimeofday () in
    let shard_telemetry _shard =
      Telemetry.create
        ~clock:(fun () -> (Unix.gettimeofday () -. start) *. 1e3)
        ~record_events:false
        ~flight:(Flight.create ~capacity:256) ()
    in
    let rec read_spec acc =
      match In_channel.input_line stdin with
      | None -> List.rev acc
      | Some line when String.trim line = "" -> List.rev acc
      | Some line -> read_spec (line :: acc)
    in
    (* Line protocol on stdin/stdout.  A register line keeps reading
       specification lines until a blank line or EOF; [handle] answers
       one message's text with its reply's. *)
    let serve ~banner ~is_register handle =
      let rec loop () =
        match In_channel.input_line stdin with
        | None -> ()
        | Some line -> (
            let line = String.trim line in
            if line = "" then loop ()
            else if line = "quit" then ()
            else begin
              let text =
                if is_register (String.split_on_char ' ' line) then
                  line ^ "\n" ^ String.concat "\n" (read_spec [])
                else line
              in
              print_endline (handle text);
              flush stdout;
              loop ()
            end)
      in
      Format.printf "%s@." banner;
      loop ();
      `Ok ()
    in
    (* A single session is a one-shard service driven through
       [Service.handle_single]: it journals, recovers and is policed by
       the same code as every shard. *)
    let serve_single service =
      serve
        ~banner:
          "harmony tuning server: 'register min|max' + RSL lines + blank \
           line, then 'query' / 'report <perf>' / 'report failed' / \
           'metrics' / 'quit'"
        ~is_register:(function "register" :: _ -> true | _ -> false)
        (fun text ->
          Server.reply_to_string
            (match Server.parse_message text with
            | Ok message -> Service.handle_single ?deadline_ticks service message
            | Error msg -> Server.Rejected msg))
    in
    (* The sharded service speaks the client-id-prefixed protocol;
       [service-metrics] merges the per-shard registries on demand. *)
    let serve_service service =
      serve
        ~banner:
          (Printf.sprintf
             "harmony tuning service (%d shard(s)): '<id> register min|max' \
              + RSL lines + blank line, then '<id> query' / '<id> report \
              <perf>' / '<id> report failed' / '<id> done' / \
              'service-metrics' / 'dump-flight' / 'quit'"
             (Service.shards service))
        ~is_register:(function _ :: "register" :: _ -> true | _ -> false)
        (fun text ->
          Service.reply_to_string
            (match Service.parse_message text with
            | Ok message -> Service.handle_stamped ?deadline_ticks service message
            | Error msg -> Service.Service_error msg))
    in
    (* Journals written before single sessions ran as one shard sit at
       FILE and FILE.snapshot; a recovery that read only FILE.shard0*
       would silently start an empty session over them. *)
    let older_journal path =
      let shard0 = Service.shard_journal ~journal:path ~shard:0 in
      let exists = List.exists Sys.file_exists in
      exists [ path; path ^ ".snapshot" ]
      && not (exists [ shard0; shard0 ^ ".snapshot" ])
    in
    let n = Option.value ~default:1 shards in
    let create () =
      Service.create ~options ~telemetry:shard_telemetry
        ?admission:admission_config ~shards:n ()
    in
    let run_service service =
      match shards with
      | None -> serve_single service
      | Some _ -> serve_service service
    in
    match (journal, recover) with
    | None, true -> `Error (false, "--recover requires --journal")
    | _ when n < 1 -> `Error (false, "--shards must be >= 1")
    | Some path, true when older_journal path ->
        `Error
          ( false,
            Printf.sprintf
              "%s is a single-session journal in the format used before \
               sessions ran as one shard, which this version does not \
               read; finish that session with the earlier binary, or move \
               %s and %s.snapshot aside"
              path path path )
    | None, false -> run_service (create ())
    | Some path, false ->
        let service = create () in
        Service.attach_journals service ~journal:path ();
        run_service service
    | Some path, true ->
        let r =
          Service.recover ~options ~telemetry:shard_telemetry
            ?admission:admission_config ~shards:n ~journal:path ()
        in
        Format.printf
          "recovered %d shard(s) from %s: %d message(s) replayed, %d dropped@."
          n path r.Service.replayed r.Service.dropped;
        List.iter
          (fun (pr : Service.shard_recovery) ->
            Format.printf "  shard %d: %d replayed, %d dropped@." pr.shard
              pr.replayed pr.dropped)
          r.Service.per_shard;
        run_service r.Service.service
  in
  let doc =
    "Run the tuning server on stdin/stdout (line protocol), optionally \
     crash-safe via a write-ahead journal."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ budget_arg $ shards_arg $ journal_arg $ recover_arg
       $ max_inflight_arg $ rate_arg $ deadline_arg))

(* ------------------------------------------------------------------ *)
(* rules                                                               *)

let rules_cmd =
  let file_arg =
    let doc = "File of CNF performance rules ('perf <- v0 = 3 & 2 <= v1 < 8')." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let ranges_arg =
    let doc = "Variable ranges as 'lo:hi,lo:hi,...' (one per variable)." in
    Arg.(required & opt (some string) None & info [ "ranges" ] ~docv:"RANGES" ~doc)
  in
  let eval_arg =
    let doc = "Evaluate the rules at this input, 'x0,x1,...' (repeatable)." in
    Arg.(value & opt_all string [] & info [ "eval" ] ~docv:"INPUT" ~doc)
  in
  let run file ranges inputs =
    let parse_ranges s =
      s |> String.split_on_char ','
      |> List.map (fun pair ->
             match String.split_on_char ':' pair with
             | [ lo; hi ] -> (float_of_string lo, float_of_string hi)
             | _ -> failwith ("bad range: " ^ pair))
      |> Array.of_list
    in
    match parse_ranges ranges with
    | exception _ -> `Error (false, "cannot parse --ranges (want lo:hi,lo:hi,...)")
    | ranges -> (
        let num_vars = Array.length ranges in
        let ic = open_in file in
        let text =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Harmony_datagen.Rules.of_text ~num_vars ~ranges text with
        | exception Harmony_datagen.Rules.Parse_error msg ->
            `Error (false, "parse error: " ^ msg)
        | exception Invalid_argument msg -> `Error (false, msg)
        | rules ->
            Format.printf "%d rules over %d variables; conflict-free: %b@."
              (Array.length (Harmony_datagen.Rules.rules rules))
              num_vars
              (Harmony_datagen.Rules.conflict_free rules);
            List.iter
              (fun input ->
                match
                  input |> String.split_on_char ','
                  |> List.map float_of_string |> Array.of_list
                with
                | exception _ -> Format.printf "%s -> cannot parse input@." input
                | point ->
                    if Array.length point <> num_vars then
                      Format.printf "%s -> arity mismatch@." input
                    else
                      Format.printf "%s -> %g@." input
                        (Harmony_datagen.Rules.eval rules point))
              inputs;
            `Ok ())
  in
  let doc = "Parse and evaluate a CNF performance-rule file (DataGen notation)." in
  Cmd.v (Cmd.info "rules" ~doc)
    Term.(ret (const run $ file_arg $ ranges_arg $ eval_arg))

(* ------------------------------------------------------------------ *)
(* db                                                                  *)

let db_cmd =
  let file_arg =
    let doc = "Experience database file (History.save format)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let compress_arg =
    let doc = "Compress to at most N entries (k-means over characteristics)." in
    Arg.(value & opt (some int) None & info [ "compress" ] ~docv:"N" ~doc)
  in
  let out_arg =
    let doc = "Output file for --compress (defaults to overwriting the input)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let run file compress out =
    match History.load_salvage file with
    | db, dropped ->
        if dropped > 0 then
          Format.printf
            "warning: malformed database; kept the valid prefix, dropped %d \
             line(s)@."
            dropped;
        Format.printf "%d experience entr%s@." (History.size db)
          (if History.size db = 1 then "y" else "ies");
        List.iter
          (fun e ->
            Format.printf "entry %d: label=%S measurements=%d characteristics=[%s]@."
              e.History.id e.History.label
              (List.length e.History.evaluations)
              (String.concat "; "
                 (Array.to_list (Array.map (Printf.sprintf "%.3f") e.History.characteristics))))
          (History.entries db);
        (match compress with
        | None -> ()
        | Some n ->
            let compressed = History.compress (Rng.create 1) db ~max_entries:n in
            let target = Option.value out ~default:file in
            History.save compressed target;
            Format.printf "compressed %d -> %d entries into %s@." (History.size db)
              (History.size compressed) target);
        `Ok ()
  in
  let doc = "Inspect or compress an experience database." in
  Cmd.v (Cmd.info "db" ~doc) Term.(ret (const run $ file_arg $ compress_arg $ out_arg))

(* ------------------------------------------------------------------ *)

let () =
  let doc = "Active Harmony prior-run-reuse autotuning (SC 2004 reproduction)" in
  let info = Cmd.info "harmony_cli" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [
         experiment_cmd; tune_cmd; prioritize_cmd; factorial_cmd; serve_cmd;
         stats_cmd; rsl_cmd; rules_cmd; db_cmd;
       ]))

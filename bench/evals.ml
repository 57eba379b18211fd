(* Evaluation-throughput micro-benchmark: evals/sec and Gc minor
   words per evaluation for the two hot objectives (analytic MVA
   model, discrete-event simulation), minor words and time per
   fault-injection attempt, the batch+memo engine on a
   tuning-shaped stream, bytes allocated per message and write
   amplification of a journaled service, minor words per data-analyzer
   seed pick, minor words per message that shard telemetry adds to an
   in-memory service, and minor words on the report path (per
   [Server.handle] report and per [Simplex.optimize] evaluation), live
   words per session and minor words per register of a service; and
   the exact fsyncs per message of the journaled service.  The numbers back the before/after tables
   in EXPERIMENTS.md and guard the allocation discipline in CI:

     dune exec bench/evals.exe                      print the table
     dune exec bench/evals.exe -- --check FILE      fail (exit 1) if
                                                    minor words/eval,
                                                    words/fault attempt,
                                                    bytes/message,
                                                    write amplification,
                                                    words/prepare,
                                                    telemetry words/message
                                                    report-path words
                                                    or session words
                                                    regressed >2x over
                                                    the recorded
                                                    baseline, or fsyncs/
                                                    message rose at all
     dune exec bench/evals.exe -- --write-baseline FILE

   A Chrome trace with every measured figure lands in BENCH_6.json
   (load into about:tracing / Perfetto), next to the ablation traces
   bench/main.exe writes. *)

open Harmony_objective
module Ws = Harmony_webservice
module Rng = Harmony_numerics.Rng
module Space = Harmony_param.Space
module Pool = Harmony_parallel.Pool
module Telemetry = Harmony_telemetry.Telemetry
module Export = Harmony_telemetry.Export
module Flight = Harmony_telemetry.Flight
module Service = Harmony_service.Service
module Admission = Harmony_service.Admission
module Server = Harmony.Server
module History = Harmony.History
module Analyzer = Harmony.Analyzer
module Simplex = Harmony.Simplex
module Persist = Harmony_persist.Persist

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)

type figures = { words_per_eval : float; evals_per_sec : float }

(* [f ()] performs [per_call] evaluations; [calls] of them are timed
   after [warmup] untimed ones. *)
let measure ~warmup ~calls ~per_call f =
  for _ = 1 to warmup do
    f ()
  done;
  Gc.full_major ();
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to calls do
    f ()
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  let evals = float_of_int (calls * per_call) in
  {
    words_per_eval = words /. evals;
    evals_per_sec = (evals /. Float.max 1e-9 elapsed);
  }

(* A deterministic pool of distinct grid configurations to cycle
   through, so memo layers and warm caches cannot flatter the
   per-evaluation numbers. *)
let distinct_configs space ~count ~seed =
  let rng = Rng.create seed in
  let seen = Hashtbl.create count in
  let rec draw budget =
    if budget = 0 then invalid_arg "distinct_configs: space too small"
    else
      let c = Space.random rng space in
      let key = Space.config_key c in
      if Hashtbl.mem seen key then draw (budget - 1)
      else begin
        Hashtbl.add seen key ();
        c
      end
  in
  Array.init count (fun _ -> draw 10_000)

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)

let mva_figures () =
  let obj = Ws.Model.objective ~mix:Ws.Tpcw.shopping () in
  let configs = distinct_configs obj.Objective.space ~count:64 ~seed:42 in
  let i = ref 0 in
  measure ~warmup:200 ~calls:20_000 ~per_call:1 (fun () ->
      let c = configs.(!i land 63) in
      incr i;
      ignore (obj.Objective.eval c : float))

let des_options =
  {
    Ws.Simulation.default_options with
    Ws.Simulation.warmup_ms = 1_000.0;
    horizon_ms = 5_000.0;
  }

let des_figures () =
  let obj = Ws.Simulation.objective ~options:des_options ~mix:Ws.Tpcw.shopping () in
  let configs = distinct_configs obj.Objective.space ~count:8 ~seed:42 in
  let i = ref 0 in
  measure ~warmup:3 ~calls:40 ~per_call:1 (fun () ->
      let c = configs.(!i land 7) in
      incr i;
      ignore (obj.Objective.eval c : float))

(* One [with_faults] attempt at [fault_profile 0.05] over a constant
   objective, cycling through 64 distinct configurations so each is
   attempted many times; an attempt that raises a fault counts like
   any other.  What remains is the fault layer's own cost: the key,
   the attempt table and the draws. *)
let fault_layer_figures () =
  let constant =
    Objective.create ~space:Ws.Wsconfig.space
      ~direction:Objective.Higher_is_better (fun _ -> 1.0)
  in
  let obj =
    Objective.with_faults ~rates:(Objective.fault_profile 0.05) ~seed:42
      constant
  in
  let configs = distinct_configs obj.Objective.space ~count:64 ~seed:42 in
  let i = ref 0 in
  measure ~warmup:200 ~calls:20_000 ~per_call:1 (fun () ->
      let c = configs.(!i land 63) in
      incr i;
      match obj.Objective.eval c with
      | v -> ignore (v : float)
      | exception Objective.Measurement_failed _ -> ())

(* The batch+memo engine on a tuning-shaped stream: 64 distinct
   configurations, each occurring 8 times, interleaved the way a
   simplex revisits vertices.  One eval_batch per fresh cached
   objective — 64 distinct misses fan out across the pool, the other
   448 evaluations answer from the single memo pass. *)
let batch_figures ?pool () =
  let base = Ws.Model.objective ~mix:Ws.Tpcw.shopping () in
  let distinct = distinct_configs base.Objective.space ~count:64 ~seed:42 in
  let stream =
    Array.init (64 * 8) (fun i -> distinct.((i * 13) land 63))
  in
  measure ~warmup:5 ~calls:200 ~per_call:(Array.length stream) (fun () ->
      let obj = Objective.cached base in
      ignore (Objective.eval_batch ?pool obj stream : float array))

(* Same tuning-shaped stream over the simulation objective: 8
   distinct configurations x 8 occurrences.  Only the 8 distinct
   misses run a simulation; the engine's single memo pass answers the
   other 56 evaluations, which is where a tuner's effective
   evaluation throughput comes from. *)
let des_batch_figures ?pool () =
  let base = Ws.Simulation.objective ~options:des_options ~mix:Ws.Tpcw.shopping () in
  let distinct = distinct_configs base.Objective.space ~count:8 ~seed:42 in
  let stream = Array.init (8 * 8) (fun i -> distinct.((i * 5) land 7)) in
  measure ~warmup:1 ~calls:6 ~per_call:(Array.length stream) (fun () ->
      let obj = Objective.cached base in
      ignore (Objective.eval_batch ?pool obj stream : float array))

(* A journaled service under a closed loop: 4 shards, 64 live
   clients, the default [compact_every], journals in a temp dir.  Each
   call carries every live client's next message (register, a report
   per assignment, deregister after [done]); a client that leaves is
   replaced by a new one.  Returns bytes allocated per message,
   messages per second, the log's write amplification: (journal
   bytes + snapshot bytes) / journal bytes, and journal fsyncs per
   message.  Group commit makes the last one exact: two per shard per
   call (the recvs before applying, the replies after), 8 / 64 here;
   a snapshot's own fsyncs are not the journal sink's.  Bytes allocated come from
   [Gc.allocated_bytes], which unlike minor words also counts what is
   allocated straight in the major heap, such as a snapshot-sized
   string.  Journal bytes and fsyncs are counted by a sink wrapper on
   every shard, and each shard's snapshot is sized at every journal
   reset, i.e. once per compaction; all four figures cover the timed
   calls only. *)
let wal_spec =
  "{ harmonyBundle P0 { int {1 16 1} }}\n\
   { harmonyBundle P1 { int {1 20-$P0 1} }}\n\
   { harmonyBundle P2 { int {1 20-$P1 1} }}\n\
   { harmonyBundle P3 { int {1 20-$P2 1} }}"

let service_options =
  { Simplex.default_options with Simplex.max_evaluations = 30 }

(* The closed loop both service figures drive: [live] clients, each
   call carrying every live client's next message (register, a report
   per assignment, deregister after [done]); a client that leaves is
   replaced by a new one.  Returns the call. *)
let closed_loop service ~live =
  let serial = ref 0 in
  let fresh () =
    incr serial;
    ("c" ^ string_of_int !serial, `Register)
  in
  let clients = Array.init live (fun _ -> fresh ()) in
  let message (id, phase) =
    match phase with
    | `Register ->
        Service.Client
          {
            client = id;
            payload =
              Server.Register { spec = wal_spec; direction = Server.Minimize };
          }
    | `Report assignment ->
        let bowl =
          List.fold_left (fun acc (_, v) -> acc + ((v - 5) * (v - 5))) 0
            assignment
        in
        Service.Client
          { client = id; payload = Server.Report (float_of_int bowl) }
    | `Leave -> Service.Deregister { client = id }
  in
  fun () ->
    let replies =
      Service.handle_batch service (Array.to_list (Array.map message clients))
    in
    List.iteri
      (fun i reply ->
        let id, _ = clients.(i) in
        clients.(i) <-
          (match reply with
          | Service.Client_reply { reply = Server.Assign a; _ } ->
              (id, `Report a)
          | Service.Client_reply { reply = Server.Done _; _ } -> (id, `Leave)
          | Service.Deregistered _ -> fresh ()
          | ( Service.Client_reply
                { reply = Server.Rejected _ | Server.Stats _; _ }
            | Service.Service_stats _ | Service.Flight_dump _
            | Service.Service_error _ ) as r ->
              failwith
                ("evals: unexpected reply " ^ Service.reply_to_string r)))
      replies

let wal_figures () =
  let shards = 4 and live = 64 in
  let dir = Filename.temp_dir "harmony_evals" "" in
  let journal = Filename.concat dir "service.journal" in
  let service = Service.create ~options:service_options ~shards () in
  let counting = ref false in
  let journal_bytes = ref 0 and snapshot_bytes = ref 0 and fsyncs = ref 0 in
  let meter ~shard (sink : Persist.sink) =
    let snapshot = Service.shard_journal ~journal ~shard ^ ".snapshot" in
    let write s =
      sink.Persist.write s;
      if !counting then journal_bytes := !journal_bytes + String.length s
    in
    let sync () =
      sink.Persist.sync ();
      if !counting then incr fsyncs
    in
    let reset () =
      sink.Persist.reset ();
      if !counting then
        snapshot_bytes := !snapshot_bytes + (Unix.stat snapshot).Unix.st_size
    in
    { sink with Persist.write; sync; reset }
  in
  Service.attach_journals ~wrap:meter service ~journal ();
  let call = closed_loop service ~live in
  for _ = 1 to 50 do
    call ()
  done;
  Gc.full_major ();
  let calls = 200 in
  counting := true;
  let bytes0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to calls do
    call ()
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let bytes = Gc.allocated_bytes () -. bytes0 in
  counting := false;
  Service.detach_journals service;
  for shard = 0 to shards - 1 do
    let p = Service.shard_journal ~journal ~shard in
    List.iter Persist.remove_if_exists
      [ p; p ^ ".tmp"; p ^ ".snapshot"; p ^ ".snapshot.tmp" ]
  done;
  (try Sys.rmdir dir with Sys_error _ -> ());
  let messages = float_of_int (calls * live) in
  let amplification =
    float_of_int (!journal_bytes + !snapshot_bytes)
    /. float_of_int (Int.max 1 !journal_bytes)
  in
  ( bytes /. messages,
    messages /. Float.max 1e-9 elapsed,
    amplification,
    float_of_int !fsyncs /. messages )

(* Minor words per message that shard telemetry adds to an in-memory
   service: 4 shards, 64 live clients, admission at its defaults, the
   closed loop above.  The same stream runs twice, once with each shard
   handle metrics-only with a 256-event flight ring (what [serve]
   attaches) and once with [Telemetry.off]; the figure is the
   difference.  Both streams are deterministic and single-domain, so
   the count is exact. *)
let service_telemetry_figures () =
  let words_per_msg telemetry =
    let live = 64 and calls = 200 in
    let service =
      Service.create ~options:service_options ~telemetry
        ~admission:Admission.default_config ~shards:4 ()
    in
    let call = closed_loop service ~live in
    for _ = 1 to 50 do
      call ()
    done;
    let words0 = Gc.minor_words () in
    for _ = 1 to calls do
      call ()
    done;
    (Gc.minor_words () -. words0) /. float_of_int (calls * live)
  in
  let on =
    words_per_msg (fun _ ->
        Telemetry.create ~record_events:false
          ~flight:(Flight.create ~capacity:256) ())
  in
  on -. words_per_msg (fun _ -> Telemetry.off)

(* The data analyzer's seed pick on a fixed experience database: one
   entry per TPC-W mix, each with 100 distinct configurations measured
   on the MVA model under that mix, queried with the middle entry's
   exact characteristics so the trusted path (and its triangulation
   fill) runs.  Returns minor words and calls per second of one
   [Analyzer.prepare]. *)
let analyzer_figures () =
  let mixes = [| Ws.Tpcw.browsing; Ws.Tpcw.shopping; Ws.Tpcw.ordering |] in
  let characteristics mix = Array.map snd mix.Ws.Tpcw.weights in
  let db = History.create () in
  Array.iteri
    (fun i mix ->
      let obj = Ws.Model.objective ~mix () in
      let configs = distinct_configs obj.Objective.space ~count:100 ~seed:(42 + i) in
      ignore
        (History.add db ~label:mix.Ws.Tpcw.label
           ~characteristics:(characteristics mix)
           ~evaluations:
             (Array.to_list (Array.map (fun c -> (c, obj.Objective.eval c)) configs))
           ()))
    mixes;
  let analyzer = Analyzer.create db in
  let obj = Ws.Model.objective ~mix:Ws.Tpcw.shopping () in
  let characteristics = characteristics Ws.Tpcw.shopping in
  measure ~warmup:20 ~calls:200 ~per_call:1 (fun () ->
      ignore
        (Analyzer.prepare analyzer obj ~characteristics
          : Analyzer.preparation))

(* Minor words on the report path: per [Server.handle] report of a
   session on the 4-bundle spec at budget 30 (the perfbench service
   workloads' sessions), with a metrics-only handle as a service shard
   has; and per evaluation of [Simplex.optimize] on the 10-parameter
   web-service space, over a bowl whose evaluation allocates only its
   boxed result, so the words are the search's own and the batch
   engine's.  Both runs are deterministic and single-domain, so the
   counts are exact. *)
let report_figures () =
  let per_report =
    let server =
      Server.create ~options:service_options ~reject_reregister:true
        ~telemetry:(Telemetry.create ~record_events:false ())
        ()
    in
    let register =
      Server.Register { spec = wal_spec; direction = Server.Minimize }
    in
    let words = ref 0.0 and reports = ref 0 in
    let rec session = function
      | Server.Assign assignment ->
          let bowl =
            List.fold_left (fun acc (_, v) -> acc + ((v - 5) * (v - 5))) 0
              assignment
          in
          let report = Server.Report (float_of_int bowl) in
          let words0 = Gc.minor_words () in
          let reply = Server.handle server report in
          words := !words +. (Gc.minor_words () -. words0);
          incr reports;
          session reply
      | Server.Done _ -> ()
      | (Server.Rejected _ | Server.Stats _) as r ->
          failwith ("evals: unexpected reply " ^ Server.reply_to_string r)
    in
    for _ = 1 to 300 do
      session (Server.handle server register)
    done;
    !words /. float_of_int !reports
  in
  let per_eval =
    let space = Ws.Wsconfig.space in
    let words = ref 0.0 and evals = ref 0 in
    for run = 1 to 40 do
      let bowl c =
        let s = ref 0.0 in
        for i = 0 to Array.length c - 1 do
          let d = c.(i) -. float_of_int ((run * (i + 3)) mod 17) in
          s := !s +. (d *. d)
        done;
        !s
      in
      let obj =
        Objective.create ~space ~direction:Objective.Lower_is_better bowl
      in
      let words0 = Gc.minor_words () in
      let outcome = Simplex.optimize obj in
      words := !words +. (Gc.minor_words () -. words0);
      evals := !evals + outcome.Simplex.evaluations
    done;
    !words /. float_of_int !evals
  in
  (per_report, per_eval)

(* What a live session costs: live words per registered session of a
   2000-client in-memory service (4 shards, the service spec), read
   with [Gc.stat] after full majors on either side of the registers;
   and minor words per register, once for a spec text new to its shard
   and once for a text a live session there already compiled.  Each new
   text is the service spec with P0's upper bound written as a distinct
   difference, so it parses to the same bundles.  All three counts are
   deterministic and single-domain. *)
let session_figures () =
  (* Two full majors: the runtime's live-word count trails the sweep,
     and one cycle can leave the garbage of the cycle before it
     counted. *)
  let live_words () =
    Gc.full_major ();
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let register service id spec =
    ignore
      (Service.handle service
         (Service.Client
            {
              client = id;
              payload = Server.Register { spec; direction = Server.Minimize };
            })
        : Service.reply)
  in
  let live = 2000 in
  let service = Service.create ~options:service_options ~shards:4 () in
  let ids = Array.init live (fun i -> "c" ^ string_of_int i) in
  let before = live_words () in
  Array.iter (fun id -> register service id wal_spec) ids;
  let per_session =
    float_of_int (live_words () - before) /. float_of_int live
  in
  let words_per_register prefix spec_of =
    let n = 200 in
    let ids = Array.init n (fun i -> prefix ^ string_of_int i) in
    let specs = Array.init n spec_of in
    let words0 = Gc.minor_words () in
    Array.iteri (fun i id -> register service id specs.(i)) ids;
    (Gc.minor_words () -. words0) /. float_of_int n
  in
  let later_bundles =
    let i = String.index wal_spec '\n' in
    String.sub wal_spec i (String.length wal_spec - i)
  in
  let distinct i =
    Printf.sprintf "{ harmonyBundle P0 { int {1 %d-%d 1} }}%s" (16 + i) i
      later_bundles
  in
  let fresh = words_per_register "new" distinct in
  let compiled = words_per_register "old" (fun _ -> wal_spec) in
  (per_session, fresh, compiled)

(* ------------------------------------------------------------------ *)
(* Baseline check                                                      *)

(* Minimal extraction of ["key": <number>] from the flat baseline
   files this tool writes itself — not a general JSON parser. *)
let json_number ~key text =
  let needle = Printf.sprintf "\"%s\"" key in
  let nlen = String.length needle and tlen = String.length text in
  let rec find i =
    if i + nlen > tlen then None
    else if String.sub text i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let i = ref start in
      while
        !i < tlen && (text.[!i] = ' ' || text.[!i] = ':' || text.[!i] = '\n')
      do
        incr i
      done;
      let b = Buffer.create 24 in
      while
        !i < tlen
        &&
        match text.[!i] with
        | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
        | _ -> false
      do
        Buffer.add_char b text.[!i];
        incr i
      done;
      float_of_string_opt (Buffer.contents b)

let baseline_json ~mva ~faults ~des ~batch ~des_batch ~wal_bytes
    ~wal_amplification ~wal_fsyncs ~analyzer ~service_telemetry ~report_server
    ~report_simplex ~session:(session_live, register_new, register_compiled) =
  Printf.sprintf
    "{\n\
    \  \"mva_words_per_eval\": %.1f,\n\
    \  \"mva_evals_per_sec\": %.0f,\n\
    \  \"fault_layer_words_per_attempt\": %.1f,\n\
    \  \"des_words_per_eval\": %.1f,\n\
    \  \"des_evals_per_sec\": %.0f,\n\
    \  \"batch_evals_per_sec\": %.0f,\n\
    \  \"des_batch_evals_per_sec\": %.0f,\n\
    \  \"wal_bytes_per_msg\": %.0f,\n\
    \  \"wal_write_amplification\": %.2f,\n\
    \  \"wal_fsyncs_per_msg\": %.3f,\n\
    \  \"analyzer_words_per_prepare\": %.0f,\n\
    \  \"service_telemetry_words_per_msg\": %.1f,\n\
    \  \"report_server_words_per_report\": %.1f,\n\
    \  \"report_simplex_words_per_eval\": %.1f,\n\
    \  \"session_live_words\": %.1f,\n\
    \  \"session_register_words_new\": %.1f,\n\
    \  \"session_register_words_compiled\": %.1f\n\
     }\n"
    mva.words_per_eval mva.evals_per_sec faults.words_per_eval des.words_per_eval
    des.evals_per_sec batch.evals_per_sec des_batch.evals_per_sec wal_bytes
    wal_amplification wal_fsyncs analyzer.words_per_eval service_telemetry
    report_server report_simplex session_live register_new register_compiled

let check ~baseline_file ~mva ~faults ~des ~wal_bytes ~wal_amplification
    ~wal_fsyncs ~analyzer ~service_telemetry ~report_server ~report_simplex
    ~session:(session_live, register_new, register_compiled) =
  let text = In_channel.with_open_text baseline_file In_channel.input_all in
  (* An exact count, gated exactly: any fsync beyond the group-commit
     count is a regression. *)
  let fsync_verdict =
    match json_number ~key:"wal_fsyncs_per_msg" text with
    | None -> [ "wal: baseline key wal_fsyncs_per_msg missing" ]
    | Some recorded when wal_fsyncs > recorded +. 1e-9 ->
        [
          Printf.sprintf
            "wal: %.4f fsyncs/message exceeds the recorded group-commit count \
             %.4f"
            wal_fsyncs recorded;
        ]
    | Some _ -> []
  in
  let verdicts =
    fsync_verdict
    @ List.filter_map
      (fun (label, key, unit, measured) ->
        match json_number ~key text with
        | None ->
            Some (Printf.sprintf "%s: baseline key %s missing" label key)
        | Some recorded ->
            if measured > 2.0 *. recorded then
              Some
                (Printf.sprintf
                   "%s: %.1f %s exceeds 2x the recorded baseline %.1f"
                   label measured unit recorded)
            else None)
      [
        ("mva", "mva_words_per_eval", "minor words/eval", mva.words_per_eval);
        ( "fault-layer",
          "fault_layer_words_per_attempt",
          "minor words/attempt",
          faults.words_per_eval );
        ("des", "des_words_per_eval", "minor words/eval", des.words_per_eval);
        ("wal", "wal_bytes_per_msg", "bytes/message", wal_bytes);
        ( "wal",
          "wal_write_amplification",
          "x write amplification",
          wal_amplification );
        ( "analyzer",
          "analyzer_words_per_prepare",
          "minor words/prepare",
          analyzer.words_per_eval );
        ( "service-telemetry",
          "service_telemetry_words_per_msg",
          "minor words/message",
          service_telemetry );
        ( "report",
          "report_server_words_per_report",
          "minor words/report",
          report_server );
        ( "report",
          "report_simplex_words_per_eval",
          "minor words/eval",
          report_simplex );
        ("session", "session_live_words", "live words/session", session_live);
        ( "session",
          "session_register_words_new",
          "minor words/register of a new text",
          register_new );
        ( "session",
          "session_register_words_compiled",
          "minor words/register of a compiled text",
          register_compiled );
      ]
  in
  match verdicts with
  | [] -> Printf.printf "allocation check against %s: ok\n" baseline_file
  | problems ->
      List.iter (fun p -> Printf.printf "REGRESSION %s\n" p) problems;
      exit 1

(* ------------------------------------------------------------------ *)

let () =
  let check_file = ref None and write_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--check" :: file :: rest ->
        check_file := Some file;
        parse rest
    | "--write-baseline" :: file :: rest ->
        write_file := Some file;
        parse rest
    | arg :: _ ->
        Printf.eprintf
          "usage: evals [--check baseline.json] [--write-baseline FILE] \
           (got %s)\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let start = Unix.gettimeofday () in
  let telemetry =
    Telemetry.create ~clock:(fun () -> (Unix.gettimeofday () -. start) *. 1e3) ()
  in
  let timed label f = Telemetry.span telemetry ("evals." ^ label) f in
  let mva = timed "mva" mva_figures in
  let faults = timed "fault-layer" fault_layer_figures in
  let des = timed "des" des_figures in
  let jobs =
    match Sys.getenv_opt "HARMONY_JOBS" with
    | Some s -> (try Int.max 1 (int_of_string s) with _ -> Pool.default_domains ())
    | None -> Pool.default_domains ()
  in
  let batch_seq = timed "batch-sequential" (fun () -> batch_figures ()) in
  let batch_pool, des_batch =
    Pool.with_pool ~domains:jobs (fun pool ->
        ( timed "batch-pool" (fun () -> batch_figures ~pool ()),
          timed "des-batch" (fun () -> des_batch_figures ~pool ()) ))
  in
  let wal_bytes, wal_per_sec, wal_amplification, wal_fsyncs =
    timed "wal" wal_figures
  in
  let analyzer = timed "analyzer" analyzer_figures in
  let service_telemetry =
    timed "service-telemetry" service_telemetry_figures
  in
  let report_server, report_simplex = timed "report" report_figures in
  let session = timed "session" session_figures in
  let row label f =
    Printf.printf "%-18s %12.1f %14.0f\n" label f.words_per_eval
      f.evals_per_sec;
    Telemetry.gauge telemetry
      (Printf.sprintf "evals.%s.words_per_eval" label)
      f.words_per_eval;
    Telemetry.gauge telemetry
      (Printf.sprintf "evals.%s.per_sec" label)
      f.evals_per_sec
  in
  Printf.printf "%-18s %12s %14s\n" "objective" "words/eval" "evals/sec";
  row "mva" mva;
  Printf.printf "%-18s %12.1f %14.0f %8.0f ns\n" "fault-layer"
    faults.words_per_eval faults.evals_per_sec
    (1e9 /. Float.max 1e-9 faults.evals_per_sec);
  Printf.printf "%-18s (minor words/attempt, attempts/sec, ns/attempt: \
                 with_faults at fault_profile 0.05 over a constant)\n" "";
  Telemetry.gauge telemetry "evals.fault-layer.words_per_eval"
    faults.words_per_eval;
  Telemetry.gauge telemetry "evals.fault-layer.per_sec" faults.evals_per_sec;
  row "des" des;
  row "batch-sequential" batch_seq;
  Printf.printf "%-18s (batch of 512 = 64 distinct x 8, memo on)\n" "";
  row "batch-pool" batch_pool;
  Printf.printf "%-18s (same stream, %d domains)\n" "" jobs;
  row "des-batch" des_batch;
  Printf.printf "%-18s (batch of 64 = 8 distinct x 8, memo on, %d domains)\n"
    "" jobs;
  Printf.printf "%-18s %12.0f %14.0f %8.2fx\n" "wal" wal_bytes wal_per_sec
    wal_amplification;
  Printf.printf "%-18s (bytes/message, messages/sec, write amplification: \
                 journaled service, 4 shards x 64 clients)\n" "";
  Printf.printf "%-18s %12.4f\n" "wal-fsyncs" wal_fsyncs;
  Printf.printf "%-18s (journal fsyncs/message, same run: exact; group \
                 commit is 2 per shard per call)\n" "";
  Telemetry.gauge telemetry "evals.wal.fsyncs_per_msg" wal_fsyncs;
  Telemetry.gauge telemetry "evals.wal.bytes_per_msg" wal_bytes;
  Telemetry.gauge telemetry "evals.wal.per_sec" wal_per_sec;
  Telemetry.gauge telemetry "evals.wal.write_amplification" wal_amplification;
  row "analyzer" analyzer;
  Printf.printf "%-18s (minor words/prepare, prepares/sec: 3 entries x 100 \
                 configs, exact match)\n" "";
  Printf.printf "%-18s %12.1f\n" "service-telemetry" service_telemetry;
  Printf.printf "%-18s (minor words/message shard telemetry adds: \
                 metrics-only handles + 256-event rings minus off, \
                 4 shards x 64 clients in memory)\n" "";
  Telemetry.gauge telemetry "evals.service_telemetry.words_per_msg"
    service_telemetry;
  Printf.printf "%-18s %12.1f %14.1f\n" "report" report_server report_simplex;
  Printf.printf "%-18s (minor words per Server.handle report, 4 bundles at \
                 budget 30; per Simplex.optimize evaluation, 10-parameter \
                 web-service space)\n" "";
  Telemetry.gauge telemetry "evals.report.server_words_per_report"
    report_server;
  Telemetry.gauge telemetry "evals.report.simplex_words_per_eval"
    report_simplex;
  let session_live, register_new, register_compiled = session in
  Printf.printf "%-18s %12.1f %14.1f %14.1f\n" "session" session_live
    register_new register_compiled;
  Printf.printf "%-18s (live words per session, 2000 clients x 4 shards in \
                 memory; minor words per register of a text new to its \
                 shard, and of one already compiled there)\n" "";
  Telemetry.gauge telemetry "evals.session.live_words" session_live;
  Telemetry.gauge telemetry "evals.session.register_words_new" register_new;
  Telemetry.gauge telemetry "evals.session.register_words_compiled"
    register_compiled;
  Out_channel.with_open_text "BENCH_6.json" (fun oc ->
      Out_channel.output_string oc (Export.chrome telemetry));
  Printf.printf "telemetry: BENCH_6.json (Chrome trace)\n";
  (match !write_file with
  | None -> ()
  | Some file ->
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc
            (baseline_json ~mva ~faults ~des ~batch:batch_pool ~des_batch
               ~wal_bytes ~wal_amplification ~wal_fsyncs ~analyzer
               ~service_telemetry ~report_server ~report_simplex ~session));
      Printf.printf "baseline written to %s\n" file);
  match !check_file with
  | None -> ()
  | Some file ->
      check ~baseline_file:file ~mva ~faults ~des ~wal_bytes
        ~wal_amplification ~wal_fsyncs ~analyzer ~service_telemetry
        ~report_server ~report_simplex ~session

(* Golden telemetry transcripts: every exporter's bytes for a fixed set
   of seeded runs, printed as titled sections.  The dune rule next to
   this file diffs the output against telemetry.expected, so any change
   to a trace id, a timestamp, a counter, a bucket, an exemplar or a
   flight-ring slot shows up as a diff.

   Runs:
   - a 2-shard service whose admission rejects on deadline and on
     capacity, with an SLO monitor, a metrics probe and a flight dump
     inside a batch;
   - the same conversations journaled, then recovered;
   - the same conversations on metrics-only shard handles with rings;
   - the single-session entry point;
   - a Session.tune with the default measurement policy, history reuse
     and prioritize.

   Usage: telemetry_golden.exe > telemetry.out *)

open Harmony
open Harmony_objective
module Space = Harmony_param.Space
module Param = Harmony_param.Param
module Rng = Harmony_numerics.Rng
module Telemetry = Harmony_telemetry.Telemetry
module Export = Harmony_telemetry.Export
module Flight = Harmony_telemetry.Flight
module Service = Harmony_service.Service
module Admission = Harmony_service.Admission
module Slo = Harmony_service.Slo

let section title text =
  print_string ("=== " ^ title ^ "\n");
  print_string text;
  if String.length text > 0 && text.[String.length text - 1] <> '\n' then
    print_newline ()

let render_handle ?(chrome = true) title tel =
  section (title ^ " jsonl") (Export.jsonl tel);
  if chrome then section (title ^ " chrome") (Export.chrome tel);
  section (title ^ " prometheus") (Export.prometheus tel)

(* ------------------------------------------------------------------ *)
(* Service runs                                                        *)

let spec = "{ harmonyBundle P0 { int {1 8 1} }}"
let options = { Simplex.default_options with Simplex.max_evaluations = 4 }
let clients = [| "ann"; "bob"; "dee" |]

let admission =
  { Admission.default_config with Admission.max_inflight = 1;
    degrade_window = 0 }

let slo =
  {
    Slo.handle_histogram = "server.handle_ms";
    handle_threshold = 2.0;
    delay_histogram = Admission.h_queue_delay;
    delay_threshold = 0.0;
    burn = { Slo.default_burn with Slo.fast_window = 2; slow_window = 4 };
  }

type phase = Register | Report of int | Leave | Gone

let bowl v = float_of_int ((v - 5) * (v - 5))

let message client = function
  | Register ->
      Some
        (Service.Client
           {
             client;
             payload = Server.Register { spec; direction = Server.Minimize };
           })
  | Report v -> Some (Service.Client { client; payload = Server.Report (bowl v) })
  | Leave -> Some (Service.Deregister { client })
  | Gone -> None

let next_phase phase reply =
  match reply with
  | Service.Client_reply { reply = Server.Assign [ (_, v) ]; _ } -> Report v
  | Service.Client_reply { reply = Server.Done _; _ } -> Leave
  | Service.Deregistered _ -> Gone
  | Service.Client_reply { reply = Server.Rejected _; _ } -> phase
  | Service.Client_reply { reply = Server.Assign _ | Server.Stats _; _ }
  | Service.Service_stats _ | Service.Flight_dump _ | Service.Service_error _ ->
      phase

(* Rounds of one batch each: every live client's next message, stamped
   a little in the past so the queue-delay histogram fills; in round 2
   one client's deadline has already passed and, with [probes], the
   batch carries a metrics probe and a flight dump; max_inflight 1
   rejects the second report that lands on a shard. *)
let drive ?(probes = false) service =
  let phases = Array.make (Array.length clients) Register in
  let out = Buffer.create 4096 in
  let round = ref 0 in
  while !round < 12 && Array.exists (fun p -> p <> Gone) phases do
    incr round;
    let now = Service.admission_now service in
    let slots =
      List.filter_map
        (fun i ->
          Option.map
            (fun m ->
              let deadline = if !round = 2 && i = 1 then Some now else None in
              (Some i, Service.envelope ~enqueued_at:(now - (i mod 3)) ?deadline m))
            (message clients.(i) phases.(i)))
        (List.init (Array.length clients) Fun.id)
    in
    let slots =
      if probes && !round = 2 then
        slots
        @ [ (None, Service.envelope Service.Service_metrics);
            (None, Service.envelope Service.Dump_flight) ]
      else slots
    in
    let replies = Service.handle_batch_env service (List.map snd slots) in
    List.iter2
      (fun (who, _) reply ->
        Buffer.add_string out
          (Printf.sprintf "round %d: %s\n" !round (Service.reply_to_string reply));
        match who with
        | Some i -> phases.(i) <- next_phase phases.(i) reply
        | None -> ())
      slots replies
  done;
  Buffer.contents out

(* Only the first service run and the session render Chrome: it is a
   function of the same events the JSONL shows. *)
let render_service ?chrome title service =
  for i = 0 to Service.shards service - 1 do
    render_handle ?chrome
      (Printf.sprintf "%s shard %d" title i)
      (Service.shard_telemetry service i)
  done;
  let merged = Service.merged_telemetry service in
  section (title ^ " merged jsonl") (Export.jsonl merged);
  section (title ^ " merged prometheus") (Export.prometheus merged);
  section (title ^ " flight dump") (Service.flight_dump service)

let recording _shard = Telemetry.create ~flight:(Flight.create ~capacity:16) ()

let metrics_only _shard =
  Telemetry.create ~record_events:false ~flight:(Flight.create ~capacity:16) ()

let service_run () =
  let service =
    Service.create ~options ~telemetry:recording ~admission ~slo ~shards:2 ()
  in
  section "service replies" (drive ~probes:true service);
  render_service "service" service

let with_dir f =
  let dir = Filename.temp_dir "telemetry_golden" "" in
  let journal = Filename.concat dir "j" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f journal)

let journaled_run () =
  with_dir (fun journal ->
      let service =
        Service.create ~options ~telemetry:recording ~admission ~shards:2 ()
      in
      Service.attach_journals ~compact_every:4 service ~journal ();
      section "journaled replies" (drive service);
      render_service ~chrome:false "journaled" service;
      Service.detach_journals service;
      let r =
        Service.recover ~options ~telemetry:recording ~admission
          ~compact_every:4 ~shards:2 ~journal ()
      in
      section "recovered"
        (Printf.sprintf "replayed %d dropped %d\n" r.Service.replayed
           r.Service.dropped);
      render_service ~chrome:false "recovered" r.Service.service;
      Service.detach_journals r.Service.service)

let metrics_only_run () =
  let service =
    Service.create ~options ~telemetry:metrics_only ~admission ~shards:2 ()
  in
  section "metrics-only replies" (drive service);
  render_service ~chrome:false "metrics-only" service

let single_run () =
  let service = Service.create ~options ~telemetry:recording ~shards:1 () in
  let out = Buffer.create 1024 in
  let send m =
    let reply = Service.handle_single service m in
    Buffer.add_string out (Server.reply_to_string reply ^ "\n");
    reply
  in
  let register () =
    send (Server.Register { spec; direction = Server.Minimize })
  in
  let rec converse reply n =
    match reply with
    | Server.Assign [ (_, v) ] when n > 0 ->
        if n = 2 then ignore (send Server.Query);
        converse (send (Server.Report (bowl v))) (n - 1)
    | Server.Assign _ | Server.Done _ | Server.Rejected _ | Server.Stats _ -> ()
  in
  converse (register ()) 2;
  ignore (send Server.Report_failed);
  converse (register ()) 6;
  ignore (send Server.Metrics);
  section "single replies" (Buffer.contents out);
  render_service ~chrome:false "single" service

(* ------------------------------------------------------------------ *)
(* Session.tune                                                        *)

let session_space =
  Space.create
    [
      Param.int_range ~name:"a" ~lo:0 ~hi:10 ~default:5 ();
      Param.int_range ~name:"b" ~lo:0 ~hi:10 ~default:5 ();
      Param.int_range ~name:"c" ~lo:0 ~hi:10 ~default:5 ();
    ]

let session_objective () =
  Objective.create ~space:session_space ~direction:Objective.Higher_is_better
    (fun c -> (50.0 *. c.(0)) +. (5.0 *. c.(1)) +. (0.1 *. c.(2)))
  |> Objective.with_noise (Rng.create 11) ~level:0.03

let session_run () =
  let flight = Flight.create ~capacity:16 in
  let tel = Telemetry.create ~flight () in
  let session =
    Session.create ~objective:(session_objective ()) ~measure:Measure.default_policy
      ~options:{ Tuner.default_options with Tuner.max_evaluations = 6 }
      ~telemetry:tel ()
  in
  ignore (Session.prioritize ~max_points:3 session : Sensitivity.report);
  let runs =
    List.map
      (fun label ->
        let r =
          Session.tune ~top_n:2 ~characteristics:[| 0.3; 0.7 |] ~label session
        in
        Printf.sprintf "%s: experience %b best %g evaluations %d\n" label
          r.Session.used_experience r.Session.outcome.Tuner.best_performance
          r.Session.outcome.Tuner.evaluations)
      [ "first"; "second" ]
  in
  section "session runs" (String.concat "" runs);
  render_handle "session" tel;
  section "session flight" (Flight.to_jsonl flight)

let () =
  service_run ();
  journaled_run ();
  metrics_only_run ();
  single_run ();
  session_run ()

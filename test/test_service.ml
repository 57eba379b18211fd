(* The sharded multi-session service: routing determinism, batched
   vs sequential byte-identity at any shard/domain count, duplicate
   registration, per-shard crash injection at every record boundary,
   corrupt-shard degradation, and a QCheck serializability property
   (any interleaving of k clients' messages gives each client exactly
   the conversation it would have had alone). *)

open Harmony
module Service = Harmony_service.Service
module Admission = Harmony_service.Admission
module Frame = Harmony_persist.Frame
module Persist = Harmony_persist.Persist
module Pool = Harmony_parallel.Pool
module Telemetry = Harmony_telemetry.Telemetry
module Gen = QCheck2.Gen

let seed = [| 0x5eed; 7 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make seed) t

let paper_spec =
  "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {1 9-$B 1} }}"

(* Deterministic client: performance is a pure function of the
   assignment, so every resumed or re-registered run converges to the
   same [done] as the uninterrupted one. *)
let respond assignment =
  let v name = float_of_int (List.assoc name assignment) in
  let db = v "B" -. 3.0 and dc = v "C" -. 4.0 in
  100.0 -. (db *. db) -. (dc *. dc)

let options = { Simplex.default_options with Simplex.max_evaluations = 12 }

let register_msg client =
  Service.Client
    { client; payload = Server.Register { spec = paper_spec; direction = Server.Maximize } }

let report_msg client assignment =
  Service.Client { client; payload = Server.Report (respond assignment) }

let query_msg client = Service.Client { client; payload = Server.Query }

(* Two ids per shard at [shards = 2] (checked by the routing test
   below), so every shard journal interleaves two sessions. *)
let fleet = [ "alpha"; "bravo"; "echo"; "india" ]

let with_journal ~shards f =
  let path = Filename.temp_file "harmony_service" ".journal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      for s = 0 to shards - 1 do
        let p = Service.shard_journal ~journal:path ~shard:s in
        List.iter Persist.remove_if_exists
          [ p; p ^ ".tmp"; p ^ ".snapshot"; p ^ ".snapshot.tmp" ]
      done)
    (fun () -> f path)

(* Drive every client one message per round (register first, then one
   report per round) until all sessions are done; returns each
   client's final done-reply text. *)
let drive_all service clients =
  let state = Hashtbl.create 8 in
  List.iter
    (fun c ->
      match Service.handle service (register_msg c) with
      | Service.Client_reply { reply = Server.Assign a; _ } ->
          Hashtbl.replace state c (`Assign a)
      | r -> Alcotest.fail ("register: unexpected " ^ Service.reply_to_string r))
    clients;
  let rec round steps =
    if steps > 200 then Alcotest.fail "drive_all did not drain";
    let active =
      List.filter
        (fun c ->
          match Hashtbl.find_opt state c with
          | Some (`Assign _) -> true
          | _ -> false)
        clients
    in
    if active <> [] then begin
      List.iter
        (fun c ->
          match Hashtbl.find_opt state c with
          | Some (`Assign a) -> (
              match Service.handle service (report_msg c a) with
              | Service.Client_reply { reply = Server.Assign a'; _ } ->
                  Hashtbl.replace state c (`Assign a')
              | Service.Client_reply { reply = Server.Done _ as d; _ } ->
                  Hashtbl.replace state c (`Done (Server.reply_to_string d))
              | r ->
                  Alcotest.fail ("report: unexpected " ^ Service.reply_to_string r))
          | _ -> ())
        active;
      round (steps + 1)
    end
  in
  round 0;
  List.map
    (fun c ->
      match Hashtbl.find_opt state c with
      | Some (`Done text) -> (c, text)
      | _ -> Alcotest.fail (c ^ " never finished"))
    clients

(* Where does this client's conversation stand after a recovery?  Ask;
   a client the service no longer knows (or whose session was lost)
   starts over — exactly like a real client reconnecting. *)
let resume_to_done service client =
  let first =
    match Service.handle service (query_msg client) with
    | Service.Client_reply { reply = Server.Rejected _; _ } ->
        Service.handle service (register_msg client)
    | r -> r
  in
  let rec go reply steps =
    if steps > 300 then Alcotest.fail "resume did not reach done";
    match reply with
    | Service.Client_reply { reply = Server.Assign a; _ } ->
        go (Service.handle service (report_msg client a)) (steps + 1)
    | Service.Client_reply { reply = Server.Done _ as d; _ } ->
        Server.reply_to_string d
    | r -> Alcotest.fail ("resume: unexpected " ^ Service.reply_to_string r)
  in
  go first 0

(* Uninterrupted journaled reference run: per-client done replies plus
   each shard's journal bytes (compaction off so every record boundary
   is present in one file). *)
let reference ~shards () =
  with_journal ~shards (fun path ->
      let service = Service.create ~options ~shards () in
      Service.attach_journals ~compact_every:1_000_000 service ~journal:path ();
      let dones = drive_all service fleet in
      Service.detach_journals service;
      let bytes =
        Array.init shards (fun s ->
            Option.value ~default:""
              (Persist.read_file (Service.shard_journal ~journal:path ~shard:s)))
      in
      (dones, bytes))

let check_all_resume ~msg service dones_ref =
  List.iter
    (fun (c, done_ref) ->
      Alcotest.(check string)
        (Printf.sprintf "%s: %s done byte-identical" msg c)
        done_ref (resume_to_done service c))
    dones_ref

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

let test_routing_deterministic () =
  List.iter
    (fun c ->
      Alcotest.(check int) (c ^ " routes stably")
        (Service.shard_for ~shards:8 c) (Service.shard_for ~shards:8 c))
    fleet;
  let service = Service.create ~shards:8 () in
  List.iter
    (fun c ->
      Alcotest.(check int) (c ^ " service routing matches pure routing")
        (Service.shard_for ~shards:8 c)
        (Service.shard_of_client service c))
    fleet;
  (* The journal layout depends on this exact split of the test fleet
     at two shards: two clients per shard. *)
  let split = List.map (Service.shard_for ~shards:2) fleet in
  Alcotest.(check int) "fleet covers both shards (shard 0)" 2
    (List.length (List.filter (fun s -> s = 0) split));
  Alcotest.(check int) "fleet covers both shards (shard 1)" 2
    (List.length (List.filter (fun s -> s = 1) split));
  (* Dense ids spread over shards. *)
  let hits = Array.make 4 0 in
  for i = 0 to 99 do
    let s = Service.shard_for ~shards:4 (Printf.sprintf "c%d" i) in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
    hits.(s) <- hits.(s) + 1
  done;
  Array.iteri
    (fun s n ->
      Alcotest.(check bool) (Printf.sprintf "shard %d used" s) true (n > 0))
    hits;
  Alcotest.check_raises "shards < 1 rejected"
    (Invalid_argument "Service.shard_for: shards < 1") (fun () ->
      ignore (Service.shard_for ~shards:0 "x"))

(* ------------------------------------------------------------------ *)
(* Batched handling: byte-identity across domains, shards, and vs the
   sequential reference                                                *)

(* Adaptive driver over [handle_batch]: per round each live client
   contributes its next message (register -> report* -> deregister),
   optionally with a trailing service-metrics probe; returns the full
   reply stream as one string. *)
let batched_stream ?(probe = false) ~shards ~domains ids =
  let service =
    Service.create ~options
      ~telemetry:(fun _ -> Telemetry.create ~record_events:false ())
      ~shards ()
  in
  let stream = Buffer.create 1024 in
  let state = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace state c `Start) ids;
  Pool.with_pool ~domains (fun pool ->
      let rec round steps =
        if steps > 200 then Alcotest.fail "batched run did not drain";
        let live =
          List.filter
            (fun c ->
              match Hashtbl.find_opt state c with
              | Some `Gone -> false
              | _ -> true)
            ids
        in
        if live <> [] then begin
          let batch =
            List.map
              (fun c ->
                match Hashtbl.find_opt state c with
                | Some `Start -> register_msg c
                | Some (`Assign a) -> report_msg c a
                | Some `Done -> Service.Deregister { client = c }
                | _ -> Alcotest.fail "inactive client scheduled")
              live
          in
          let batch =
            if probe then batch @ [ Service.Service_metrics ] else batch
          in
          let replies = Service.handle_batch ~pool service batch in
          List.iteri
            (fun k r ->
              Buffer.add_string stream (Service.reply_to_string r);
              Buffer.add_char stream '\n';
              if k < List.length live then
                let c = List.nth live k in
                match r with
                | Service.Client_reply { reply = Server.Assign a; _ } ->
                    Hashtbl.replace state c (`Assign a)
                | Service.Client_reply { reply = Server.Done _; _ } ->
                    Hashtbl.replace state c `Done
                | Service.Deregistered _ -> Hashtbl.replace state c `Gone
                | r ->
                    Alcotest.fail
                      ("batched run: unexpected " ^ Service.reply_to_string r))
            replies;
          round (steps + 1)
        end
      in
      round 0);
  Alcotest.(check int) "all sessions deregistered" 0 (Service.sessions service);
  Buffer.contents stream

(* The same rounds through [Service.handle] one message at a time (the
   sequential reference the batched path must reproduce byte-for-byte).
   The batched probe sits at the end of each round but answers the
   pre-batch snapshot, so the reference computes the probe reply
   before the round's messages and emits it at the probe's arrival
   index (end of round). *)
let sequential_stream ?(probe = false) ~shards ids =
  let service =
    Service.create ~options
      ~telemetry:(fun _ -> Telemetry.create ~record_events:false ())
      ~shards ()
  in
  let stream = Buffer.create 1024 in
  let state = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace state c `Start) ids;
  let rec round steps =
    if steps > 200 then Alcotest.fail "sequential run did not drain";
    let live =
      List.filter
        (fun c ->
          match Hashtbl.find_opt state c with
          | Some `Gone -> false
          | _ -> true)
        ids
    in
    if live <> [] then begin
      let probe_reply =
        if probe then
          Some (Service.reply_to_string
                  (Service.handle service Service.Service_metrics))
        else None
      in
      List.iter
        (fun c ->
          let msg =
            match Hashtbl.find_opt state c with
            | Some `Start -> register_msg c
            | Some (`Assign a) -> report_msg c a
            | Some `Done -> Service.Deregister { client = c }
            | _ -> Alcotest.fail "inactive client scheduled"
          in
          let r = Service.handle service msg in
          Buffer.add_string stream (Service.reply_to_string r);
          Buffer.add_char stream '\n';
          match r with
          | Service.Client_reply { reply = Server.Assign a; _ } ->
              Hashtbl.replace state c (`Assign a)
          | Service.Client_reply { reply = Server.Done _; _ } ->
              Hashtbl.replace state c `Done
          | Service.Deregistered _ -> Hashtbl.replace state c `Gone
          | r ->
              Alcotest.fail
                ("sequential run: unexpected " ^ Service.reply_to_string r))
        live;
      (match probe_reply with
      | Some text ->
          Buffer.add_string stream text;
          Buffer.add_char stream '\n'
      | None -> ());
      round (steps + 1)
    end
  in
  round 0;
  Buffer.contents stream

let ids_10 = List.init 10 (Printf.sprintf "c%d")

let test_batch_identical_across_domains () =
  let one = batched_stream ~probe:true ~shards:4 ~domains:1 ids_10 in
  let four = batched_stream ~probe:true ~shards:4 ~domains:4 ids_10 in
  Alcotest.(check string)
    "full reply stream (metrics included) identical at 1 vs 4 domains" one four

let test_batch_identical_to_sequential () =
  let batched = batched_stream ~probe:true ~shards:4 ~domains:4 ids_10 in
  let sequential = sequential_stream ~probe:true ~shards:4 ids_10 in
  Alcotest.(check string) "batched == sequential reference, byte for byte"
    sequential batched

let test_client_replies_identical_across_shards () =
  let one = batched_stream ~shards:1 ~domains:2 ids_10 in
  let four = batched_stream ~shards:4 ~domains:2 ids_10 in
  Alcotest.(check string) "client replies independent of shard count" one four

(* ------------------------------------------------------------------ *)
(* Protocol fixtures                                                   *)

let test_duplicate_register_rejected () =
  let service = Service.create ~options ~shards:2 () in
  (match Service.handle service (register_msg "alpha") with
  | Service.Client_reply { reply = Server.Assign _; _ } -> ()
  | r -> Alcotest.fail ("register: unexpected " ^ Service.reply_to_string r));
  (* Bad: re-register while the session is mid-tuning. *)
  (match Service.handle service (register_msg "alpha") with
  | Service.Client_reply { client = "alpha"; reply = Server.Rejected msg } ->
      Alcotest.(check bool) "total error reply names the conflict" true
        (String.starts_with ~prefix:"already registered" msg)
  | r -> Alcotest.fail ("duplicate register: " ^ Service.reply_to_string r));
  (* The live session is untouched: the outstanding assignment is
     still there and tuning completes. *)
  (match Service.handle service (query_msg "alpha") with
  | Service.Client_reply { reply = Server.Assign _; _ } -> ()
  | r -> Alcotest.fail ("query after dup register: " ^ Service.reply_to_string r));
  let _done = resume_to_done service "alpha" in
  (* Good: once the session finished, re-registering starts afresh. *)
  (match Service.handle service (register_msg "alpha") with
  | Service.Client_reply { reply = Server.Assign _; _ } -> ()
  | r -> Alcotest.fail ("re-register after done: " ^ Service.reply_to_string r));
  (* Good: a deregistered id can register again too. *)
  let _done = resume_to_done service "alpha" in
  (match Service.handle service (Service.Deregister { client = "alpha" }) with
  | Service.Deregistered { client = "alpha" } -> ()
  | r -> Alcotest.fail ("deregister: " ^ Service.reply_to_string r));
  match Service.handle service (register_msg "alpha") with
  | Service.Client_reply { reply = Server.Assign _; _ } -> ()
  | r -> Alcotest.fail ("register after bye: " ^ Service.reply_to_string r)

let test_unknown_client_is_total () =
  let service = Service.create ~options ~shards:2 () in
  (match Service.handle service (query_msg "ghost") with
  | Service.Client_reply { client = "ghost"; reply = Server.Rejected msg } ->
      Alcotest.(check bool) "names the client" true
        (String.starts_with ~prefix:"unknown client ghost" msg)
  | r -> Alcotest.fail ("query: " ^ Service.reply_to_string r));
  match Service.handle service (Service.Deregister { client = "ghost" }) with
  | Service.Service_error msg ->
      Alcotest.(check bool) "deregister names the client" true
        (String.starts_with ~prefix:"unknown client ghost" msg)
  | r -> Alcotest.fail ("deregister: " ^ Service.reply_to_string r)

let test_parse_message () =
  (match Service.parse_message "c7 query" with
  | Ok (Service.Client { client = "c7"; payload = Server.Query }) -> ()
  | _ -> Alcotest.fail "c7 query");
  (match Service.parse_message "c7 done" with
  | Ok (Service.Deregister { client = "c7" }) -> ()
  | _ -> Alcotest.fail "c7 done");
  (match Service.parse_message "service-metrics" with
  | Ok Service.Service_metrics -> ()
  | _ -> Alcotest.fail "service-metrics");
  (match Service.parse_message ("c7 register max\n" ^ paper_spec) with
  | Ok (Service.Client { client = "c7"; payload = Server.Register _ }) -> ()
  | _ -> Alcotest.fail "multi-line register keeps its spec");
  (* Unprefixed server commands and reserved words are not client ids. *)
  List.iter
    (fun bad ->
      match Service.parse_message bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("should not parse: " ^ bad))
    [ "query"; "report 1.5"; "query query"; "done c7"; "register max";
      "quit now"; "" ];
  (* Round trip. *)
  List.iter
    (fun m ->
      match Service.parse_message (Service.message_to_string m) with
      | Ok m' ->
          Alcotest.(check string) "round trip"
            (Service.message_to_string m)
            (Service.message_to_string m')
      | Error e -> Alcotest.fail e)
    [
      register_msg "alpha";
      query_msg "z9";
      Service.Client { client = "c1"; payload = Server.Report 0.125 };
      Service.Client { client = "c1"; payload = Server.Report_failed };
      Service.Deregister { client = "c2" };
      Service.Service_metrics;
    ]

let test_event_codec () =
  List.iter
    (fun m ->
      match Service.Event.decode (Service.Event.encode ~seq:7 (Service.Event.Recv m)) with
      | Some (7, Service.Event.Recv m') ->
          Alcotest.(check string) "recv round trip"
            (Service.message_to_string m)
            (Service.message_to_string m')
      | _ -> Alcotest.fail "recv did not round trip")
    [ register_msg "alpha"; query_msg "bravo";
      Service.Client { client = "c1"; payload = Server.Report 3.5 };
      Service.Deregister { client = "c2" } ];
  (match Service.Event.decode "9 reply alpha assign B=3 C=4" with
  | Some (9, Service.Event.Reply "alpha assign B=3 C=4") -> ()
  | _ -> Alcotest.fail "reply decode");
  (* Shed records (journaled rejections) round-trip like received
     messages. *)
  (match
     Service.Event.decode
       (Service.Event.encode ~seq:4
          (Service.Event.Shed
             (Service.Client { client = "c1"; payload = Server.Report 3.5 })))
   with
  | Some (4, Service.Event.Shed m) ->
      Alcotest.(check string) "shed round trip" "c1 report 3.5"
        (Service.message_to_string m)
  | _ -> Alcotest.fail "shed did not round trip");
  (match Service.Event.decode "4 shed not a message" with
  | None -> ()
  | Some _ -> Alcotest.fail "decoded a garbage shed");
  List.iter
    (fun garbage ->
      match Service.Event.decode garbage with
      | None -> ()
      | Some _ -> Alcotest.fail ("decoded garbage: " ^ garbage))
    [ ""; "junk"; "0 recv alpha query"; "5 recv query"; "5 recv done alpha";
      "7 recvalpha query" ]

let test_service_metrics_merges_shards () =
  let service =
    Service.create ~options
      ~telemetry:(fun _ -> Telemetry.create ~record_events:false ())
      ~shards:2 ()
  in
  let _dones = drive_all service fleet in
  let merged = Telemetry.counters (Service.merged_telemetry service) in
  let total =
    List.fold_left
      (fun acc s ->
        acc
        + Telemetry.counter_value (Service.shard_telemetry service s)
            "service.messages")
      0 [ 0; 1 ]
  in
  Alcotest.(check bool) "both shards handled messages" true
    (List.for_all
       (fun s ->
         Telemetry.counter_value (Service.shard_telemetry service s)
           "service.messages"
         > 0)
       [ 0; 1 ]);
  Alcotest.(check int) "merged counter sums the shards" total
    (List.assoc "service.messages" merged);
  match Service.handle service Service.Service_metrics with
  | Service.Service_stats text ->
      Alcotest.(check bool) "prometheus text mentions the service" true
        (String.length text > 0)
  | r -> Alcotest.fail ("service-metrics: " ^ Service.reply_to_string r)

(* ------------------------------------------------------------------ *)
(* Crash injection: kill one shard at every record boundary            *)

let test_kill_one_shard_at_every_boundary () =
  let shards = 2 in
  let dones_ref, bytes = reference ~shards () in
  Array.iteri
    (fun victim shard_bytes ->
      let scan = Frame.scan shard_bytes in
      Alcotest.(check bool) "reference shard journal is clean" false
        scan.Frame.torn;
      Alcotest.(check bool) "enough boundaries to mean something" true
        (List.length scan.Frame.boundaries > 20);
      List.iter
        (fun cut ->
          with_journal ~shards (fun path ->
              Array.iteri
                (fun s full ->
                  let content =
                    if s = victim then String.sub full 0 cut else full
                  in
                  let oc =
                    open_out_bin (Service.shard_journal ~journal:path ~shard:s)
                  in
                  output_string oc content;
                  close_out oc)
                bytes;
              let r = Service.recover ~options ~shards ~journal:path () in
              Alcotest.(check int)
                (Printf.sprintf "shard %d cut %d: clean prefix, nothing dropped"
                   victim cut)
                0 r.Service.dropped;
              check_all_resume
                ~msg:(Printf.sprintf "shard %d killed at boundary %d" victim cut)
                r.Service.service dones_ref;
              Service.detach_journals r.Service.service))
        (0 :: scan.Frame.boundaries))
    bytes

(* A few torn (mid-record) cuts per shard: the torn record is lost,
   everything before it replays, every client still converges. *)
let test_kill_one_shard_mid_record () =
  let shards = 2 in
  let dones_ref, bytes = reference ~shards () in
  Array.iteri
    (fun victim shard_bytes ->
      let scan = Frame.scan shard_bytes in
      let torn_cuts =
        List.filteri
          (fun i _ -> i mod 5 = 0)
          (List.filter_map
             (fun b ->
               if b + 3 <= String.length shard_bytes then Some (b + 3) else None)
             (0 :: scan.Frame.boundaries))
      in
      List.iter
        (fun cut ->
          with_journal ~shards (fun path ->
              Array.iteri
                (fun s full ->
                  let content =
                    if s = victim then String.sub full 0 cut else full
                  in
                  let oc =
                    open_out_bin (Service.shard_journal ~journal:path ~shard:s)
                  in
                  output_string oc content;
                  close_out oc)
                bytes;
              let r = Service.recover ~options ~shards ~journal:path () in
              check_all_resume
                ~msg:(Printf.sprintf "shard %d torn at byte %d" victim cut)
                r.Service.service dones_ref;
              Service.detach_journals r.Service.service))
        torn_cuts)
    bytes

(* Live crash through the fault-injecting sink on exactly one shard,
   compaction on, so crashes land inside snapshot/reset windows too. *)
let test_live_crash_one_shard () =
  let shards = 2 in
  let dones_ref, bytes = reference ~shards () in
  let victim = Service.shard_for ~shards "alpha" in
  let total = String.length bytes.(victim) in
  let limits = List.init 10 (fun i -> 1 + (i * total / 10)) in
  List.iter
    (fun limit ->
      with_journal ~shards (fun path ->
          let service = Service.create ~options ~shards () in
          Service.attach_journals ~compact_every:4
            ~wrap:(fun ~shard sink ->
              if shard = victim then Persist.fault_sink ~limit_bytes:limit sink
              else sink)
            service ~journal:path ();
          let crashed =
            match drive_all service fleet with
            | _ -> false
            | exception Persist.Crashed -> true
          in
          if crashed then begin
            let r =
              Service.recover ~options ~compact_every:4 ~shards ~journal:path ()
            in
            check_all_resume
              ~msg:(Printf.sprintf "live crash at %d bytes" limit)
              r.Service.service dones_ref;
            Service.detach_journals r.Service.service
          end))
    limits

(* ------------------------------------------------------------------ *)
(* Crashes that land in a pruning snapshot                             *)

(* Every client of this fleet tunes three times, alternating a
   maximizing and a minimizing session, and deregisters between them.
   So its shards' compactions retire owners as the fleet goes: each
   deregister drops a finished session, each new register starts a new
   history. *)
let sessions_per_client = 3

let register_as client n =
  let direction = if n mod 2 = 0 then Server.Maximize else Server.Minimize in
  Service.Client
    { client; payload = Server.Register { spec = paper_spec; direction } }

(* A tuning session ends in [`Leaving] (then deregisters and joins the
   next one) or, for the last session, in [`Finished]. *)
let finish n d =
  if n + 1 < sessions_per_client then `Leaving (n, d) else `Finished d

let lifecycle_step service state c =
  let unexpected r =
    Alcotest.fail (c ^ " lifecycle: unexpected " ^ Service.reply_to_string r)
  in
  let set s = Hashtbl.replace state c s in
  match Hashtbl.find state c with
  | `Joining n -> (
      match Service.handle service (register_as c n) with
      | Service.Client_reply { reply = Server.Assign a; _ } ->
          set (`Tuning (n, a))
      | r -> unexpected r)
  | `Tuning (n, a) -> (
      match Service.handle service (report_msg c a) with
      | Service.Client_reply { reply = Server.Assign a; _ } ->
          set (`Tuning (n, a))
      | Service.Client_reply { reply = Server.Done _ as d; _ } ->
          set (finish n (Server.reply_to_string d))
      | r -> unexpected r)
  | `Leaving (n, _) -> (
      match Service.handle service (Service.Deregister { client = c }) with
      | Service.Deregistered _ -> set (`Joining (n + 1))
      | r -> unexpected r)
  | `Finished _ -> ()

let drive_lifecycles service state =
  let rec go rounds =
    if rounds > 400 then Alcotest.fail "lifecycles did not finish";
    let live =
      List.filter
        (fun c ->
          match Hashtbl.find state c with `Finished _ -> false | _ -> true)
        fleet
    in
    if live <> [] then begin
      List.iter (lifecycle_step service state) live;
      go (rounds + 1)
    end
  in
  go 0

(* After a recovery each client asks where it stands.  Whatever it was
   acknowledged must have survived; its unacknowledged last message may
   or may not have. *)
let resync service state c =
  let set s = Hashtbl.replace state c s in
  let fail r =
    Alcotest.fail (c ^ " resync: unexpected " ^ Service.reply_to_string r)
  in
  match (Hashtbl.find state c, Service.handle service (query_msg c)) with
  | `Finished _, _ -> ()
  | ( (`Joining n | `Tuning (n, _)),
      Service.Client_reply { reply = Server.Assign a; _ } ) ->
      set (`Tuning (n, a))
  | `Tuning (n, _), Service.Client_reply { reply = Server.Done _ as d; _ } ->
      set (finish n (Server.reply_to_string d))
  | `Leaving (_, d), Service.Client_reply { reply = Server.Done _ as d'; _ } ->
      Alcotest.(check string) (c ^ ": done survives") d
        (Server.reply_to_string d')
  | `Leaving (n, _), Service.Client_reply { reply = Server.Rejected _; _ } ->
      set (`Joining (n + 1))
  | `Joining _, Service.Client_reply { reply = Server.Rejected _; _ } -> ()
  | _, r -> fail r

let test_crash_in_pruning_snapshot () =
  let shards = 2 and compact_every = 4 in
  let victim = Service.shard_for ~shards "alpha" in
  let fresh () =
    let state = Hashtbl.create 8 in
    List.iter (fun c -> Hashtbl.replace state c (`Joining 0)) fleet;
    state
  in
  (* Reference run: note the journal bytes written before every
     compaction of the victim shard that retired an owner, i.e. whose
     snapshot holds fewer records than the previous snapshot plus the
     records journaled since. *)
  let dones_ref, pruning_offsets =
    with_journal ~shards (fun path ->
        let service = Service.create ~options ~shards () in
        let snapshot =
          Service.shard_journal ~journal:path ~shard:victim ^ ".snapshot"
        in
        let armed = ref false in
        let written = ref 0 and since = ref 0 and kept = ref 0 in
        let offsets = ref [] in
        let observe (sink : Persist.sink) =
          let write s =
            sink.Persist.write s;
            written := !written + String.length s;
            incr since
          in
          let reset () =
            sink.Persist.reset ();
            if !armed then begin
              let now =
                List.length (Harmony_persist.Journal.read snapshot).Frame.records
                - 1
              in
              if now < !kept + !since then offsets := !written :: !offsets;
              kept := now
            end;
            since := 0
          in
          { sink with Persist.write; reset }
        in
        Service.attach_journals ~compact_every
          ~wrap:(fun ~shard sink -> if shard = victim then observe sink else sink)
          service ~journal:path ();
        armed := true;
        let state = fresh () in
        drive_lifecycles service state;
        Service.detach_journals service;
        (state, List.rev !offsets))
  in
  Alcotest.(check bool) "some compactions of the victim shard retire owners" true
    (List.length pruning_offsets >= 2);
  (* Crash at the first journal write after each pruning snapshot, and
     a few bytes into it. *)
  List.iter
    (fun limit ->
      with_journal ~shards (fun path ->
          let service = Service.create ~options ~shards () in
          Service.attach_journals ~compact_every
            ~wrap:(fun ~shard sink ->
              if shard = victim then Persist.fault_sink ~limit_bytes:limit sink
              else sink)
            service ~journal:path ();
          let state = fresh () in
          (match drive_lifecycles service state with
          | () -> Alcotest.fail (Printf.sprintf "no crash at %d bytes" limit)
          | exception Persist.Crashed -> ());
          let r =
            Service.recover ~options ~compact_every ~shards ~journal:path ()
          in
          List.iter (resync r.Service.service state) fleet;
          drive_lifecycles r.Service.service state;
          List.iter
            (fun c ->
              match (Hashtbl.find state c, Hashtbl.find dones_ref c) with
              | `Finished d, `Finished d_ref ->
                  Alcotest.(check string)
                    (Printf.sprintf "crash at %d bytes: %s done byte-identical"
                       limit c)
                    d_ref d
              | _ -> Alcotest.fail (c ^ " did not finish"))
            fleet;
          Service.detach_journals r.Service.service))
    (List.concat_map (fun off -> [ off; off + 3 ]) pruning_offsets)

(* One shard's files replaced by garbage: that shard recovers empty
   (its clients start over), the other shard's sessions survive in
   full — and recovery itself never raises. *)
let test_corrupt_one_shard_salvages_the_rest () =
  let shards = 2 in
  let dones_ref, bytes = reference ~shards () in
  let victim = 0 in
  with_journal ~shards (fun path ->
      Array.iteri
        (fun s full ->
          let p = Service.shard_journal ~journal:path ~shard:s in
          (* A well-framed record of garbage plus torn bytes: the
             record decodes to nothing (counted as dropped), the tail
             is discarded by the frame scan. *)
          let content =
            if s = victim then Frame.encode "not a service event" ^ String.make 64 '\xde'
            else full
          in
          let oc = open_out_bin p in
          output_string oc content;
          close_out oc;
          if s = victim then
            Persist.write_atomic ~path:(p ^ ".snapshot") [ "\x00garbage\xff" ])
        bytes;
      let r = Service.recover ~options ~shards ~journal:path () in
      List.iter
        (fun (pr : Service.shard_recovery) ->
          if pr.shard = victim then begin
            Alcotest.(check int) "corrupt shard replays nothing" 0 pr.replayed;
            Alcotest.(check bool) "corrupt shard counted dropped input" true
              (pr.dropped > 0)
          end
          else
            Alcotest.(check bool) "healthy shard replays its sessions" true
              (pr.replayed > 0))
        r.Service.per_shard;
      (* Healthy-shard clients resume where they stood; corrupt-shard
         clients re-register — everyone converges to the reference. *)
      check_all_resume ~msg:"corrupt shard 0" r.Service.service dones_ref;
      Service.detach_journals r.Service.service)

(* A register whose specification overflows an integer literal is
   rejected inside a journaled batch: every message of the batch is
   answered, and the journal holding its [recv] record recovers. *)
let test_oversized_literal_batch_recovers () =
  let shards = 1 in
  let bad =
    Service.Client
      {
        client = "alpha";
        payload =
          Server.Register
            {
              spec = "{ harmonyBundle B { int {1 99999999999999999999 1} }}";
              direction = Server.Maximize;
            };
      }
  in
  with_journal ~shards (fun path ->
      let service = Service.create ~options ~shards () in
      Service.attach_journals service ~journal:path ();
      let replies =
        Service.handle_batch service [ bad; query_msg "alpha"; register_msg "bravo" ]
      in
      Alcotest.(check int) "every message answered" 3 (List.length replies);
      (match replies with
      | Service.Client_reply { reply = Server.Rejected msg; _ } :: _ ->
          Alcotest.(check bool) ("bad specification: " ^ msg) true
            (String.starts_with ~prefix:"bad specification: integer literal" msg)
      | _ -> Alcotest.fail "expected the register to be rejected");
      Service.detach_journals service;
      let r = Service.recover ~options ~shards ~journal:path () in
      Alcotest.(check int) "nothing dropped" 0 r.Service.dropped;
      Alcotest.(check int) "one live session" 1 (Service.sessions r.Service.service);
      Service.detach_journals r.Service.service)

(* Whole-service recovery cross-checks: recovering an intact two-shard
   run replays everything, drops nothing, and the merged telemetry
   carries the per-shard totals. *)
let test_recover_intact_service () =
  let shards = 2 in
  let dones_ref, bytes = reference ~shards () in
  with_journal ~shards (fun path ->
      Array.iteri
        (fun s full ->
          let oc = open_out_bin (Service.shard_journal ~journal:path ~shard:s) in
          output_string oc full;
          close_out oc)
        bytes;
      let r =
        Service.recover ~options ~shards
          ~telemetry:(fun _ -> Telemetry.create ~record_events:false ())
          ~journal:path ()
      in
      Alcotest.(check int) "nothing dropped" 0 r.Service.dropped;
      Alcotest.(check int) "every client message replayed"
        (List.fold_left
           (fun acc (pr : Service.shard_recovery) -> acc + pr.replayed)
           0 r.Service.per_shard)
        r.Service.replayed;
      Alcotest.(check int) "all sessions back" (List.length fleet)
        (Service.sessions r.Service.service);
      Alcotest.(check int) "merged recovery counter sums shards"
        r.Service.replayed
        (Telemetry.counter_value
           (Service.merged_telemetry r.Service.service)
           "service.recovery.replayed");
      check_all_resume ~msg:"intact recovery" r.Service.service dones_ref;
      Service.detach_journals r.Service.service)

(* ------------------------------------------------------------------ *)
(* Serializability (QCheck)                                            *)

let script_ids = [| "p"; "q"; "r" |]

let gen_step client : Service.message Gen.t =
  Gen.oneof
    [
      Gen.return (register_msg client);
      Gen.return (query_msg client);
      Gen.map
        (fun i -> Service.Client { client; payload = Server.Report (float_of_int i) })
        (Gen.int_bound 100);
      Gen.return (Service.Client { client; payload = Server.Report_failed });
      Gen.return (Service.Deregister { client });
    ]

let gen_scripts : (Service.message array array * int list) Gen.t =
  let gen_script c = Gen.list_size (Gen.int_range 1 8) (gen_step c) in
  Gen.bind
    (Gen.triple (gen_script script_ids.(0)) (gen_script script_ids.(1))
       (gen_script script_ids.(2)))
    (fun (a, b, c) ->
      let tokens =
        List.concat
          [
            List.map (fun _ -> 0) a;
            List.map (fun _ -> 1) b;
            List.map (fun _ -> 2) c;
          ]
      in
      Gen.map
        (fun order ->
          ([| Array.of_list a; Array.of_list b; Array.of_list c |], order))
        (Gen.shuffle_l tokens))

(* Any interleaving of k clients' messages gives each client, as its
   reply subsequence, byte-for-byte the conversation it would have had
   alone against a fresh service. *)
let prop_serializable =
  QCheck2.Test.make ~name:"interleaving serializes per client" ~count:120
    gen_scripts (fun (scripts, order) ->
      let service = Service.create ~options ~shards:3 () in
      let next = Array.make (Array.length scripts) 0 in
      let observed = Array.make (Array.length scripts) [] in
      List.iter
        (fun ci ->
          let msg = scripts.(ci).(next.(ci)) in
          next.(ci) <- next.(ci) + 1;
          let r = Service.handle service msg in
          observed.(ci) <- Service.reply_to_string r :: observed.(ci))
        order;
      let isolated ci =
        let alone = Service.create ~options ~shards:1 () in
        Array.to_list
          (Array.map
             (fun m -> Service.reply_to_string (Service.handle alone m))
             scripts.(ci))
      in
      let ok = ref true in
      Array.iteri
        (fun ci replies ->
          if List.rev replies <> isolated ci then ok := false)
        observed;
      !ok)

(* ------------------------------------------------------------------ *)
(* Admission control at the service edge                               *)

(* Batched driver that tolerates admission rejections: a rejected
   client keeps its state and simply re-offers the same message next
   round — the retry discipline the service's [retry-after] contract
   promises will converge. *)
let drive_batched_with_retries ?pool service clients =
  let state = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace state c `Start) clients;
  let rejections = ref 0 in
  let rec round n =
    if n > 400 then Alcotest.fail "retrying drive did not drain";
    let pending =
      List.filter
        (fun c ->
          match Hashtbl.find_opt state c with
          | Some (`Done _) -> false
          | _ -> true)
        clients
    in
    if pending <> [] then begin
      let msgs =
        List.map
          (fun c ->
            match Hashtbl.find_opt state c with
            | Some `Start -> register_msg c
            | Some (`Assign a) -> report_msg c a
            | _ -> Alcotest.fail "finished client scheduled")
          pending
      in
      let replies = Service.handle_batch ?pool service msgs in
      List.iter2
        (fun c r ->
          match r with
          | Service.Client_reply { reply = Server.Assign a; _ } ->
              Hashtbl.replace state c (`Assign a)
          | Service.Client_reply { reply = Server.Done _ as d; _ } ->
              Hashtbl.replace state c (`Done (Server.reply_to_string d))
          | Service.Client_reply { reply = Server.Rejected msg; _ }
            when Admission.is_rejection_text msg ->
              incr rejections
          | r ->
              Alcotest.fail
                ("retrying drive: unexpected " ^ Service.reply_to_string r))
        pending replies;
      round (n + 1)
    end
  in
  round 0;
  let dones =
    List.map
      (fun c ->
        match Hashtbl.find_opt state c with
        | Some (`Done text) -> (c, text)
        | _ -> Alcotest.fail (c ^ " never finished"))
      clients
  in
  (dones, !rejections)

(* Satellite: batched metrics probes answer the pre-batch snapshot at
   their arrival index — two probes in one batch agree with each other
   and with the registry as of batch start, wherever they sit. *)
let test_metrics_probe_pre_batch_snapshot () =
  let service =
    Service.create ~options
      ~telemetry:(fun _ -> Telemetry.create ~record_events:false ())
      ~shards:2 ()
  in
  (match Service.handle_batch service [ register_msg "alpha" ] with
  | [ Service.Client_reply { reply = Server.Assign _; _ } ] -> ()
  | _ -> Alcotest.fail "register failed");
  let expected = Service.reply_to_string (Service.Service_stats
         (Harmony_telemetry.Export.prometheus (Service.merged_telemetry service))) in
  let replies =
    Service.handle_batch service
      [ Service.Service_metrics; register_msg "bravo";
        Service.Service_metrics ]
  in
  (match replies with
  | [ first; Service.Client_reply { reply = Server.Assign _; _ }; last ] ->
      Alcotest.(check string) "leading probe answers pre-batch registry"
        expected
        (Service.reply_to_string first);
      Alcotest.(check string) "trailing probe answers the same snapshot"
        expected
        (Service.reply_to_string last)
  | _ -> Alcotest.fail "unexpected batch shape");
  (* And the next batch's probe sees bravo's register. *)
  match Service.handle_batch service [ Service.Service_metrics ] with
  | [ Service.Service_stats text ] ->
      Alcotest.(check bool) "snapshot advanced between batches" false
        (String.equal expected
           (Service.reply_to_string (Service.Service_stats text)))
  | _ -> Alcotest.fail "probe failed"

let test_admission_rejects_and_retries () =
  let tight = { Admission.unlimited with Admission.max_inflight = 1 } in
  (* Registers are Critical: a full fleet registers in one batch even
     with a single-slot budget. *)
  let probe = Service.create ~options ~admission:tight ~shards:2 () in
  List.iter
    (fun r ->
      match r with
      | Service.Client_reply { reply = Server.Assign _; _ } -> ()
      | r -> Alcotest.fail ("register: " ^ Service.reply_to_string r))
    (Service.handle_batch probe (List.map register_msg fleet));
  (* Drive a fresh policed service to done under the 1-per-shard
     budget: the 4-client fleet must see real rejections and still
     converge to the same dones as an unpoliced service. *)
  let service =
    Service.create ~options
      ~telemetry:(fun _ -> Telemetry.create ~record_events:false ())
      ~admission:tight ~shards:2 ()
  in
  let plain = Service.create ~options ~shards:2 () in
  let dones_ref = drive_all plain fleet in
  let dones, rejections = drive_batched_with_retries service fleet in
  Alcotest.(check bool) "budget forced real rejections" true (rejections > 0);
  List.iter2
    (fun (c, d) (c', d') ->
      Alcotest.(check string) (c ^ " client id stable") c c';
      Alcotest.(check string)
        (c ^ " done byte-identical despite shedding") d d')
    dones_ref dones;
  (* Rejected messages never touched sessions: the admission counters
     add up against what the shards actually handled. *)
  let merged = Service.merged_telemetry service in
  Alcotest.(check bool) "over-capacity counted" true
    (Telemetry.counter_value merged Admission.c_over_capacity > 0);
  Alcotest.(check int) "rejected aggregates the splits"
    (Telemetry.counter_value merged Admission.c_over_capacity)
    (Telemetry.counter_value merged Admission.c_rejected)

let test_deadline_shed_before_dispatch () =
  let service =
    Service.create ~options ~admission:Admission.unlimited ~shards:1 ()
  in
  ignore (Service.handle_batch service []);
  (* Clock is now 1; a deadline of 0 is already dead and must be shed
     before the shard ever sees it. *)
  let replies =
    Service.handle_batch_env service
      [ Service.envelope ~deadline:0 (register_msg "alpha") ]
  in
  (match replies with
  | [ Service.Client_reply { client = "alpha"; reply = Server.Rejected msg } ]
    ->
      Alcotest.(check string) "deadline rejection text"
        "deadline-expired: retry-after=0" msg
  | _ -> Alcotest.fail "expected a deadline rejection");
  Alcotest.(check int) "no session was created" 0 (Service.sessions service);
  (* The same message with a live deadline registers fine. *)
  match
    Service.handle_batch_env service
      [ Service.envelope ~deadline:99 (register_msg "alpha") ]
  with
  | [ Service.Client_reply { reply = Server.Assign _; _ } ] -> ()
  | _ -> Alcotest.fail "live-deadline register failed"

let test_degraded_sheds_by_priority () =
  (* A 1-tick window with a 1-shed watermark flips the single shard
     degraded on the round after any shed, and recovers after any
     shed-free round. *)
  let service =
    Service.create ~options
      ~telemetry:(fun _ -> Telemetry.create ~record_events:false ())
      ~admission:
        { Admission.unlimited with Admission.max_inflight = 1;
          degrade_window = 1; degrade_high = 1; degrade_low = 0 }
      ~shards:1 ()
  in
  (* Degraded mode as the shard publishes it. *)
  let degraded () =
    Option.equal Float.equal (Some 1.0)
      (List.assoc_opt "service.admission.degraded"
         (Telemetry.gauges (Service.shard_telemetry service 0)))
  in
  ignore (Service.handle_batch service [ register_msg "alpha" ]);
  ignore (Service.handle_batch service [ register_msg "bravo" ]);
  (* Two Normal reports against one slot: one shed. *)
  (match
     Service.handle_batch service
       [ query_msg "alpha"; query_msg "bravo" ]
   with
  | [ Service.Client_reply { reply = r1; _ };
      Service.Client_reply { reply = r2; _ } ] ->
      let rejected =
        List.length
          (List.filter
             (function Server.Rejected _ -> true | _ -> false)
             [ r1; r2 ])
      in
      Alcotest.(check int) "one of two queries shed by the budget" 1 rejected
  | _ -> Alcotest.fail "unexpected replies");
  (* Next round the window has rolled: the shard is degraded, Low
     priority is shed outright with the degraded flag, Normal and
     Critical still pass. *)
  let replies =
    Service.handle_batch service
      [ query_msg "alpha";
        Service.Client { client = "bravo"; payload = Server.Report_failed };
        Service.Deregister { client = "alpha" } ]
  in
  Alcotest.(check bool) "shard reports degraded" true (degraded ());
  (match replies with
  | [ Service.Client_reply { reply = Server.Rejected msg; _ };
      Service.Client_reply { reply = _; _ };
      Service.Deregistered { client = "alpha" } ] ->
      Alcotest.(check bool) "low-priority shed mentions degraded" true
        (String.length msg >= 8 && String.equal (String.sub msg 0 5) "shed:");
      Alcotest.(check bool) "shed reply carries the degraded flag" true
        (String.ends_with ~suffix:" degraded" msg)
  | _ -> Alcotest.fail "degraded round had unexpected shape");
  (* A quiet round (only exempt traffic, no sheds) recovers the shard
     hysteretically. *)
  ignore
    (Service.handle_batch service [ Service.Deregister { client = "bravo" } ]);
  ignore (Service.handle_batch service []);
  Alcotest.(check bool) "shard recovered after quiet window" false
    (degraded ())

let test_cancelled_batch_is_total () =
  let service = Service.create ~options ~shards:2 () in
  Pool.with_pool ~domains:2 (fun pool ->
      let cancel = Pool.Cancel.create () in
      Pool.Cancel.cancel cancel;
      let replies =
        Service.handle_batch ~pool ~cancel service (List.map register_msg fleet)
      in
      Alcotest.(check int) "every slot answered" (List.length fleet)
        (List.length replies);
      List.iter
        (fun r ->
          match r with
          | Service.Client_reply { reply = Server.Rejected msg; _ } ->
              Alcotest.(check string) "cancelled rejection text"
                "cancelled: retry-after=0" msg
          | r ->
              Alcotest.fail ("cancelled: unexpected " ^ Service.reply_to_string r))
        replies;
      Alcotest.(check int) "no session state touched" 0
        (Service.sessions service);
      (* The same batch goes through once the token is fresh. *)
      let replies =
        Service.handle_batch ~pool service (List.map register_msg fleet)
      in
      List.iter
        (fun r ->
          match r with
          | Service.Client_reply { reply = Server.Assign _; _ } -> ()
          | r -> Alcotest.fail ("retry: unexpected " ^ Service.reply_to_string r))
        replies)

let test_critical_rejection_is_retryable () =
  (* Even Critical messages obey the per-client token bucket; the
     rejection is a total client-addressed reply and the session
     survives to retry. *)
  let service =
    Service.create ~options
      ~admission:
        { Admission.unlimited with Admission.rate = 1; burst = 1;
          refill_every = 4 }
      ~shards:1 ()
  in
  (match Service.handle service (register_msg "alpha") with
  | Service.Client_reply { reply = Server.Assign _; _ } -> ()
  | r -> Alcotest.fail ("register: " ^ Service.reply_to_string r));
  (match Service.handle service (Service.Deregister { client = "alpha" }) with
  | Service.Client_reply { client = "alpha"; reply = Server.Rejected msg } ->
      Alcotest.(check bool) "rate-limit rejection is parseable" true
        (Option.is_some (Admission.retry_after_of_text msg))
  | r -> Alcotest.fail ("deregister: " ^ Service.reply_to_string r));
  Alcotest.(check int) "session survived the rejection" 1
    (Service.sessions service);
  (* Wait out the refill and retry. *)
  for _ = 1 to 4 do ignore (Service.handle_batch service []) done;
  match Service.handle service (Service.Deregister { client = "alpha" }) with
  | Service.Deregistered { client = "alpha" } -> ()
  | r -> Alcotest.fail ("retry deregister: " ^ Service.reply_to_string r)

(* ------------------------------------------------------------------ *)
(* Recovery of journaled rejections (kill at every record boundary)    *)

(* Reference run under rate limiting: every client's bucket starts
   with one token and refills one token every two ticks, so roughly
   every other round each client's (journaled) report is rejected —
   the shard journals interleave accepted records with shed ones.
   Clients never deregister, so recovery's compaction prunes nothing
   and the snapshot must reproduce the journal prefix verbatim. *)
let rejection_admission =
  { Admission.unlimited with Admission.rate = 1; burst = 1; refill_every = 2 }

let rejection_reference ~shards () =
  with_journal ~shards (fun path ->
      let service =
        Service.create ~options ~admission:rejection_admission ~shards ()
      in
      Service.attach_journals ~compact_every:1_000_000 service ~journal:path ();
      let dones, rejections = drive_batched_with_retries service fleet in
      Service.detach_journals service;
      let bytes =
        Array.init shards (fun s ->
            Option.value ~default:""
              (Persist.read_file (Service.shard_journal ~journal:path ~shard:s)))
      in
      (dones, rejections, bytes))

let test_kill_at_boundary_replays_rejections () =
  let shards = 2 in
  let dones_ref, rejections, bytes = rejection_reference ~shards () in
  Alcotest.(check bool) "reference run really rejected work" true
    (rejections > 0);
  Array.iteri
    (fun victim shard_bytes ->
      let scan = Frame.scan shard_bytes in
      Alcotest.(check bool) "reference shard journal is clean" false
        scan.Frame.torn;
      let shed_records =
        List.filter
          (fun r ->
            match Service.Event.decode r with
            | Some (_, Service.Event.Shed _) -> true
            | _ -> false)
          (Frame.scan shard_bytes).Frame.records
      in
      Alcotest.(check bool)
        (Printf.sprintf "shard %d journal mixes in shed records" victim)
        true
        (List.length shed_records > 0);
      List.iter
        (fun cut ->
          with_journal ~shards (fun path ->
              Array.iteri
                (fun s full ->
                  let content =
                    if s = victim then String.sub full 0 cut else full
                  in
                  let oc =
                    open_out_bin (Service.shard_journal ~journal:path ~shard:s)
                  in
                  output_string oc content;
                  close_out oc)
                bytes;
              let r =
                Service.recover ~options ~admission:Admission.unlimited ~shards
                  ~journal:path ()
              in
              Alcotest.(check int)
                (Printf.sprintf "shard %d cut %d: clean prefix, nothing dropped"
                   victim cut)
                0 r.Service.dropped;
              (* Byte-for-byte replay of the prefix — rejections
                 included: every journal record in the surviving
                 prefix (shed, recv, and their replies) reappears
                 verbatim in the recovered shard's snapshot. *)
              let prefix_records =
                (Frame.scan (String.sub shard_bytes 0 cut)).Frame.records
              in
              let snap_records =
                (Harmony_persist.Journal.read
                   (Service.shard_journal ~journal:path ~shard:victim
                    ^ ".snapshot"))
                  .Frame.records
              in
              List.iter
                (fun record ->
                  Alcotest.(check bool)
                    (Printf.sprintf
                       "shard %d cut %d: record %S replayed byte-for-byte"
                       victim cut record)
                    true
                    (List.mem record snap_records))
                prefix_records;
              (* And the interrupted clients still converge to the
                 reference dones (admission is generous post-recovery;
                 the retry discipline needs no special casing). *)
              check_all_resume
                ~msg:(Printf.sprintf "shard %d killed at boundary %d" victim cut)
                r.Service.service dones_ref;
              Service.detach_journals r.Service.service))
        (0 :: scan.Frame.boundaries))
    bytes

(* ------------------------------------------------------------------ *)
(* Trace correlation, flight dumps, and the SLO monitor                *)

module Slo = Harmony_service.Slo
module Flight = Harmony_telemetry.Flight
module Export = Harmony_telemetry.Export

(* Drive the standard fleet conversation through [handle_batch] with
   event-recording shard telemetry and return each shard's exported
   trace text. *)
let drive_with_trace ~domains =
  let shards = 2 in
  let service =
    Service.create ~options ~telemetry:(fun _ -> Telemetry.create ()) ~shards ()
  in
  let state = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace state c `Start) fleet;
  let run pool =
    let rec round steps =
      if steps > 200 then Alcotest.fail "traced run did not drain";
      let live =
        List.filter
          (fun c ->
            match Hashtbl.find_opt state c with
            | Some `Gone -> false
            | _ -> true)
          fleet
      in
      if live <> [] then begin
        let batch =
          List.map
            (fun c ->
              match Hashtbl.find_opt state c with
              | Some `Start -> register_msg c
              | Some (`Assign a) -> report_msg c a
              | Some `Done -> Service.Deregister { client = c }
              | _ -> Alcotest.fail "inactive client scheduled")
            live
        in
        let replies = Service.handle_batch ?pool service batch in
        List.iteri
          (fun k r ->
            let c = List.nth live k in
            match r with
            | Service.Client_reply { reply = Server.Assign a; _ } ->
                Hashtbl.replace state c (`Assign a)
            | Service.Client_reply { reply = Server.Done _; _ } ->
                Hashtbl.replace state c `Done
            | Service.Deregistered _ -> Hashtbl.replace state c `Gone
            | r -> Alcotest.fail ("traced run: " ^ Service.reply_to_string r))
          replies;
        round (steps + 1)
      end
    in
    round 0
  in
  (match domains with
  | 1 -> run None
  | n -> Pool.with_pool ~domains:n (fun pool -> run (Some pool)));
  List.init shards (fun s -> Export.jsonl (Service.shard_telemetry service s))

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i =
    i + n <= m && (String.equal (String.sub s i n) affix || go (i + 1))
  in
  n = 0 || go 0

(* The whole point of deriving trace ids from (client, seq) in the
   sequential admission loop: the emitted trace bytes — span events,
   correlation args, histogram exemplars — cannot depend on how many
   domains dispatched the batches. *)
let test_trace_bytes_identical_across_domains () =
  let sequential = drive_with_trace ~domains:1 in
  let parallel = drive_with_trace ~domains:4 in
  Alcotest.(check (list string))
    "per-shard trace bytes identical at 1 vs 4 domains" sequential parallel;
  List.iter
    (fun shard_text ->
      Alcotest.(check bool) "trace ids present" true
        (contains ~affix:{|"trace_id"|} shard_text);
      Alcotest.(check bool) "handle exemplars present" true
        (contains ~affix:{|"exemplars"|} shard_text))
    sequential

let test_dump_flight_returns_rings () =
  let service =
    Service.create ~options
      ~telemetry:(fun _ ->
        Telemetry.create ~record_events:false
          ~flight:(Flight.create ~capacity:64)
          ())
      ~shards:2 ()
  in
  List.iter
    (fun c ->
      match Service.handle service (register_msg c) with
      | Service.Client_reply { reply = Server.Assign _; _ } -> ()
      | r -> Alcotest.fail ("register: " ^ Service.reply_to_string r))
    fleet;
  match Service.handle service Service.Dump_flight with
  | Service.Flight_dump text -> (
      (* The dump is analyzer-ready: shard-segmented, spans intact. *)
      match Trace_core.of_string text with
      | Error e -> Alcotest.fail ("flight dump unparsable: " ^ e)
      | Ok t ->
          Alcotest.(check int) "nothing dropped" 0 t.Trace_core.dropped;
          Alcotest.(check (list string))
            "one segment per shard" [ "shard0"; "shard1" ]
            (List.map (fun s -> s.Trace_core.seg_name) t.Trace_core.segments);
          Alcotest.(check bool) "handle spans recorded" true
            (Trace_core.handles t <> []))
  | r -> Alcotest.fail ("dump-flight: " ^ Service.reply_to_string r)

let test_slo_monitor_state_machine () =
  let m = Slo.create Slo.default_burn in
  let total = ref 0 and viol = ref 0 in
  let feed_n n ~per_feed_viol =
    for _ = 1 to n do
      total := !total + 100;
      viol := !viol + per_feed_viol;
      ignore (Slo.feed m ~total:!total ~violations:!viol)
    done
  in
  (* Clean traffic: quiet. *)
  feed_n 16 ~per_feed_viol:0;
  Alcotest.(check string) "clean traffic is healthy" "ok"
    (Slo.state_to_string (Slo.state m));
  Alcotest.(check int) "no pages yet" 0 (Slo.pages m);
  (* Sustained 10x burn (10% violating vs a 1% budget): the fast
     window arms immediately, the slow window confirms, and the
     monitor pages exactly once for the episode. *)
  feed_n 64 ~per_feed_viol:10;
  Alcotest.(check string) "sustained burn pages" "page"
    (Slo.state_to_string (Slo.state m));
  Alcotest.(check int) "one page for one episode" 1 (Slo.pages m);
  (* Hysteresis: 3x burn is below half the page threshold, so the
     monitor steps down — but only to warn (3x is still above half the
     warn threshold), where it holds without flapping. *)
  feed_n 64 ~per_feed_viol:3;
  Alcotest.(check string) "moderate burn settles at warn" "warn"
    (Slo.state_to_string (Slo.state m));
  Alcotest.(check int) "no second page" 1 (Slo.pages m);
  (* Full recovery drains both windows back to healthy. *)
  feed_n 128 ~per_feed_viol:0;
  Alcotest.(check string) "recovery de-escalates fully" "ok"
    (Slo.state_to_string (Slo.state m));
  (* Cumulative inputs mean a snapshot replay (same totals) is a
     no-op delta, not a phantom burst. *)
  let before = Slo.state m in
  ignore (Slo.feed m ~total:!total ~violations:!viol);
  Alcotest.(check string) "replayed snapshot is a zero delta"
    (Slo.state_to_string before)
    (Slo.state_to_string (Slo.state m))

let test_budgets_of_json () =
  (match
     Slo.budgets_of_json
       {|{"histogram":"server.handle_ms","quantile":0.99,"max_ticks":20,
          "queue_delay_histogram":"service.admission.queue_delay",
          "max_p99_queue_delay_ticks":40,"max_excess_rejection_rate":0.15}|}
   with
  | Error e -> Alcotest.fail ("budgets: " ^ e)
  | Ok b ->
      Alcotest.(check string) "histogram" "server.handle_ms" b.Slo.handle_hist;
      Alcotest.(check (float 1e-9)) "max ticks" 20.0 b.Slo.handle_max;
      (* No "burn" object: the monitor defaults apply. *)
      Alcotest.(check (float 1e-9))
        "default page burn" Slo.default_burn.Slo.page_burn b.Slo.burn.Slo.page_burn;
      let spec = Slo.spec_of_budgets b in
      Alcotest.(check (float 1e-9)) "threshold from budget" 20.0
        spec.Slo.handle_threshold);
  (match
     Slo.budgets_of_json
       {|{"histogram":"h","quantile":0.99,"max_ticks":20,
          "queue_delay_histogram":"q","max_p99_queue_delay_ticks":40,
          "max_excess_rejection_rate":0.15,
          "burn":{"warn_burn":8.0,"page_burn":2.0}}|}
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "page below warn must be rejected, not clamped");
  match Slo.budgets_of_json "{not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse"

let test_violations_in_counts_bucket_occupancy () =
  let t = Telemetry.create () in
  let bounds = [| 1.0; 5.0; 10.0; 20.0 |] in
  List.iter
    (fun v -> Telemetry.observe t ~bounds "h" v)
    [ 0.5; 4.0; 9.0; 15.0; 100.0 ];
  match Telemetry.histogram_value t "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some snap ->
      Alcotest.(check int) "exact at a bucket bound" 2
        (Slo.violations_in snap ~threshold:10.0);
      Alcotest.(check int) "conservative inside a bucket" 3
        (Slo.violations_in snap ~threshold:6.0)

(* ------------------------------------------------------------------ *)
(* The single-session entry point against a lone Server                *)

(* Registers draw from a tunable spec, an unparsable one, one with a
   single feasible point (rejected at register) and one degenerate in
   one dimension (aborted once its initial vertices are measured). *)
let single_specs =
  [| paper_spec; "{ nope }"; "{ harmonyBundle B { int {3 3 1} }}";
     "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {3 3 1} }}" |]

let gen_single_message =
  Gen.frequency
    [
      ( 3,
        Gen.map2
          (fun i minimize ->
            Server.Register
              {
                spec = single_specs.(i);
                direction = (if minimize then Server.Minimize else Server.Maximize);
              })
          (Gen.int_bound (Array.length single_specs - 1))
          Gen.bool );
      (6, Gen.map (fun v -> Server.Report (float_of_int v)) (Gen.int_range 0 100));
      (1, Gen.return Server.Report_failed);
      (2, Gen.return Server.Query);
      (1, Gen.return Server.Metrics);
    ]

(* A short budget, so scripts reach [done] and re-register often. *)
let single_options = { Simplex.default_options with Simplex.max_evaluations = 5 }

(* The lone-Server reference with the entry point's two documented
   differences, and nothing else: every register starts from a fresh
   server (a rejected one thereby ends the live session), and while no
   register has been accepted since the last rejected one, the missing
   session reads as the service's unknown client. *)
let single_reference messages =
  let server = ref (Server.create ~options:single_options ()) in
  let accepted = ref false in
  List.map
    (fun message ->
      (match message with
      | Server.Register _ -> server := Server.create ~options:single_options ()
      | Server.Query | Server.Report _ | Server.Report_failed | Server.Metrics ->
          ());
      let reply = Server.handle !server message in
      (match (message, reply) with
      | Server.Register _, Server.Rejected _ -> accepted := false
      | Server.Register _, (Server.Assign _ | Server.Done _ | Server.Stats _) ->
          accepted := true
      | (Server.Query | Server.Report _ | Server.Report_failed | Server.Metrics), _
        ->
          ());
      match reply with
      | Server.Rejected "no specification registered" when not !accepted ->
          Server.Rejected "unknown client session: register first"
      | reply -> reply)
    messages

(* Half the scripts run with edge policing and a deadline of 0 ticks:
   each message, the implicit deregister included, is stamped at the
   tick it is handled at, so none may expire. *)
let prop_single_matches_server =
  QCheck2.Test.make ~name:"handle_single matches a lone server" ~count:400
    ~print:(fun (messages, policed) ->
      Printf.sprintf "policed=%b [%s]" policed
        (String.concat "; "
           (List.map (fun m -> String.escaped (Server.message_to_string m))
              messages)))
    Gen.(pair (list_size (int_range 1 40) gen_single_message) bool)
    (fun (messages, policed) ->
      let service =
        if policed then
          Service.create ~options:single_options
            ~admission:Admission.default_config ~shards:1 ()
        else Service.create ~options:single_options ~shards:1 ()
      in
      let deadline_ticks = if policed then Some 0 else None in
      let replies =
        List.map
          (fun m ->
            Server.reply_to_string
              (Service.handle_single ?deadline_ticks service m))
          messages
      in
      List.iter
        (fun r ->
          if Admission.is_rejection_text r then
            Alcotest.fail ("policed reply shed: " ^ r))
        replies;
      Alcotest.(check (list string)) "replies match the reference"
        (List.map Server.reply_to_string (single_reference messages))
        replies;
      true)

let suite =
  [
    Alcotest.test_case "routing deterministic" `Quick test_routing_deterministic;
    Alcotest.test_case "batch identical across domains" `Quick
      test_batch_identical_across_domains;
    Alcotest.test_case "batch identical to sequential" `Quick
      test_batch_identical_to_sequential;
    Alcotest.test_case "client replies identical across shards" `Quick
      test_client_replies_identical_across_shards;
    Alcotest.test_case "duplicate register rejected" `Quick
      test_duplicate_register_rejected;
    Alcotest.test_case "unknown client total" `Quick test_unknown_client_is_total;
    Alcotest.test_case "parse message" `Quick test_parse_message;
    Alcotest.test_case "event codec" `Quick test_event_codec;
    Alcotest.test_case "metrics merge shards" `Quick
      test_service_metrics_merges_shards;
    Alcotest.test_case "kill one shard at every boundary" `Slow
      test_kill_one_shard_at_every_boundary;
    Alcotest.test_case "kill one shard mid-record" `Quick
      test_kill_one_shard_mid_record;
    Alcotest.test_case "live crash one shard" `Quick test_live_crash_one_shard;
    Alcotest.test_case "crash in a pruning snapshot" `Quick
      test_crash_in_pruning_snapshot;
    Alcotest.test_case "corrupt one shard salvages rest" `Quick
      test_corrupt_one_shard_salvages_the_rest;
    Alcotest.test_case "recover intact service" `Quick test_recover_intact_service;
    Alcotest.test_case "oversized literal batch recovers" `Quick
      test_oversized_literal_batch_recovers;
    Alcotest.test_case "metrics probe answers pre-batch snapshot" `Quick
      test_metrics_probe_pre_batch_snapshot;
    Alcotest.test_case "admission rejects and retries converge" `Quick
      test_admission_rejects_and_retries;
    Alcotest.test_case "deadline shed before dispatch" `Quick
      test_deadline_shed_before_dispatch;
    Alcotest.test_case "degraded sheds by priority" `Quick
      test_degraded_sheds_by_priority;
    Alcotest.test_case "cancelled batch is total" `Quick
      test_cancelled_batch_is_total;
    Alcotest.test_case "critical rejection retryable" `Quick
      test_critical_rejection_is_retryable;
    Alcotest.test_case "kill at boundary replays rejections" `Slow
      test_kill_at_boundary_replays_rejections;
    to_alcotest prop_serializable;
    to_alcotest prop_single_matches_server;
    Alcotest.test_case "trace bytes identical across domains" `Quick
      test_trace_bytes_identical_across_domains;
    Alcotest.test_case "dump-flight returns analyzer-ready rings" `Quick
      test_dump_flight_returns_rings;
    Alcotest.test_case "slo monitor state machine" `Quick
      test_slo_monitor_state_machine;
    Alcotest.test_case "slo budgets parse" `Quick test_budgets_of_json;
    Alcotest.test_case "violations_in counts bucket occupancy" `Quick
      test_violations_in_counts_bucket_occupancy;
  ]

(* Crash-injection harness for the write-ahead journal (deterministic).

   The session under test is what [harmony_cli serve --journal] runs: a
   one-shard service driven through [Service.handle_single].  The
   central property: kill it at EVERY record boundary of a reference
   run's journal, recover, resume the same deterministic client, and
   the final [done] reply and the log a clean recovery compacts the
   run into are byte-identical to the uninterrupted run's.  On top of
   that: live crashes through a fault-injecting sink (the process
   "dies" mid-write(2), torn bytes and all), crashes into the
   compaction windows, journaled admission rejections, and
   corrupt-input tests proving recovery never raises. *)

open Harmony
module Service = Harmony_service.Service
module Admission = Harmony_service.Admission
module Frame = Harmony_persist.Frame
module Persist = Harmony_persist.Persist
module Journal = Harmony_persist.Journal
module Gen = QCheck2.Gen

let seed = [| 0x5eed; 2004 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make seed) t

let paper_spec =
  "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {1 9-$B 1} }}"

(* Deterministic client: performance is a pure function of the
   assignment (peak at B=3, C=4), so any two runs that see the same
   assignments report the same measurements. *)
let respond assignment =
  let v name = float_of_int (List.assoc name assignment) in
  let db = v "B" -. 3.0 and dc = v "C" -. 4.0 in
  100.0 -. (db *. db) -. (dc *. dc)

(* A small budget keeps every boundary's resumed run cheap; the journal
   still spans a register and a dozen report/reply pairs. *)
let options = { Simplex.default_options with Simplex.max_evaluations = 12 }

(* Send one single-session message, re-offering it while the admission
   layer sheds it (only the shed-recovery test polices its edge). *)
let send service message =
  let rec go tries =
    match Service.handle_single service message with
    | Server.Rejected text when Admission.is_rejection_text text && tries > 0 ->
        go (tries - 1)
    | reply -> reply
  in
  go 50

let register service =
  send service
    (Server.Register { spec = paper_spec; direction = Server.Maximize })

let drive_to_done service first =
  let rec go reply steps =
    if steps > 200 then Alcotest.fail "run did not reach done"
    else
      match reply with
      | Server.Assign assignment ->
          go (send service (Server.Report (respond assignment))) (steps + 1)
      | Server.Done _ -> reply
      | Server.Rejected msg -> Alcotest.fail ("unexpected rejection: " ^ msg)
      | Server.Stats _ -> Alcotest.fail "unexpected stats reply"
  in
  go first 0

(* Resume after a recovery: ask the server where it stands.  A fresh
   (nothing-durable) session rejects the query and the client starts
   over, exactly like a real client reconnecting. *)
let resume service =
  match send service Server.Query with
  | Server.Rejected _ -> register service
  | Server.Assign _ as reply -> reply
  | Server.Done _ as reply -> reply
  | Server.Stats _ -> Alcotest.fail "unexpected stats reply"

(* The single session's files: the one shard's journal and snapshot. *)
let shard_path path = Service.shard_journal ~journal:path ~shard:0

let with_journal f =
  let path = Filename.temp_file "harmony_crash" ".journal" in
  Sys.remove path;
  let p = shard_path path in
  Fun.protect
    ~finally:(fun () ->
      List.iter Persist.remove_if_exists
        [ p; p ^ ".tmp"; p ^ ".snapshot"; p ^ ".snapshot.tmp" ])
    (fun () -> f path)

let journaled ?admission ?wrap ?(compact_every = 1_000_000) path =
  let service = Service.create ~options ?admission ~shards:1 () in
  Service.attach_journals ~compact_every
    ?wrap:(Option.map (fun w ~shard:_ -> w) wrap)
    service ~journal:path ();
  service

let recover ?compact_every path =
  Service.recover ~options ?compact_every ~shards:1 ~journal:path ()

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

(* The log a clean recovery compacts a run into: the snapshot header
   (the last seq) and every frame of the session's durable history. *)
let recovered_log path =
  let r = recover path in
  Service.detach_journals r.Service.service;
  Option.value ~default:"" (Persist.read_file (shard_path path ^ ".snapshot"))

(* Uninterrupted reference run, journaled without compaction so every
   record boundary is present in one file. *)
let reference () =
  with_journal (fun path ->
      let service = journaled path in
      let final = drive_to_done service (register service) in
      Service.detach_journals service;
      let bytes = Option.value ~default:"" (Persist.read_file (shard_path path)) in
      (Server.reply_to_string final, bytes, recovered_log path))

let check_run_matches ~msg ~done_ref ~log_ref (r : Service.recovery) path =
  let service = r.Service.service in
  let final = drive_to_done service (resume service) in
  Alcotest.(check string) (msg ^ ": done reply byte-identical") done_ref
    (Server.reply_to_string final);
  Service.detach_journals service;
  Alcotest.(check string) (msg ^ ": recovered log byte-identical") log_ref
    (recovered_log path)

(* ------------------------------------------------------------------ *)
(* Kill at every record boundary                                       *)

let test_kill_at_every_boundary () =
  let done_ref, bytes, log_ref = reference () in
  let scan = Frame.scan bytes in
  Alcotest.(check bool) "reference journal is clean" false scan.Frame.torn;
  Alcotest.(check bool) "enough boundaries to mean something" true
    (List.length scan.Frame.boundaries > 20);
  List.iter
    (fun cut ->
      with_journal (fun path ->
          write_file (shard_path path) (String.sub bytes 0 cut);
          let r = recover path in
          Alcotest.(check int)
            (Printf.sprintf "cut %d: clean prefix, nothing dropped" cut)
            0 r.Service.dropped;
          check_run_matches
            ~msg:(Printf.sprintf "kill at boundary %d" cut)
            ~done_ref ~log_ref r path))
    (0 :: scan.Frame.boundaries)

(* Killing mid-record (a torn write, not a clean boundary) must cost
   exactly the record being written. *)
let test_kill_mid_record () =
  let done_ref, bytes, log_ref = reference () in
  let scan = Frame.scan bytes in
  let torn_cuts =
    (* A few bytes past each boundary: inside the next record's header
       or payload. *)
    List.filter_map
      (fun b -> if b + 3 <= String.length bytes then Some (b + 3) else None)
      (0 :: scan.Frame.boundaries)
  in
  List.iter
    (fun cut ->
      with_journal (fun path ->
          write_file (shard_path path) (String.sub bytes 0 cut);
          check_run_matches
            ~msg:(Printf.sprintf "kill mid-record at byte %d" cut)
            ~done_ref ~log_ref (recover path) path))
    torn_cuts

(* ------------------------------------------------------------------ *)
(* Live crashes through the fault-injecting sink                       *)

let test_live_crash_and_recover () =
  let done_ref, bytes, log_ref = reference () in
  let total = String.length bytes in
  (* Crash the writer at a spread of byte budgets, compaction enabled
     (compact_every:4) so some crashes land inside the snapshot/reset
     windows too. *)
  let limits = List.init 12 (fun i -> 1 + (i * total / 12)) in
  List.iter
    (fun limit ->
      with_journal (fun path ->
          let service =
            journaled ~compact_every:4
              ~wrap:(Persist.fault_sink ~limit_bytes:limit)
              path
          in
          let crashed =
            match drive_to_done service (register service) with
            | exception Persist.Crashed -> true
            | Server.Assign _ | Server.Done _ | Server.Rejected _
            | Server.Stats _ ->
                false
          in
          if crashed then
            check_run_matches
              ~msg:(Printf.sprintf "live crash at %d bytes" limit)
              ~done_ref ~log_ref
              (recover ~compact_every:4 path)
              path))
    limits

(* ------------------------------------------------------------------ *)
(* Compaction windows                                                  *)

let session payload = Service.Client { client = "session"; payload }

(* Crash after the snapshot landed but before (or while) the journal
   was reset: the journal still holds records the snapshot already
   covers.  Sequence numbers make them recognizably stale — recovery
   must skip them, not double-apply the reports. *)
let test_stale_journal_behind_snapshot () =
  let done_ref, _, log_ref = reference () in
  with_journal (fun path ->
      let service = journaled ~compact_every:4 path in
      let _ = drive_to_done service (register service) in
      Service.detach_journals service;
      Alcotest.(check bool) "compaction produced a snapshot" true
        (Sys.file_exists (shard_path path ^ ".snapshot"));
      (* Re-create the crash window: put already-compacted records back
         in front of the journal's current contents. *)
      let journal_now =
        Option.value ~default:"" (Persist.read_file (shard_path path))
      in
      let stale =
        String.concat ""
          (List.map
             (fun (seq, payload) ->
               Frame.encode
                 (Service.Event.encode ~seq (Service.Event.Recv (session payload))))
             [ (1, Server.Query); (2, Server.Report 1.0) ])
      in
      write_file (shard_path path) (stale ^ journal_now);
      let r = recover path in
      Alcotest.(check bool) "stale records were dropped" true
        (r.Service.dropped >= 2);
      check_run_matches ~msg:"stale journal behind snapshot" ~done_ref ~log_ref
        r path)

(* A corrupt snapshot degrades to journal-only replay; if that leaves
   nothing usable, the client simply starts a fresh session — recovery
   itself never raises. *)
let test_corrupt_snapshot_degrades () =
  let done_ref, _, _ = reference () in
  with_journal (fun path ->
      let service = journaled ~compact_every:4 path in
      let _ = drive_to_done service (register service) in
      Service.detach_journals service;
      Persist.write_atomic
        ~path:(shard_path path ^ ".snapshot")
        [ "\x00garbage snapshot\xff" ];
      let r = recover path in
      let service = r.Service.service in
      let final = drive_to_done service (resume service) in
      Alcotest.(check string) "fresh run still reaches the same done" done_ref
        (Server.reply_to_string final);
      Service.detach_journals service)

(* ------------------------------------------------------------------ *)
(* Corrupt input never raises                                          *)

let test_recover_corrupt_inputs_never_raise () =
  let garbage =
    [
      "";
      "\x00";
      String.make 64 '\xff';
      "not a journal at all\n";
      Frame.encode "1 recv session query" ^ "torn";
      Frame.encode "junk payload";
      Frame.encode "1 recv query";
      Frame.encode "999999 recv session report 1";
    ]
  in
  List.iter
    (fun bytes ->
      with_journal (fun path ->
          write_file (shard_path path) bytes;
          (* Some of these also double as a corrupt snapshot. *)
          Persist.write_atomic ~path:(shard_path path ^ ".snapshot") [ bytes ];
          let r = recover path in
          let service = r.Service.service in
          let final = drive_to_done service (resume service) in
          (match final with
          | Server.Done _ -> ()
          | Server.Assign _ | Server.Rejected _ | Server.Stats _ ->
              Alcotest.fail "resumed run did not finish");
          Service.detach_journals service))
    garbage

(* ------------------------------------------------------------------ *)
(* Event codec properties                                              *)

let gen_message : Service.message Gen.t =
  let payload =
    Gen.(
      oneof
        [
          return Server.Query;
          return Server.Report_failed;
          return Server.Metrics;
          map
            (fun i -> Server.Report (float_of_int i /. 16.0))
            (int_range (-100_000) 100_000);
          map
            (fun (spec, minimize) ->
              Server.Register
                {
                  spec;
                  direction =
                    (if minimize then Server.Minimize else Server.Maximize);
                })
            (pair (string_size ~gen:printable (int_bound 40)) bool);
        ])
  in
  let client = Gen.oneofl [ "session"; "c7"; "alpha-1" ] in
  Gen.(
    oneof
      [
        map2 (fun client payload -> Service.Client { client; payload }) client
          payload;
        map (fun client -> Service.Deregister { client }) client;
      ])

(* [parse_message] trims its input, so a register spec with stray outer
   whitespace normalizes on the first decode; after that one pass the
   codec must be an exact involution.  Other messages round-trip
   exactly from the start. *)
let prop_event_roundtrip =
  QCheck2.Test.make ~name:"Event.encode/decode roundtrip" ~count:300
    Gen.(pair (int_range 1 1_000_000) gen_message)
    (fun (seq, message) ->
      let reencode m =
        Service.Event.decode (Service.Event.encode ~seq (Service.Event.Recv m))
      in
      match reencode message with
      | Some (seq1, Service.Event.Recv m1) -> (
          let exact_when_not_register =
            match message with
            | Service.Client { payload = Server.Register _; _ } -> true
            | Service.Client
                { payload = Server.Query | Server.Report _
                            | Server.Report_failed | Server.Metrics; _ }
            | Service.Deregister _ | Service.Service_metrics
            | Service.Dump_flight ->
                String.equal
                  (Service.message_to_string m1)
                  (Service.message_to_string message)
          in
          seq1 = seq
          && exact_when_not_register
          &&
          match reencode m1 with
          | Some (seq2, Service.Event.Recv m2) ->
              seq2 = seq
              && String.equal
                   (Service.message_to_string m2)
                   (Service.message_to_string m1)
          | Some (_, (Service.Event.Reply _ | Service.Event.Shed _)) | None ->
              false)
      | Some (_, (Service.Event.Reply _ | Service.Event.Shed _)) | None -> false)

let prop_event_decode_total =
  QCheck2.Test.make ~name:"Event.decode is total on arbitrary bytes" ~count:500
    Gen.(string_size ~gen:char (int_bound 80))
    (fun s ->
      match Service.Event.decode s with
      | Some (seq, Service.Event.Recv _)
      | Some (seq, Service.Event.Reply _)
      | Some (seq, Service.Event.Shed _) ->
          seq >= 1
      | None -> true)

(* Reports must survive the render/parse cycle bit-for-bit — replay
   determinism hangs on it. *)
let prop_report_float_roundtrip =
  QCheck2.Test.make ~name:"report floats round-trip exactly" ~count:300
    Gen.(float_bound_inclusive 1e9)
    (fun f ->
      match Server.parse_message (Server.message_to_string (Server.Report f)) with
      | Ok (Server.Report f') ->
          Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f')
      | Ok (Server.Register _ | Server.Query | Server.Report_failed
           | Server.Metrics)
      | Error _ ->
          false)

(* ------------------------------------------------------------------ *)
(* Journaled admission rejections (shed records)                       *)

let test_shed_event_codec () =
  let ev = Service.Event.Shed (session Server.Report_failed) in
  let encoded = Service.Event.encode ~seq:7 ev in
  Alcotest.(check string) "shed encoding" "7 shed session report failed"
    encoded;
  (match Service.Event.decode encoded with
  | Some
      ( 7,
        Service.Event.Shed
          (Service.Client { client = "session"; payload = Server.Report_failed })
      ) ->
      ()
  | _ -> Alcotest.fail "shed record did not round-trip");
  Alcotest.(check bool) "garbage shed payload rejected" true
    (Option.is_none (Service.Event.decode "3 shed ???"))

(* A mid-run shed must be durable, replay its recorded reply
   byte-for-byte (it is kept literally — the message was never
   applied), and leave the session's deterministic resume untouched.
   The bucket holds one token, refilled every third tick, so the report
   right after the register is shed twice before it is admitted. *)
let test_shed_recovery () =
  let done_ref, _, _ = reference () in
  let admission =
    { Admission.unlimited with Admission.rate = 1; burst = 1; refill_every = 3 }
  in
  with_journal (fun path ->
      let service = journaled ~admission path in
      let assignment =
        match register service with
        | Server.Assign a -> a
        | r -> Alcotest.fail ("register: " ^ Server.reply_to_string r)
      in
      let report = Server.Report (respond assignment) in
      let shed_reply =
        Server.reply_to_string (Service.handle_single service report)
      in
      Alcotest.(check string) "the report is shed"
        "error rate-limited: retry-after=2" shed_reply;
      (* Re-offered until admitted, then one more step: a crash here
         leaves a live session with two sheds in its history. *)
      (match send service report with
      | Server.Assign a -> ignore (send service (Server.Report (respond a)))
      | r -> Alcotest.fail ("admitted report: " ^ Server.reply_to_string r));
      Service.detach_journals service;
      let r = recover path in
      Alcotest.(check int) "nothing dropped" 0 r.Service.dropped;
      (* The post-recovery snapshot must carry the shed + literal
         reply records byte-for-byte. *)
      let snap = Journal.read (shard_path path ^ ".snapshot") in
      let has record = List.mem record snap.Frame.records in
      Alcotest.(check bool) "shed record survives recovery" true
        (has (Service.Event.encode ~seq:2 (Service.Event.Shed (session report))));
      Alcotest.(check bool) "literal reply survives recovery" true
        (has ("2 reply session " ^ shed_reply));
      let service = r.Service.service in
      let final = drive_to_done service (resume service) in
      Alcotest.(check string) "sheds leave the done reply unchanged" done_ref
        (Server.reply_to_string final);
      Service.detach_journals service)

let suite =
  [
    Alcotest.test_case "kill at every record boundary" `Quick
      test_kill_at_every_boundary;
    Alcotest.test_case "kill mid-record" `Quick test_kill_mid_record;
    Alcotest.test_case "live crash via fault sink" `Quick
      test_live_crash_and_recover;
    Alcotest.test_case "stale journal behind snapshot" `Quick
      test_stale_journal_behind_snapshot;
    Alcotest.test_case "corrupt snapshot degrades" `Quick
      test_corrupt_snapshot_degrades;
    Alcotest.test_case "corrupt inputs never raise" `Quick
      test_recover_corrupt_inputs_never_raise;
    Alcotest.test_case "shed event codec" `Quick test_shed_event_codec;
    Alcotest.test_case "journaled shed recovery" `Quick
      test_shed_recovery;
    to_alcotest prop_event_roundtrip;
    to_alcotest prop_event_decode_total;
    to_alcotest prop_report_float_roundtrip;
  ]

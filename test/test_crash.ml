(* Crash-injection harness for the write-ahead journal (deterministic).

   The central property: kill the server at EVERY record boundary of a
   reference run's journal, recover, resume the same deterministic
   client, and the final [done] reply and the experience-database entry
   derived from the journal are byte-identical to the uninterrupted
   run's.  On top of that: live crashes through a fault-injecting sink
   (the process "dies" mid-write(2), torn bytes and all), crashes into
   the compaction windows, and corrupt-input tests proving recovery
   never raises. *)

open Harmony
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

let register server =
  Server.handle server
    (Server.Register { spec = paper_spec; direction = Server.Maximize })

let drive_to_done server first =
  let rec go reply steps =
    if steps > 200 then Alcotest.fail "run did not reach done"
    else
      match reply with
      | Server.Assign assignment ->
          go (Server.handle server (Server.Report (respond assignment))) (steps + 1)
      | Server.Done _ -> reply
      | Server.Rejected msg -> Alcotest.fail ("unexpected rejection: " ^ msg)
      | Server.Stats _ -> Alcotest.fail "unexpected stats reply"
  in
  go first 0

(* Resume after a recovery: ask the server where it stands.  A fresh
   (nothing-durable) server rejects the query and the client starts
   over, exactly like a real client reconnecting. *)
let resume server =
  match Server.handle server Server.Query with
  | Server.Rejected _ -> register server
  | Server.Assign _ as reply -> reply
  | Server.Done _ as reply -> reply
  | Server.Stats _ -> Alcotest.fail "unexpected stats reply"

let with_journal f =
  let path = Filename.temp_file "harmony_crash" ".journal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      Persist.remove_if_exists path;
      Persist.remove_if_exists (path ^ ".tmp");
      Persist.remove_if_exists (path ^ ".snapshot");
      Persist.remove_if_exists (path ^ ".snapshot.tmp"))
    (fun () -> f path)

(* The experience-database entry a run's journal produces, as the exact
   bytes History would persist. *)
let db_bytes evaluations =
  let db = History.create () in
  ignore
    (History.add db ~label:"crash-test" ~characteristics:[| 1.0 |]
       ~evaluations:
         (List.map
            (fun (assignment, perf) ->
              ( Array.of_list
                  (List.map (fun (_, v) -> float_of_int v) assignment),
                perf ))
            evaluations)
       ());
  with_journal (fun path ->
      History.save db path;
      Option.value ~default:"" (Persist.read_file path))

(* Uninterrupted reference run, journaled without compaction so every
   record boundary is present in one file. *)
let reference () =
  with_journal (fun path ->
      let server = Server.create ~options () in
      Server.attach_journal ~compact_every:1_000_000 server ~journal:path ();
      let final = drive_to_done server (register server) in
      Server.detach_journal server;
      let bytes = Option.value ~default:"" (Persist.read_file path) in
      (Server.reply_to_string final, bytes, Server.journal_evaluations path))

let check_run_matches ~msg ~done_ref ~evals_ref recovery path =
  let final = drive_to_done recovery.Server.server (resume recovery.Server.server) in
  Alcotest.(check string) (msg ^ ": done reply byte-identical") done_ref
    (Server.reply_to_string final);
  Server.detach_journal recovery.Server.server;
  let evals = Server.journal_evaluations path in
  Alcotest.(check string) (msg ^ ": experience entry byte-identical")
    (db_bytes evals_ref) (db_bytes evals)

(* ------------------------------------------------------------------ *)
(* Kill at every record boundary                                       *)

let test_kill_at_every_boundary () =
  let done_ref, bytes, evals_ref = reference () in
  let scan = Frame.scan bytes in
  Alcotest.(check bool) "reference journal is clean" false scan.Frame.torn;
  Alcotest.(check bool) "enough boundaries to mean something" true
    (List.length scan.Frame.boundaries > 20);
  List.iter
    (fun cut ->
      with_journal (fun path ->
          let oc = open_out_bin path in
          output_string oc (String.sub bytes 0 cut);
          close_out oc;
          let r = Server.recover ~options ~journal:path () in
          Alcotest.(check int)
            (Printf.sprintf "cut %d: clean prefix, nothing dropped" cut)
            0 r.Server.dropped;
          check_run_matches
            ~msg:(Printf.sprintf "kill at boundary %d" cut)
            ~done_ref ~evals_ref r path))
    (0 :: scan.Frame.boundaries)

(* Killing mid-record (a torn write, not a clean boundary) must cost
   exactly the record being written. *)
let test_kill_mid_record () =
  let done_ref, bytes, evals_ref = reference () in
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
          let oc = open_out_bin path in
          output_string oc (String.sub bytes 0 cut);
          close_out oc;
          let r = Server.recover ~options ~journal:path () in
          check_run_matches
            ~msg:(Printf.sprintf "kill mid-record at byte %d" cut)
            ~done_ref ~evals_ref r path))
    torn_cuts

(* ------------------------------------------------------------------ *)
(* Live crashes through the fault-injecting sink                       *)

let test_live_crash_and_recover () =
  let done_ref, bytes, evals_ref = reference () in
  let total = String.length bytes in
  (* Crash the writer at a spread of byte budgets, compaction enabled
     (compact_every:4) so some crashes land inside the snapshot/reset
     windows too. *)
  let limits = List.init 12 (fun i -> 1 + (i * total / 12)) in
  List.iter
    (fun limit ->
      with_journal (fun path ->
          let server = Server.create ~options () in
          Server.attach_journal ~compact_every:4
            ~wrap:(Persist.fault_sink ~limit_bytes:limit)
            server ~journal:path ();
          let crashed =
            match drive_to_done server (register server) with
            | exception Persist.Crashed -> true
            | Server.Assign _ | Server.Done _ | Server.Rejected _
            | Server.Stats _ ->
                false
          in
          if crashed then begin
            let r = Server.recover ~options ~compact_every:4 ~journal:path () in
            check_run_matches
              ~msg:(Printf.sprintf "live crash at %d bytes" limit)
              ~done_ref ~evals_ref r path
          end))
    limits

(* ------------------------------------------------------------------ *)
(* Compaction windows                                                  *)

(* Crash after the snapshot landed but before (or while) the journal
   was reset: the journal still holds records the snapshot already
   covers.  Sequence numbers make them recognizably stale — recovery
   must skip them, not double-apply the reports. *)
let test_stale_journal_behind_snapshot () =
  let done_ref, _, evals_ref = reference () in
  with_journal (fun path ->
      let server = Server.create ~options () in
      Server.attach_journal ~compact_every:4 server ~journal:path ();
      let _ = drive_to_done server (register server) in
      Server.detach_journal server;
      Alcotest.(check bool) "compaction produced a snapshot" true
        (Sys.file_exists (path ^ ".snapshot"));
      (* Re-create the crash window: put already-compacted records back
         in front of the journal's current contents. *)
      let journal_now = Option.value ~default:"" (Persist.read_file path) in
      let stale =
        String.concat ""
          [
            Frame.encode (Server.Event.encode ~seq:1 (Server.Event.Recv Server.Query));
            Frame.encode (Server.Event.encode ~seq:2 (Server.Event.Recv (Server.Report 1.0)));
          ]
      in
      let oc = open_out_bin path in
      output_string oc (stale ^ journal_now);
      close_out oc;
      let r = Server.recover ~options ~journal:path () in
      Alcotest.(check bool) "stale records were dropped" true (r.Server.dropped >= 2);
      check_run_matches ~msg:"stale journal behind snapshot" ~done_ref
        ~evals_ref r path)

(* A corrupt snapshot degrades to journal-only replay; if that leaves
   nothing usable, the client simply starts a fresh session — recovery
   itself never raises. *)
let test_corrupt_snapshot_degrades () =
  let done_ref, _, _ = reference () in
  with_journal (fun path ->
      let server = Server.create ~options () in
      Server.attach_journal ~compact_every:4 server ~journal:path ();
      let _ = drive_to_done server (register server) in
      Server.detach_journal server;
      Persist.write_atomic ~path:(path ^ ".snapshot") [ "\x00garbage snapshot\xff" ];
      let r = Server.recover ~options ~journal:path () in
      let final = drive_to_done r.Server.server (resume r.Server.server) in
      Alcotest.(check string) "fresh run still reaches the same done" done_ref
        (Server.reply_to_string final);
      Server.detach_journal r.Server.server)

(* ------------------------------------------------------------------ *)
(* Corrupt input never raises                                          *)

let test_recover_corrupt_inputs_never_raise () =
  let garbage =
    [
      "";
      "\x00";
      String.make 64 '\xff';
      "not a journal at all\n";
      Frame.encode "1 recv query" ^ "torn";
      Frame.encode "junk payload";
      Frame.encode "999999 recv report 1";
    ]
  in
  List.iter
    (fun bytes ->
      with_journal (fun path ->
          let oc = open_out_bin path in
          output_string oc bytes;
          close_out oc;
          (* Some of these also double as a corrupt snapshot. *)
          Persist.write_atomic ~path:(path ^ ".snapshot") [ bytes ];
          let r = Server.recover ~options ~journal:path () in
          let final = drive_to_done r.Server.server (resume r.Server.server) in
          (match final with
          | Server.Done _ -> ()
          | Server.Assign _ | Server.Rejected _ | Server.Stats _ ->
              Alcotest.fail "resumed run did not finish");
          Server.detach_journal r.Server.server))
    garbage

let test_journal_evaluations_corrupt_is_total () =
  with_journal (fun path ->
      let oc = open_out_bin path in
      output_string oc (String.make 33 '\xde');
      close_out oc;
      Alcotest.(check int) "garbage journal: no evaluations" 0
        (List.length (Server.journal_evaluations path)));
  Alcotest.(check int) "missing journal: no evaluations" 0
    (List.length (Server.journal_evaluations "/nonexistent/harmony/journal"))

(* ------------------------------------------------------------------ *)
(* Event codec properties                                              *)

let gen_message : Server.message Gen.t =
  Gen.(
    oneof
      [
        return Server.Query;
        return Server.Report_failed;
        map
          (fun i -> Server.Report (float_of_int i /. 16.0))
          (int_range (-100_000) 100_000);
        map
          (fun (spec, minimize) ->
            Server.Register
              {
                spec;
                direction = (if minimize then Server.Minimize else Server.Maximize);
              })
          (pair (string_size ~gen:printable (int_bound 40)) bool);
      ])

(* [parse_message] trims its input, so a register spec with stray outer
   whitespace normalizes on the first decode; after that one pass the
   codec must be an exact involution.  Non-register messages round-trip
   exactly from the start. *)
let prop_event_roundtrip =
  QCheck2.Test.make ~name:"Event.encode/decode roundtrip" ~count:300
    Gen.(pair (int_range 1 1_000_000) gen_message)
    (fun (seq, message) ->
      let reencode m =
        Server.Event.decode (Server.Event.encode ~seq (Server.Event.Recv m))
      in
      match reencode message with
      | Some (seq1, Server.Event.Recv m1) -> (
          let exact_when_not_register =
            match message with
            | Server.Register _ -> true
            | Server.Query | Server.Report _ | Server.Report_failed
            | Server.Metrics ->
                String.equal
                  (Server.message_to_string m1)
                  (Server.message_to_string message)
          in
          seq1 = seq
          && exact_when_not_register
          &&
          match reencode m1 with
          | Some (seq2, Server.Event.Recv m2) ->
              seq2 = seq
              && String.equal
                   (Server.message_to_string m2)
                   (Server.message_to_string m1)
          | Some (_, (Server.Event.Reply _ | Server.Event.Shed _)) | None ->
              false)
      | Some (_, (Server.Event.Reply _ | Server.Event.Shed _)) | None -> false)

let prop_event_decode_total =
  QCheck2.Test.make ~name:"Event.decode is total on arbitrary bytes" ~count:500
    Gen.(string_size ~gen:char (int_bound 80))
    (fun s ->
      match Server.Event.decode s with
      | Some (seq, Server.Event.Recv _)
      | Some (seq, Server.Event.Reply _)
      | Some (seq, Server.Event.Shed _) ->
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
  let ev = Server.Event.Shed Server.Report_failed in
  let encoded = Server.Event.encode ~seq:7 ev in
  Alcotest.(check string) "shed encoding" "7 shed report failed" encoded;
  (match Server.Event.decode encoded with
  | Some (7, Server.Event.Shed Server.Report_failed) -> ()
  | _ -> Alcotest.fail "shed record did not round-trip");
  Alcotest.(check bool) "garbage shed payload rejected" true
    (Option.is_none (Server.Event.decode "3 shed ???"))

(* A mid-run shed must be durable, replay its recorded reply
   byte-for-byte (it is kept literally — the message was never
   applied), contribute nothing to the evaluation trace, and leave the
   session's deterministic resume untouched. *)
let test_journal_shed_recovery () =
  let shed_reply = "error overloaded: retry-after=2 degraded" in
  with_journal (fun path ->
      let server = Server.create ~options () in
      Server.attach_journal ~compact_every:1_000_000 server ~journal:path ();
      let reply = register server in
      (* A few real reports, then a shed one, then more real ones. *)
      let reply =
        match reply with
        | Server.Assign a -> Server.handle server (Server.Report (respond a))
        | r -> r
      in
      Server.journal_shed server (Server.Report 999.0) ~reply:shed_reply;
      (match reply with
      | Server.Assign a ->
          ignore (Server.handle server (Server.Report (respond a)))
      | _ -> ());
      Server.detach_journal server;
      let evals_before = Server.journal_evaluations path in
      Alcotest.(check bool) "shed report is not an evaluation" true
        (not (List.exists (fun (_, p) -> p = 999.0) evals_before));
      let r = Server.recover ~options ~journal:path () in
      Alcotest.(check int) "nothing dropped" 0 r.Server.dropped;
      Server.detach_journal r.Server.server;
      (* The post-recovery snapshot must carry the shed + literal
         reply records byte-for-byte. *)
      let snap = Journal.read (path ^ ".snapshot") in
      let has record = List.mem record snap.Frame.records in
      Alcotest.(check bool) "shed record survives recovery" true
        (has "3 shed report 999");
      Alcotest.(check bool) "literal reply survives recovery" true
        (has ("3 reply " ^ shed_reply));
      (* And the trace is still shed-free after replay. *)
      let evals_after = Server.journal_evaluations path in
      Alcotest.(check int) "evaluations unchanged by shed"
        (List.length evals_before) (List.length evals_after))

let test_journal_shed_rejects_unjournaled () =
  with_journal (fun path ->
      let server = Server.create ~options () in
      Server.attach_journal server ~journal:path ();
      (match
         Server.journal_shed server Server.Query ~reply:"error shed"
       with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "journal_shed accepted a Query");
      Server.detach_journal server)

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
    Alcotest.test_case "journal_evaluations total" `Quick
      test_journal_evaluations_corrupt_is_total;
    Alcotest.test_case "shed event codec" `Quick test_shed_event_codec;
    Alcotest.test_case "journaled shed recovery" `Quick
      test_journal_shed_recovery;
    Alcotest.test_case "journal_shed rejects unjournaled" `Quick
      test_journal_shed_rejects_unjournaled;
    to_alcotest prop_event_roundtrip;
    to_alcotest prop_event_decode_total;
    to_alcotest prop_report_float_roundtrip;
  ]

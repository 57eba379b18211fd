(* Group commit: a journaled shard writes each call's share as one group
   (its sheds' pairs and every recv in one write and one fsync, then
   every reply in a second), and recovery pairs replies with recvs
   first in, first out.

   - Crash windows of grouped journals: a run of multi-message batches
     over two shards, with sheds, killed at every record boundary and
     mid-record of each shard's journal.  Recovery must reach a
     consistent prefix, and each client must then continue exactly as
     a dedicated single-session server fed the client's durable
     messages.
   - The same script journaled one message per call and in batches
     recovers the same live set and answers the same (QCheck).
   - A journaled group cancelled before it starts writes no record.
   - A reply record that is not the FIFO head's drops the rest. *)

open Harmony
module Service = Harmony_service.Service
module Admission = Harmony_service.Admission
module Frame = Harmony_persist.Frame
module Persist = Harmony_persist.Persist
module Pool = Harmony_parallel.Pool
module Gen = QCheck2.Gen

let seed = [| 0x5eed; 2222 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make seed) t

let spec =
  "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {1 9-$B 1} }}"

let options = { Simplex.default_options with Simplex.max_evaluations = 5 }
let shards = 2

(* Two clients per shard at two shards. *)
let fleet = [ "alpha"; "bravo"; "echo"; "india" ]

let remove_log path =
  List.iter Persist.remove_if_exists
    [ path; path ^ ".tmp"; path ^ ".snapshot"; path ^ ".snapshot.tmp" ]

let with_journal f =
  let path = Filename.temp_file "harmony_group" ".journal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      remove_log path;
      for s = 0 to shards - 1 do
        remove_log (Service.shard_journal ~journal:path ~shard:s)
      done)
    (fun () -> f path)

let shard_file journal s = Service.shard_journal ~journal ~shard:s

let read_shard journal s =
  Option.value ~default:"" (Persist.read_file (shard_file journal s))

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let register c =
  Service.Client
    { client = c; payload = Server.Register { spec; direction = Server.Maximize } }

let report c v = Service.Client { client = c; payload = Server.Report v }
let query c = Service.Client { client = c; payload = Server.Query }

(* Peak at B=3, C=4: a pure function of the assignment. *)
let respond assignment =
  let v name = float_of_int (List.assoc name assignment) in
  100.0 -. ((v "B" -. 3.0) ** 2.0) -. ((v "C" -. 4.0) ** 2.0)

let is_shed = function
  | Service.Client_reply { reply = Server.Rejected text; _ } ->
      Admission.is_rejection_text text
  | Service.Client_reply
      { reply = Server.Assign _ | Server.Done _ | Server.Stats _; _ }
  | Service.Deregistered _ | Service.Service_stats _ | Service.Flight_dump _
  | Service.Service_error _ ->
      false

let journaled = function
  | Service.Client
      { payload = Server.Register _ | Server.Report _ | Server.Report_failed; _ }
  | Service.Deregister _ ->
      true
  | Service.Client { payload = Server.Query | Server.Metrics; _ }
  | Service.Service_metrics | Service.Dump_flight ->
      false

(* ------------------------------------------------------------------ *)
(* A client alone against a dedicated server                           *)

(* What the service answers one client whose session runs on its own
   [Server]: a deregister drops the session, and a client without one
   is unknown until it registers. *)
type dedicated = { id : string; mutable server : Server.t option }

let dedicated id = { id; server = None }

let unknown id = "unknown client " ^ id ^ ": register first"

let dedicated_reply d message =
  match message with
  | Service.Deregister _ -> (
      match d.server with
      | Some _ ->
          d.server <- None;
          d.id ^ " bye"
      | None -> "error " ^ unknown d.id)
  | Service.Client { payload; _ } ->
      let reply =
        match (d.server, payload) with
        | Some s, _ -> Server.handle s payload
        | None, Server.Register _ ->
            let s = Server.create ~options ~reject_reregister:true () in
            let r = Server.handle s payload in
            (match r with
            | Server.Rejected _ -> ()
            | Server.Assign _ | Server.Done _ | Server.Stats _ ->
                d.server <- Some s);
            r
        | None, (Server.Query | Server.Report _ | Server.Report_failed
                | Server.Metrics) ->
            Server.Rejected (unknown d.id)
      in
      d.id ^ " " ^ Server.reply_to_string reply
  | Service.Service_metrics | Service.Dump_flight -> "error probe"

(* ------------------------------------------------------------------ *)
(* Crash windows of grouped journals                                   *)

(* Each client tunes two sessions (register, a report per assignment,
   a query every fifth round, deregister after [done]); client [i]
   starts in round [2i + 1], so the clients of a shard retire their
   histories at different times.  Every call carries each live client's
   next message, so a shard's group holds up to two messages; the rate
   limit sheds about every other one, and a shed message is re-sent
   next round. *)
let rate_limited =
  { Admission.unlimited with Admission.rate = 1; burst = 1; refill_every = 2 }

type phase =
  | Joining of int
  | Tuning of int * (string * int) list
  | Leaving of int
  | Gone

let recovered_log journal s =
  Option.value ~default:""
    (Persist.read_file (shard_file journal s ^ ".snapshot"))

(* The grouped run, stopped after [rounds] calls or when every client
   is done: the sheds, each client's accepted messages, oldest first,
   each shard's journal bytes (without compaction every boundary is in
   one file), and the log a recovery from the files compacts each shard
   into. *)
let grouped_run ?(rounds = max_int) ~compact_every () =
  with_journal (fun journal ->
      let service =
        Service.create ~options ~admission:rate_limited ~shards ()
      in
      Service.attach_journals ~compact_every service ~journal ();
      let phases = Hashtbl.create 8 and sent = Hashtbl.create 8 in
      List.iter
        (fun c ->
          Hashtbl.replace phases c (Joining 0);
          Hashtbl.replace sent c [])
        fleet;
      let sheds = ref 0 and round = ref 0 in
      let active c =
        match Hashtbl.find phases c with
        | Gone -> false
        | Joining _ | Tuning _ | Leaving _ -> true
      in
      let live () =
        List.filteri (fun i c -> 2 * i < !round && active c) fleet
      in
      while List.exists active fleet && !round < rounds do
        incr round;
        if !round > 400 then Alcotest.fail "reference run did not finish";
        let batch =
          List.map
            (fun c ->
              ( c,
                match Hashtbl.find phases c with
                | Joining _ -> register c
                | Tuning (_, _) when !round mod 5 = 0 -> query c
                | Tuning (_, a) -> report c (respond a)
                | Leaving _ | Gone -> Service.Deregister { client = c } ))
            (live ())
        in
        let replies = Service.handle_batch service (List.map snd batch) in
        List.iter2
          (fun (c, m) r ->
            if is_shed r then incr sheds
            else begin
              Hashtbl.replace sent c (m :: Hashtbl.find sent c);
              Hashtbl.replace phases c
                (match (Hashtbl.find phases c, r) with
                | ( (Joining n | Tuning (n, _)),
                    Service.Client_reply { reply = Server.Assign a; _ } ) ->
                    Tuning (n, a)
                | Tuning (n, _), Service.Client_reply { reply = Server.Done _; _ }
                  ->
                    Leaving n
                | Leaving n, Service.Deregistered _ ->
                    if n + 1 < 2 then Joining (n + 1) else Gone
                | _, r ->
                    Alcotest.fail
                      (c ^ ": unexpected " ^ Service.reply_to_string r))
            end)
          batch replies
      done;
      Service.detach_journals service;
      let bytes = Array.init shards (read_shard journal) in
      let r = Service.recover ~options ~compact_every ~shards ~journal () in
      Service.detach_journals r.Service.service;
      ( !sheds,
        List.map (fun c -> (c, List.rev (Hashtbl.find sent c))) fleet,
        bytes,
        List.init shards (recovered_log journal) ))

(* What every client sends after a recovery. *)
let continuation c =
  [ query c; report c 40.0;
    Service.Client { client = c; payload = Server.Report_failed };
    register c; report c 60.0; Service.Deregister { client = c };
    report c 1.0; register c; report c 9.0; query c ]

(* The client's durable messages: the journaled ones whose recv is in
   the surviving prefix of its shard's journal. *)
let durable_recvs records c =
  List.length
    (List.filter
       (fun r ->
         match Service.Event.decode r with
         | Some (_, Service.Event.Recv m) -> (
             match m with
             | Service.Client { client; _ } | Service.Deregister { client } ->
                 String.equal client c
             | Service.Service_metrics | Service.Dump_flight -> false)
         | Some (_, (Service.Event.Reply _ | Service.Event.Shed _)) | None ->
             false)
       records)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ :: _ | [] -> []

let test_grouped_crash_windows () =
  let sheds, sent, bytes, _ = grouped_run ~compact_every:1_000_000 () in
  Alcotest.(check bool) "the reference run shed work" true (sheds > 0);
  Array.iteri
    (fun victim full ->
      let scan = Frame.scan full in
      Alcotest.(check bool) "reference journal is clean" false scan.Frame.torn;
      let records = scan.Frame.records in
      let has tag =
        List.exists
          (fun r ->
            match (Service.Event.decode r, tag) with
            | Some (_, Service.Event.Shed _), `Shed -> true
            | Some (_, Service.Event.Recv _), `Recv -> true
            | _ -> false)
          records
      in
      Alcotest.(check bool) "the journal holds sheds and recvs" true
        (has `Shed && has `Recv);
      (* Grouping shows in the journal: some recv is followed by
         another recv, not by its reply. *)
      let rec grouped = function
        | a :: (b :: _ as rest) -> (
            match (Service.Event.decode a, Service.Event.decode b) with
            | Some (_, Service.Event.Recv _), Some (_, Service.Event.Recv _) -> true
            | _ -> grouped rest)
        | [ _ ] | [] -> false
      in
      Alcotest.(check bool) "recvs of one group sit together" true
        (grouped records);
      let boundaries = 0 :: scan.Frame.boundaries in
      let torn =
        List.filter_map
          (fun b -> if b + 3 < String.length full then Some (b + 3) else None)
          boundaries
      in
      List.iter
        (fun cut ->
          with_journal (fun journal ->
              Array.iteri
                (fun s full ->
                  write_file (shard_file journal s)
                    (if s = victim then String.sub full 0 cut else full))
                bytes;
              let r = Service.recover ~options ~shards ~journal () in
              let msg = Printf.sprintf "shard %d cut at byte %d" victim cut in
              Alcotest.(check int) (msg ^ ": nothing dropped") 0 r.Service.dropped;
              (* A consistent prefix: every recv and shed that survived
                 the cut is replayed, none after it. *)
              let prefix = (Frame.scan (String.sub full 0 cut)).Frame.records in
              let applied =
                List.length
                  (List.filter
                     (fun r ->
                       match Service.Event.decode r with
                       | Some (_, (Service.Event.Recv _ | Service.Event.Shed _))
                         ->
                           true
                       | Some (_, Service.Event.Reply _) | None -> false)
                     prefix)
              in
              List.iter
                (fun (pr : Service.shard_recovery) ->
                  if pr.Service.shard = victim then
                    Alcotest.(check int) (msg ^ ": the prefix replayed")
                      applied pr.Service.replayed)
                r.Service.per_shard;
              (* Every later reply matches a dedicated server fed the
                 client's durable messages. *)
              let alone =
                List.map
                  (fun (c, messages) ->
                    let s = Service.shard_for ~shards c in
                    let surviving =
                      if s = victim then prefix
                      else (Frame.scan bytes.(s)).Frame.records
                    in
                    let d = dedicated c in
                    List.iter
                      (fun m -> ignore (dedicated_reply d m : string))
                      (take (durable_recvs surviving c)
                         (List.filter journaled messages));
                    (c, d))
                  sent
              in
              let steps = List.length (continuation "x") in
              for k = 0 to steps - 1 do
                let batch =
                  List.map (fun c -> List.nth (continuation c) k) fleet
                in
                List.iter2
                  (fun (c, m) reply ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s: %s step %d" msg c k)
                      (dedicated_reply (List.assoc c alone) m)
                      (Service.reply_to_string reply))
                  (List.combine fleet batch)
                  (Service.handle_batch r.Service.service batch)
              done;
              Service.detach_journals r.Service.service))
        (List.sort_uniq compare (boundaries @ torn)))
    bytes

(* Compaction keeps the frames a group kept, under their owners, so
   when the log compacts cannot change what it recovers: the grouped
   run, sheds and deregisters included, stopped at several points with
   sessions live, recovers to the same log at every [compact_every]. *)
let test_compaction_keeps_grouped_live_set () =
  List.iter
    (fun rounds ->
      let _, _, _, uncompacted =
        grouped_run ~rounds ~compact_every:1_000_000 ()
      in
      List.iter
        (fun compact_every ->
          let _, _, _, logs = grouped_run ~rounds ~compact_every () in
          Alcotest.(check (list string))
            (Printf.sprintf "%d rounds, compact_every %d: the same recovered log"
               rounds compact_every)
            uncompacted logs)
        [ 1; 2; 3; 4; 8 ])
    [ 6; 12; 18; 24; 30; 36 ]

(* ------------------------------------------------------------------ *)
(* One message per call and batched recover alike (QCheck)             *)

type step = Register | Report of int | Report_failed | Query | Deregister

let message c = function
  | Register -> register c
  | Report v -> report c (float_of_int v)
  | Report_failed -> Service.Client { client = c; payload = Server.Report_failed }
  | Query -> query c
  | Deregister -> Service.Deregister { client = c }

let gen_step =
  Gen.frequency
    [
      (2, Gen.return Register);
      (9, Gen.map (fun v -> Report v) (Gen.int_range 0 100));
      (1, Gen.return Report_failed);
      (1, Gen.return Query);
      (1, Gen.return Deregister);
    ]

let gen_script =
  Gen.(
    triple
      (list_size (int_range 8 48) (pair (int_bound 3) gen_step))
      (list_size (int_range 1 6) (int_range 1 9))
      (int_range 1 8))

let print_script (steps, sizes, compact_every) =
  Printf.sprintf "compact_every=%d sizes=[%s] steps=[%s]" compact_every
    (String.concat ";" (List.map string_of_int sizes))
    (String.concat "; "
       (List.map
          (fun (c, st) ->
            Service.message_to_string (message (List.nth fleet c) st))
          steps))

(* Split [xs] into consecutive batches, cycling through [sizes]. *)
let batches sizes xs =
  let rec go acc cur left sizes_left xs =
    match (xs, sizes_left) with
    | [], _ -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | _, [] -> go acc cur left sizes xs
    | x :: rest, n :: more ->
        if left + 1 >= n then go (List.rev (x :: cur) :: acc) [] 0 more rest
        else go acc (x :: cur) (left + 1) sizes_left rest
  in
  go [] [] 0 sizes xs

(* A snapshot pairs each recv with its reply: the record after a recv
   is the reply under the same seq. *)
let interleaved snapshot =
  let events =
    List.filter_map Service.Event.decode
      (match (Frame.scan snapshot).Frame.records with
      | _header :: records -> records
      | [] -> [])
  in
  let rec go = function
    | (s, Service.Event.Recv _) :: (s', Service.Event.Reply _) :: rest ->
        s = s' && go rest
    | (_, Service.Event.Recv _) :: _ -> false
    | (_, (Service.Event.Reply _ | Service.Event.Shed _)) :: rest -> go rest
    | [] -> true
  in
  go events

(* Checks every snapshot a live compaction writes, at its journal
   reset. *)
let snapshots_interleaved ~journal ok ~shard (sink : Persist.sink) =
  let reset () =
    sink.Persist.reset ();
    match Persist.read_file (shard_file journal shard ^ ".snapshot") with
    | Some snapshot -> if not (interleaved snapshot) then ok := false
    | None -> ()
  in
  { sink with Persist.reset }

let prop_batched_recovers_alike =
  QCheck2.Test.make
    ~name:"one-message and batched journals recover the same live set"
    ~count:60 ~print:print_script gen_script
    (fun (steps, sizes, compact_every) ->
      let messages =
        List.map (fun (c, st) -> message (List.nth fleet c) st) steps
      in
      let run handle =
        with_journal (fun journal ->
            let service = Service.create ~options ~shards () in
            let ok = ref true in
            Service.attach_journals ~compact_every
              ~wrap:(snapshots_interleaved ~journal ok)
              service ~journal ();
            let replies = handle service in
            Service.detach_journals service;
            Alcotest.(check bool) "live snapshots pair each recv with its reply"
              true !ok;
            let r = Service.recover ~options ~compact_every ~shards ~journal () in
            let logs = List.init shards (recovered_log journal) in
            let later =
              List.concat_map
                (fun c ->
                  List.map
                    (fun m ->
                      Service.reply_to_string (Service.handle r.Service.service m))
                    (continuation c))
                fleet
            in
            Service.detach_journals r.Service.service;
            (List.map Service.reply_to_string replies, logs, later))
      in
      let single =
        run (fun service -> List.map (Service.handle service) messages)
      in
      let batched =
        run (fun service ->
            List.concat_map (Service.handle_batch service) (batches sizes messages))
      in
      let replies_a, logs_a, later_a = single
      and replies_b, logs_b, later_b = batched in
      Alcotest.(check (list string)) "the same replies" replies_a replies_b;
      Alcotest.(check (list string)) "the same recovered live set" logs_a logs_b;
      Alcotest.(check (list string)) "the same replies after recovery" later_a
        later_b;
      true)

(* ------------------------------------------------------------------ *)
(* The on-disk order of a group                                        *)

(* One shard, one call: alpha's second register is shed by its bucket.
   The first write holds the shed pair (seq 1, numbered before the
   recvs) and both recvs; the second holds both replies.  One fsync
   each. *)
let test_group_record_order () =
  let one_token =
    { Admission.unlimited with Admission.rate = 1; burst = 1; refill_every = 1000 }
  in
  with_journal (fun journal ->
      let service = Service.create ~options ~admission:one_token ~shards:1 () in
      let writes = ref [] and syncs = ref 0 in
      Service.attach_journals
        ~wrap:(fun ~shard:_ (sink : Persist.sink) ->
          {
            sink with
            Persist.write =
              (fun bytes ->
                writes := List.length (Frame.scan bytes).Frame.records :: !writes;
                sink.Persist.write bytes);
            sync =
              (fun () ->
                incr syncs;
                sink.Persist.sync ());
          })
        service ~journal ();
      let replies =
        List.map Service.reply_to_string
          (Service.handle_batch service
             [ register "alpha"; register "alpha"; register "bravo" ])
      in
      Service.detach_journals service;
      let shed_text = List.nth replies 1 in
      let msg c = Service.message_to_string (register c) in
      Alcotest.(check (list string)) "sheds, recvs, then replies"
        [ "1 shed " ^ msg "alpha"; "1 reply " ^ shed_text;
          "2 recv " ^ msg "alpha"; "3 recv " ^ msg "bravo";
          "2 reply " ^ List.nth replies 0; "3 reply " ^ List.nth replies 2 ]
        (Frame.scan (read_shard journal 0)).Frame.records;
      Alcotest.(check (list int)) "two writes: four records, then two" [ 4; 2 ]
        (List.rev !writes);
      Alcotest.(check int) "one fsync per write" 2 !syncs)

(* ------------------------------------------------------------------ *)
(* Cancellation at the group boundary                                  *)

(* alpha's second register is shed by its bucket, so alpha's shard has
   a shed pair and a recv to write; the token fires before the batch,
   and neither shard writes a record. *)
let test_cancelled_group_writes_nothing () =
  let one_token =
    { Admission.unlimited with Admission.rate = 1; burst = 1; refill_every = 1000 }
  in
  let batch = [ register "alpha"; register "alpha"; register "bravo" ] in
  let check_run ?pool () =
    with_journal (fun journal ->
        let service =
          Service.create ~options ~admission:one_token ~shards ()
        in
        Service.attach_journals service ~journal ();
        let cancel = Pool.Cancel.create () in
        Pool.Cancel.cancel cancel;
        (match Service.handle_batch ?pool ~cancel service batch with
        | [ Service.Client_reply { reply = Server.Rejected first; _ };
            Service.Client_reply { reply = Server.Rejected shed; _ };
            Service.Client_reply { reply = Server.Rejected third; _ } ] ->
            Alcotest.(check string) "alpha's admitted register is cancelled"
              "cancelled: retry-after=0" first;
            Alcotest.(check bool) "alpha's second register is shed" true
              (String.starts_with ~prefix:"rate-limited" shed);
            Alcotest.(check string) "bravo's register is cancelled"
              "cancelled: retry-after=0" third
        | replies ->
            Alcotest.fail
              (String.concat " | " (List.map Service.reply_to_string replies)));
        for s = 0 to shards - 1 do
          Alcotest.(check string)
            (Printf.sprintf "shard %d wrote no record" s)
            "" (read_shard journal s)
        done;
        Alcotest.(check int) "no session state touched" 0
          (Service.sessions service);
        (* A fresh token lets the same shape through, journaled. *)
        ignore (Service.handle_batch ?pool service [ register "bravo" ]);
        Service.detach_journals service;
        let r = Service.recover ~options ~shards ~journal () in
        Alcotest.(check int) "only the retried register was journaled" 1
          r.Service.replayed;
        Service.detach_journals r.Service.service)
  in
  check_run ();
  Pool.with_pool ~domains:2 (fun pool -> check_run ~pool ())

(* ------------------------------------------------------------------ *)
(* The FIFO replay rule                                                *)

(* Two registers journaled as one group: recvs 1 and 2, then their
   replies.  In order they replay cleanly; a reply whose seq is not the
   head's, or whose text differs, is a divergence that drops it and
   everything after it. *)
let test_fifo_head_mismatch_drops_rest () =
  let single = Service.create ~options ~shards:1 () in
  let text c = Service.reply_to_string (Service.handle single (register c)) in
  let a = text "alpha" and b = text "bravo" in
  let record seq ev = Frame.encode (Service.Event.encode ~seq ev) in
  let recvs =
    [ record 1 (Service.Event.Recv (register "alpha"));
      record 2 (Service.Event.Recv (register "bravo")) ]
  in
  let replay ~msg replies ~dropped =
    with_journal (fun journal ->
        write_file (Service.shard_journal ~journal ~shard:0)
          (String.concat "" (recvs @ replies));
        let r = Service.recover ~options ~shards:1 ~journal () in
        Alcotest.(check int) (msg ^ ": both recvs applied") 2 r.Service.replayed;
        Alcotest.(check int) (msg ^ ": dropped") dropped r.Service.dropped;
        Service.detach_journals r.Service.service)
  in
  replay ~msg:"replies in recv order"
    [ record 1 (Service.Event.Reply a); record 2 (Service.Event.Reply b) ]
    ~dropped:0;
  replay ~msg:"second reply first"
    [ record 2 (Service.Event.Reply b); record 1 (Service.Event.Reply a) ]
    ~dropped:2;
  replay ~msg:"head's seq, other text"
    [ record 1 (Service.Event.Reply b); record 2 (Service.Event.Reply b) ]
    ~dropped:2;
  replay ~msg:"a reply too many"
    [ record 1 (Service.Event.Reply a); record 2 (Service.Event.Reply b);
      record 2 (Service.Event.Reply b) ]
    ~dropped:1

let suite =
  [
    Alcotest.test_case "grouped journal crash windows" `Slow
      test_grouped_crash_windows;
    Alcotest.test_case "compaction keeps the grouped live set" `Quick
      test_compaction_keeps_grouped_live_set;
    to_alcotest prop_batched_recovers_alike;
    Alcotest.test_case "group record order and fsyncs" `Quick
      test_group_record_order;
    Alcotest.test_case "cancelled group writes nothing" `Quick
      test_cancelled_group_writes_nothing;
    Alcotest.test_case "reply off the FIFO head drops the rest" `Quick
      test_fifo_head_mismatch_drops_rest;
  ]

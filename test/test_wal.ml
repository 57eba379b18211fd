(* The write-ahead log, checked differentially.

   The reference model is the list-based bookkeeping the log's live set
   replaced: every journaled message prepends its events to a list, an
   accepted register (or a deregister) filters its owner's events out,
   and every compaction re-encodes the whole list.  Random scripts run
   through a journaled service at every [compact_every] from 1 to 8;
   each snapshot the log writes must equal the model's bytes, and a
   recovery from the files must continue every client exactly as the
   uninterrupted run does.  Also
   here: no snapshot writes more than twice the journal bytes it
   replaces, a crash in a recovery's own compaction cannot make the
   next recovery re-apply stale records, and a message too large to
   journal gets a reply, not an exception. *)

open Harmony
module Service = Harmony_service.Service
module Admission = Harmony_service.Admission
module Frame = Harmony_persist.Frame
module Persist = Harmony_persist.Persist
module Gen = QCheck2.Gen

let seed = [| 0x5eed; 14 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make seed) t

let spec =
  "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {1 9-$B 1} }}"

(* A small budget, so short scripts reach [done] and re-register. *)
let options = { Simplex.default_options with Simplex.max_evaluations = 5 }

let remove_log path =
  List.iter Persist.remove_if_exists
    [ path; path ^ ".tmp"; path ^ ".snapshot"; path ^ ".snapshot.tmp" ]

let with_paths n f =
  let path = Filename.temp_file "harmony_wal" ".journal" in
  Sys.remove path;
  let paths =
    List.init n (fun s -> Service.shard_journal ~journal:path ~shard:s)
  in
  Fun.protect
    ~finally:(fun () -> List.iter remove_log (path :: paths))
    (fun () -> f path)

(* A sink wrapper recording the snapshot file at every journal reset,
   i.e. once per compaction (the reset at attach time is not one, so
   recording starts when [armed] is set). *)
let snapshots_at_reset ~armed ~snapshot seen (sink : Persist.sink) =
  let reset () =
    sink.Persist.reset ();
    if !armed then
      seen := Option.value ~default:"" (Persist.read_file snapshot) :: !seen
  in
  { sink with Persist.reset }

(* ------------------------------------------------------------------ *)
(* Reference model                                                     *)

type 'ev model = {
  magic : string;
  encode : seq:int -> 'ev -> string;
  compact_every : int;
  mutable seq : int;
  mutable records : int;  (* journal records since the last compaction *)
  mutable journal_bytes : int;  (* their frame bytes *)
  mutable log : (int * string * 'ev) list;  (* newest first *)
  mutable snapshots : string list;  (* newest first *)
}

let model ~magic ~encode ~compact_every =
  { magic; encode; compact_every; seq = 0; records = 0; journal_bytes = 0;
    log = []; snapshots = [] }

let model_snapshot ?(seq = 0) m log =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Frame.encode (Printf.sprintf "%s 1 %d" m.magic seq));
  List.iter
    (fun (seq, _owner, ev) ->
      Buffer.add_string buf (Frame.encode (m.encode ~seq ev)))
    (List.rev log);
  Buffer.contents buf

(* One journaled record pair, [recv] (or a shed) and [rep]: [extend]
   updates the log under the new seq, then the compaction trigger fires
   past [compact_every] records once the journal holds at least half as
   many bytes as the live frames. *)
let model_step m (recv, rep) extend =
  m.seq <- m.seq + 1;
  let bytes seq ev = String.length (Frame.encode (m.encode ~seq ev)) in
  m.records <- m.records + 2;
  m.journal_bytes <- m.journal_bytes + bytes m.seq recv + bytes m.seq rep;
  m.log <- extend m.seq m.log;
  let live = List.fold_left (fun a (seq, _, ev) -> a + bytes seq ev) 0 m.log in
  if m.records > m.compact_every && 2 * m.journal_bytes >= live then begin
    m.snapshots <- model_snapshot ~seq:m.seq m m.log :: m.snapshots;
    m.records <- 0;
    m.journal_bytes <- 0
  end

let service_client = function
  | Service.Client { client; _ } | Service.Deregister { client } -> client
  | Service.Service_metrics | Service.Dump_flight -> ""

let service_journaled = function
  | Service.Client
      { payload = Server.Register _ | Server.Report _ | Server.Report_failed; _ }
  | Service.Deregister _ ->
      true
  | Service.Client { payload = Server.Query | Server.Metrics; _ }
  | Service.Service_metrics | Service.Dump_flight ->
      false

let service_extend_log log ~seq message reply =
  let client = service_client message in
  let prune log =
    List.filter (fun (_, c, _) -> not (String.equal c client)) log
  in
  let recv = (seq, client, Service.Event.Recv message) in
  let rep = (seq, client, Service.Event.Reply (Service.reply_to_string reply)) in
  match reply with
  | Service.Deregistered _ -> prune log
  | Service.Client_reply
      { reply = Server.Assign _ | Server.Done _ | Server.Stats _; _ }
    when (match message with
         | Service.Client { payload = Server.Register _; _ } -> true
         | _ -> false) ->
      rep :: recv :: prune log
  | _ -> rep :: recv :: log

(* The closing compaction of a recovery: it encodes the events it
   decoded (decoding trims a register's spec), under the log's own seq,
   the highest either file held. *)
let recovery_snapshot m decode =
  model_snapshot ~seq:m.seq m
    (List.map
       (fun (seq, owner, ev) ->
         match decode (m.encode ~seq ev) with
         | Some (_, ev') -> (seq, owner, ev')
         | None -> Alcotest.fail "model event does not decode")
       m.log)

(* ------------------------------------------------------------------ *)
(* Scripts                                                             *)

type step =
  | Register of bool  (* with stray whitespace after the spec *)
  | Report of int
  | Report_failed
  | Query
  | Deregister

let gen_step =
  Gen.frequency
    [
      (2, Gen.map (fun ws -> Register ws) Gen.bool);
      (9, Gen.map (fun v -> Report v) (Gen.int_range 0 100));
      (1, Gen.return Report_failed);
      (1, Gen.return Query);
      (1, Gen.return Deregister);
    ]

let payload = function
  | Register ws ->
      Server.Register
        {
          spec = (if ws then spec ^ "\n  " else spec);
          direction = Server.Maximize;
        }
  | Report v -> Server.Report (float_of_int v)
  | Report_failed -> Server.Report_failed
  | Query | Deregister -> Server.Query

let service_message client step =
  match step with
  | Deregister -> Service.Deregister { client }
  | Register _ | Report _ | Report_failed | Query ->
      Service.Client { client; payload = payload step }

(* What every client does after the script, on the uninterrupted
   service and on the recovered one alike. *)
let continuation =
  [ Query; Report 40; Report_failed; Report 60; Register false; Report 7;
    Query; Deregister; Report 1; Register false; Report 9 ]

(* The ids split two per shard at two shards. *)
let ids = [| "alpha"; "bravo"; "echo"; "india" |]

let rate_limited =
  { Admission.unlimited with Admission.rate = 1; burst = 2; refill_every = 3 }

let is_shed = function
  | Service.Client_reply { reply = Server.Rejected text; _ } ->
      Admission.is_rejection_text text
  | Service.Client_reply
      { reply = Server.Assign _ | Server.Done _ | Server.Stats _; _ }
  | Service.Deregistered _ | Service.Service_stats _ | Service.Flight_dump _
  | Service.Service_error _ ->
      false

(* Re-offer a shed message until it is admitted, ticking the admission
   clock in between; the admitted reply is what the client sees. *)
let admitted_reply service message =
  let rec go tries =
    let r = Service.handle service message in
    if is_shed r && tries > 0 then begin
      ignore (Service.handle_batch service []);
      go (tries - 1)
    end
    else Service.reply_to_string r
  in
  go 50

let print_script (clients, steps, compact_every, flag) =
  Printf.sprintf "clients=%d compact_every=%d flag=%b steps=[%s]" clients
    compact_every flag
    (String.concat "; "
       (List.map
          (fun (c, st) ->
            Printf.sprintf "%s:%s" ids.(c)
              (match st with
              | Register ws -> if ws then "register_ws" else "register"
              | Report v -> "report " ^ string_of_int v
              | Report_failed -> "report failed"
              | Query -> "query"
              | Deregister -> "done"))
          steps))

let gen_service_script =
  Gen.(
    int_range 3 4 >>= fun clients ->
    quad (return clients)
      (list_size (int_range 16 64)
         (pair (int_bound (clients - 1)) gen_step))
      (int_range 1 8) bool)

(* ------------------------------------------------------------------ *)
(* Service                                                             *)

let prop_service_live_set =
  QCheck2.Test.make ~name:"service snapshots equal the list model" ~count:80
    ~print:print_script gen_service_script
    (fun (clients, steps, compact_every, limited) ->
      let shards = 2 in
      let admission = if limited then Some rate_limited else None in
      with_paths shards (fun journal ->
          let service = Service.create ~options ?admission ~shards () in
          let armed = ref false in
          let seen = Array.make shards [] |> Array.map ref in
          Service.attach_journals ~compact_every
            ~wrap:(fun ~shard sink ->
              snapshots_at_reset ~armed
                ~snapshot:(Service.shard_journal ~journal ~shard ^ ".snapshot")
                seen.(shard) sink)
            service ~journal ();
          armed := true;
          let models =
            Array.init shards (fun _ ->
                model ~magic:"harmony-service-snapshot"
                  ~encode:Service.Event.encode ~compact_every)
          in
          List.iter
            (fun (c, step) ->
              let message = service_message ids.(c) step in
              let reply = Service.handle service message in
              if service_journaled message then
                let m = models.(Service.shard_of_client service ids.(c)) in
                let client = ids.(c) in
                let rep = Service.Event.Reply (Service.reply_to_string reply) in
                if is_shed reply then
                  let shed = Service.Event.Shed message in
                  model_step m (shed, rep) (fun seq log ->
                      (seq, client, rep) :: (seq, client, shed) :: log)
                else
                  model_step m (Service.Event.Recv message, rep)
                    (fun seq log -> service_extend_log log ~seq message reply))
            steps;
          Service.detach_journals service;
          Array.iteri
            (fun s m ->
              Alcotest.(check (list string))
                (Printf.sprintf "shard %d: every snapshot equals the model's" s)
                (List.rev m.snapshots)
                (List.rev !(seen.(s))))
            models;
          let r =
            Service.recover ~options ?admission ~compact_every ~shards
              ~journal ()
          in
          Alcotest.(check int) "clean files: nothing dropped" 0 r.Service.dropped;
          Array.iteri
            (fun s m ->
              let path = Service.shard_journal ~journal ~shard:s in
              Alcotest.(check string)
                (Printf.sprintf "shard %d: recovery snapshot equals the model's"
                   s)
                (recovery_snapshot m Service.Event.decode)
                (Option.value ~default:""
                   (Persist.read_file (path ^ ".snapshot"))))
            models;
          for c = 0 to clients - 1 do
            List.iter
              (fun step ->
                let message = service_message ids.(c) step in
                Alcotest.(check string)
                  (Printf.sprintf "%s continues as uninterrupted" ids.(c))
                  (admitted_reply service message)
                  (admitted_reply r.Service.service message))
              continuation
          done;
          Service.detach_journals r.Service.service;
          true))

(* ------------------------------------------------------------------ *)
(* Write amplification                                                 *)

(* A sink wrapper checking the bound the size trigger guarantees: at
   every journal reset, the snapshot's frames after the header total at
   most twice the bytes journaled since the previous reset.  Each
   violation is recorded as (snapshot frame bytes, journaled bytes). *)
let amplification_sink ~armed ~snapshot violations (sink : Persist.sink) =
  let journaled = ref 0 in
  let write s =
    sink.Persist.write s;
    journaled := !journaled + String.length s
  in
  let reset () =
    sink.Persist.reset ();
    (if !armed then
       let frames =
         match (Harmony_persist.Journal.read snapshot).Frame.records with
         | _header :: frames -> frames
         | [] -> []
       in
       let bytes =
         List.fold_left (fun a r -> a + String.length (Frame.encode r)) 0 frames
       in
       if bytes > 2 * !journaled then
         violations := (bytes, !journaled) :: !violations);
    journaled := 0
  in
  { sink with Persist.write; sync = ignore; reset }

let no_violations violations =
  Alcotest.(check (list (pair int int)))
    "every snapshot's frames are at most twice the bytes journaled since \
     the previous reset"
    [] (List.rev violations)

let prop_service_amplification =
  QCheck2.Test.make ~name:"service snapshots write at most 2x the journal"
    ~count:80 ~print:print_script gen_service_script
    (fun (_, steps, compact_every, limited) ->
      let shards = 2 in
      let admission = if limited then Some rate_limited else None in
      with_paths shards (fun journal ->
          let service = Service.create ~options ?admission ~shards () in
          let armed = ref false and violations = ref [] in
          Service.attach_journals ~compact_every
            ~wrap:(fun ~shard sink ->
              amplification_sink ~armed
                ~snapshot:(Service.shard_journal ~journal ~shard ^ ".snapshot")
                violations sink)
            service ~journal ();
          armed := true;
          List.iter
            (fun (c, step) ->
              ignore (Service.handle service (service_message ids.(c) step)))
            steps;
          Service.detach_journals service;
          no_violations !violations;
          true))

(* ------------------------------------------------------------------ *)
(* Recovery never moves the log's seq backwards                        *)

(* A sink wrapper whose reset, once [die] is set, kills the process
   and leaves the journal as it was: the crash window between a
   snapshot's rename and the journal reset. *)
let dies_at_reset die (sink : Persist.sink) =
  let reset () =
    if !die then raise Persist.Crashed else sink.Persist.reset ()
  in
  { sink with Persist.reset }

(* One shard at [compact_every:1]: bob and alice register, alice
   deregisters at seq 3, and the process dies at the journal reset of
   the compaction that follows, so the snapshot (header seq 3) holds
   only bob's frames and the stale journal only alice's deregister.
   The spec is short enough that bob's frames stay under twice the
   deregister's bytes, so the size trigger does compact there.
   Replay applies nothing past seq 1; a checkpoint at seq 1 would let
   the next messages reuse seqs 2 and 3, and a second crash at that
   checkpoint's own journal reset would leave the stale [3 recv alice
   done] to be re-applied by the next recovery. *)
let test_recovery_keeps_the_log_seq () =
  let spec = "{ harmonyBundle B { int {1 8 1} }}" in
  let register client =
    Service.Client
      {
        client;
        payload = Server.Register { spec; direction = Server.Maximize };
      }
  in
  let assign service client =
    match Service.handle service (register client) with
    | Service.Client_reply { reply = Server.Assign _; _ } as r ->
        Service.reply_to_string r
    | r -> Alcotest.fail ("register: " ^ Service.reply_to_string r)
  in
  let first_crash journal =
    let service = Service.create ~options ~shards:1 () in
    let die = ref false in
    Service.attach_journals ~compact_every:1
      ~wrap:(fun ~shard:_ sink -> dies_at_reset die sink)
      service ~journal ();
    let bob = assign service "bob" in
    ignore (assign service "alice");
    die := true;
    (match Service.handle service (Service.Deregister { client = "alice" }) with
    | r ->
        Alcotest.fail
          ("no compaction after the deregister: " ^ Service.reply_to_string r)
    | exception Persist.Crashed -> ());
    Service.detach_journals service;
    bob
  in
  (* The recovered log: its snapshot, and the seq its next journaled
     message gets. *)
  let recovered journal =
    let r = Service.recover ~options ~compact_every:1 ~shards:1 ~journal () in
    let path = Service.shard_journal ~journal ~shard:0 in
    let snapshot =
      Option.value ~default:"" (Persist.read_file (path ^ ".snapshot"))
    in
    ignore
      (Service.handle r.Service.service
         (Service.Client { client = "bob"; payload = Server.Report 1.0 }));
    Service.detach_journals r.Service.service;
    (* The checkpoint reset the journal: bob's report is all it holds. *)
    match List.rev (Harmony_persist.Journal.read path).Frame.records with
    | last :: _ -> (snapshot, Option.map fst (Service.Event.decode last))
    | [] -> (snapshot, None)
  in
  let expected bob =
    String.concat ""
      (List.map Frame.encode
         [ "harmony-service-snapshot 1 3";
           Service.Event.encode ~seq:1 (Service.Event.Recv (register "bob"));
           Service.Event.encode ~seq:1 (Service.Event.Reply bob) ])
  in
  with_paths 1 (fun journal ->
      let bob = first_crash journal in
      let snapshot, next = recovered journal in
      Alcotest.(check string) "one crash: header seq 3 and bob's frames"
        (expected bob) snapshot;
      Alcotest.(check (option int)) "one crash: next message gets seq 4"
        (Some 4) next);
  with_paths 1 (fun journal ->
      let bob = first_crash journal in
      let opened = ref [] in
      (match
         Service.recover ~options ~compact_every:1 ~shards:1
           ~wrap:(fun ~shard:_ sink ->
             opened := sink :: !opened;
             dies_at_reset (ref true) sink)
           ~journal ()
       with
      | _ -> Alcotest.fail "no crash at the checkpoint's journal reset"
      | exception Persist.Crashed -> ());
      List.iter (fun (sink : Persist.sink) -> sink.Persist.close ()) !opened;
      let snapshot, next = recovered journal in
      Alcotest.(check string) "two crashes: header seq 3 and bob's frames"
        (expected bob) snapshot;
      Alcotest.(check (option int)) "two crashes: next message gets seq 4"
        (Some 4) next)

(* ------------------------------------------------------------------ *)
(* A message too large to journal                                      *)

(* Its journal record would exceed the frame limit: the message gets a
   total rejection, is neither applied nor journaled, and the rest of
   the batch is answered as usual. *)
let test_oversize_message_rejected () =
  let huge =
    Server.Register
      { spec = String.make Frame.max_payload 'x'; direction = Server.Maximize }
  in
  let normal = Server.Register { spec; direction = Server.Maximize } in
  let too_large text =
    Alcotest.(check bool) ("rejection names the size: " ^ text) true
      (String.starts_with ~prefix:"message too large" text)
  in
  with_paths 2 (fun journal ->
      let service = Service.create ~options ~shards:2 () in
      Service.attach_journals service ~journal ();
      (match
         Service.handle_batch service
           [ Service.Client { client = "bravo"; payload = huge };
             Service.Client { client = "alpha"; payload = normal } ]
       with
      | [ Service.Client_reply { client = "bravo"; reply = Server.Rejected text };
          Service.Client_reply { client = "alpha"; reply = Server.Assign _ } ] ->
          too_large text
      | replies ->
          Alcotest.fail
            (String.concat " | " (List.map Service.reply_to_string replies)));
      Alcotest.(check int) "only the normal client has a session" 1
        (Service.sessions service);
      Service.detach_journals service;
      let r = Service.recover ~options ~shards:2 ~journal () in
      Alcotest.(check int) "only the normal register was journaled" 1
        r.Service.replayed;
      Alcotest.(check int) "nothing dropped" 0 r.Service.dropped;
      Service.detach_journals r.Service.service)

let suite =
  [
    to_alcotest prop_service_live_set;
    to_alcotest prop_service_amplification;
    Alcotest.test_case "recovery keeps the log's seq" `Quick
      test_recovery_keeps_the_log_seq;
    Alcotest.test_case "oversize message rejected, not raised" `Quick
      test_oversize_message_rejected;
  ]

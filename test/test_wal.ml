(* The shared write-ahead log, checked differentially.

   The reference model is the list-based bookkeeping the log's live set
   replaced: every journaled message prepends its events to a list, an
   accepted register (or a deregister) filters its owner's events out,
   and every compaction re-encodes the whole list.  Random scripts run
   through a journaled service (and a journaled single-session server)
   at every [compact_every] from 1 to 8; each snapshot the log writes
   must equal the model's bytes, and a recovery from the files must
   continue every client exactly as the uninterrupted run does.  Also
   here: a message too large to journal gets a reply, not an
   exception. *)

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
  mutable log : (int * string * 'ev) list;  (* newest first *)
  mutable snapshots : string list;  (* newest first *)
}

let model ~magic ~encode ~compact_every =
  { magic; encode; compact_every; seq = 0; records = 0; log = []; snapshots = [] }

let model_snapshot ?(seq = 0) m log =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Frame.encode (Printf.sprintf "%s 1 %d" m.magic seq));
  List.iter
    (fun (seq, _owner, ev) ->
      Buffer.add_string buf (Frame.encode (m.encode ~seq ev)))
    (List.rev log);
  Buffer.contents buf

(* One journaled record pair: [extend] updates the log under the new
   seq, then the compaction trigger fires past [compact_every]. *)
let model_step m extend =
  m.seq <- m.seq + 1;
  m.records <- m.records + 2;
  m.log <- extend m.seq m.log;
  if m.records > m.compact_every then begin
    m.snapshots <- model_snapshot ~seq:m.seq m m.log :: m.snapshots;
    m.records <- 0
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

let server_extend_log log ~seq message reply =
  let recv = (seq, "", Server.Event.Recv message) in
  let rep = (seq, "", Server.Event.Reply (Server.reply_to_string reply)) in
  match (message, reply) with
  | Server.Register _, (Server.Assign _ | Server.Done _ | Server.Stats _) ->
      [ rep; recv ]
  | _ -> rep :: recv :: log

(* The closing compaction of a recovery: it encodes the events it
   decoded (decoding trims a register's spec), under the seq of the
   last record it replayed — lower than the log's when the newest
   records were retired before the last compaction. *)
let recovery_snapshot m decode =
  let seq =
    match m.log with
    | _ when m.records > 0 -> m.seq
    | (newest, _, _) :: _ -> newest
    | [] -> 0
  in
  model_snapshot ~seq m
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
  | Shed  (* single-session scripts only: an admission rejection *)

(* A service client can deregister; a single session can only be
   shed, through [Server.journal_shed]. *)
let gen_step ~single =
  Gen.frequency
    [
      (2, Gen.map (fun ws -> Register ws) Gen.bool);
      (9, Gen.map (fun v -> Report v) (Gen.int_range 0 100));
      (1, Gen.return Report_failed);
      (1, Gen.return Query);
      (1, Gen.return (if single then Shed else Deregister));
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
  | Query | Deregister | Shed -> Server.Query

let service_message client step =
  match step with
  | Deregister -> Service.Deregister { client }
  | Register _ | Report _ | Report_failed | Query | Shed ->
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
              | Deregister -> "done"
              | Shed -> "shed"))
          steps))

let gen_service_script =
  Gen.(
    int_range 3 4 >>= fun clients ->
    quad (return clients)
      (list_size (int_range 16 64)
         (pair (int_bound (clients - 1)) (gen_step ~single:false)))
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
                model_step m (fun seq log ->
                    if is_shed reply then
                      (seq, client, Service.Event.Reply
                                      (Service.reply_to_string reply))
                      :: (seq, client, Service.Event.Shed message)
                      :: log
                    else service_extend_log log ~seq message reply))
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
(* Server                                                              *)

let shed_text = "error overloaded: retry-after=1"

let gen_server_script =
  Gen.(
    quad (return 1)
      (list_size (int_range 10 48) (pair (return 0) (gen_step ~single:true)))
      (int_range 1 8) bool)

let prop_server_live_set =
  QCheck2.Test.make ~name:"server snapshots equal the list model" ~count:80
    ~print:print_script gen_server_script
    (fun (_, steps, compact_every, reject_reregister) ->
      with_paths 0 (fun journal ->
          let server = Server.create ~options ~reject_reregister () in
          let armed = ref false in
          let seen = ref [] in
          Server.attach_journal ~compact_every
            ~wrap:
              (snapshots_at_reset ~armed ~snapshot:(journal ^ ".snapshot") seen)
            server ~journal ();
          armed := true;
          let m =
            model ~magic:"harmony-snapshot" ~encode:Server.Event.encode
              ~compact_every
          in
          List.iter
            (fun (_, step) ->
              let message = payload step in
              match step with
              | Shed ->
                  Server.journal_shed server (Server.Report 0.5) ~reply:shed_text;
                  model_step m (fun seq log ->
                      (seq, "", Server.Event.Reply shed_text)
                      :: (seq, "", Server.Event.Shed (Server.Report 0.5))
                      :: log)
              | Query | Deregister -> ignore (Server.handle server message)
              | Register _ | Report _ | Report_failed ->
                  let reply = Server.handle server message in
                  model_step m (fun seq log ->
                      server_extend_log log ~seq message reply))
            steps;
          Server.detach_journal server;
          Alcotest.(check (list string)) "every snapshot equals the model's"
            (List.rev m.snapshots) (List.rev !seen);
          let r =
            Server.recover ~options ~reject_reregister ~compact_every ~journal ()
          in
          Alcotest.(check int) "clean files: nothing dropped" 0 r.Server.dropped;
          Alcotest.(check string) "recovery snapshot equals the model's"
            (recovery_snapshot m Server.Event.decode)
            (Option.value ~default:""
               (Persist.read_file (journal ^ ".snapshot")));
          List.iter
            (fun step ->
              let message = payload step in
              Alcotest.(check string) "continues as uninterrupted"
                (Server.reply_to_string (Server.handle server message))
                (Server.reply_to_string (Server.handle r.Server.server message)))
            (List.filter (fun st -> st <> Deregister) continuation);
          Server.detach_journal r.Server.server;
          true))

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
      Service.detach_journals r.Service.service);
  with_paths 0 (fun journal ->
      let server = Server.create ~options () in
      Server.attach_journal server ~journal ();
      (match Server.handle server huge with
      | Server.Rejected text -> too_large text
      | r -> Alcotest.fail ("oversize register: " ^ Server.reply_to_string r));
      (match Server.handle server normal with
      | Server.Assign _ -> ()
      | r -> Alcotest.fail ("normal register: " ^ Server.reply_to_string r));
      Server.detach_journal server;
      let r = Server.recover ~options ~journal () in
      Alcotest.(check int) "only the normal register was journaled" 1
        r.Server.replayed;
      Server.detach_journal r.Server.server)

let suite =
  [
    to_alcotest prop_service_live_set;
    to_alcotest prop_server_live_set;
    Alcotest.test_case "oversize message rejected, not raised" `Quick
      test_oversize_message_rejected;
  ]

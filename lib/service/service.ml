open Harmony
module Frame = Harmony_persist.Frame
module Wal = Harmony_persist.Wal
module Text = Harmony_persist.Text
module Pool = Harmony_parallel.Pool
module Telemetry = Harmony_telemetry.Telemetry
module Export = Harmony_telemetry.Export
module Flight = Harmony_telemetry.Flight

type message =
  | Client of { client : string; payload : Server.message }
  | Deregister of { client : string }
  | Service_metrics
  | Dump_flight

type reply =
  | Client_reply of { client : string; reply : Server.reply }
  | Deregistered of { client : string }
  | Service_stats of string
  | Flight_dump of string
  | Service_error of string

type event = Recv of message | Reply of string | Shed of message

(* A batch entry with its admission metadata: when the work was
   enqueued (for the queue-delay histogram) and the logical tick after
   which it is not worth doing.  Both are on the admission clock
   ([Admission.now]); [None] means unknown/none. *)
type envelope = {
  message : message;
  enqueued_at : int option;
  deadline : int option;
}

let envelope ?enqueued_at ?deadline message = { message; enqueued_at; deadline }

(* A shard's log interleaves many clients' sessions in its replayable
   essence, so every kept record is owned by its client (an accepted
   re-register or a deregister retires exactly that client's
   history). *)
type shard = {
  tel : Telemetry.t;
  messages : Telemetry.counter;  (* service.messages *)
  appends : Telemetry.counter;  (* service.journal.appends *)
  fsyncs : Telemetry.counter;  (* service.journal.fsyncs *)
  compactions : Telemetry.counter;  (* service.journal.compactions *)
  sessions : (string, Server.t) Hashtbl.t;
  mutable wal : Wal.t option;
}

(* The in-service burn-rate monitor: one {!Slo.t} per objective
   (handle latency, admission queue delay), fed after every admission
   tick from the merged per-shard histograms.  Single-owner state,
   touched only from the submitting domain (like the admission
   layer). *)
type slo_monitor = {
  slo_spec : Slo.spec;
  handle_mon : Slo.t;
  delay_mon : Slo.t;
  state_gauge : Telemetry.gauge;  (* service.slo.state, on shard 0 *)
}

type t = {
  options : Simplex.options option;
  max_report_failures : int option;
  shards_ : shard array;
  admission : Admission.t option;
  seqs : (string, int ref) Hashtbl.t;
      (* per-client message sequence, advanced in arrival order on the
         submitting domain only — the deterministic seed of each
         message's trace context *)
  slo : slo_monitor option;
}

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

(* FNV-1a, 32-bit: a tiny, cross-version-stable string hash.  The shard
   map is part of the on-disk layout (shard journals), so it must not
   depend on [Hashtbl.hash] internals. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

let shard_for ~shards client =
  if shards < 1 then invalid_arg "Service.shard_for: shards < 1";
  fnv1a client mod shards

let shards t = Array.length t.shards_
let shard_of_client t client = shard_for ~shards:(shards t) client

let sessions t =
  Array.fold_left (fun n s -> n + Hashtbl.length s.sessions) 0 t.shards_

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

(* The per-message handle-latency histogram the loadgen SLO asserts
   against.  The default decade bounds cannot resolve a logical-clock
   p99 in the tens of ticks, so every shard pins these before the
   first observation. *)
let handle_ms_bounds =
  [| 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000. |]

let create ?options ?max_report_failures ?telemetry ?admission ?slo ~shards ()
    =
  if shards < 1 then invalid_arg "Service.create: shards < 1";
  let tel_for =
    match telemetry with Some f -> f | None -> fun _ -> Telemetry.off
  in
  let shards_ =
    Array.init shards (fun i ->
        let tel = tel_for i in
        Telemetry.declare_histogram tel ~bounds:handle_ms_bounds
          "server.handle_ms";
        {
          tel;
          messages = Telemetry.counter tel "service.messages";
          appends = Telemetry.counter tel "service.journal.appends";
          fsyncs = Telemetry.counter tel "service.journal.fsyncs";
          compactions = Telemetry.counter tel "service.journal.compactions";
          sessions = Hashtbl.create 64;
          wal = None;
        })
  in
  let admission =
    (* The admission state shares the shard telemetry handles, so its
       counters and queue-delay histogram land in the merged registry
       (and in [Service_metrics] replies) for free. *)
    Option.map
      (fun config ->
        Admission.create ~telemetry:(fun i -> shards_.(i).tel) ~shards config)
      admission
  in
  let slo =
    Option.map
      (fun spec ->
        {
          slo_spec = spec;
          handle_mon = Slo.create spec.Slo.burn;
          delay_mon = Slo.create spec.Slo.burn;
          state_gauge = Telemetry.gauge_handle shards_.(0).tel "service.slo.state";
        })
      slo
  in
  {
    options;
    max_report_failures;
    shards_;
    admission;
    seqs = Hashtbl.create 256;
    slo;
  }

let admission_now t =
  match t.admission with Some a -> Admission.now a | None -> 0

let shard_telemetry t i =
  if i >= 0 && i < Array.length t.shards_ then t.shards_.(i).tel
  else Telemetry.off

let merged_telemetry t =
  Telemetry.merged (Array.to_list (Array.map (fun s -> s.tel) t.shards_))

let metrics t = Export.prometheus (merged_telemetry t)

(* ------------------------------------------------------------------ *)
(* Text codec                                                          *)

(* Words that can never be client ids: single-session commands (so a
   stray unprefixed server message reads as a protocol error, not as a
   client called "query"), the deregister verb, the serve loop's
   [quit], and the service's own command. *)
let reserved =
  [ "register"; "query"; "report"; "metrics"; "done"; "quit";
    "service-metrics"; "dump-flight" ]

let is_space c =
  Char.equal c ' ' || Char.equal c '\t' || Char.equal c '\n'
  || Char.equal c '\r'

let valid_client id =
  String.length id > 0
  && (not (String.exists is_space id))
  && not (List.exists (String.equal id) reserved)

let parse_message text =
  let text = String.trim text in
  if String.equal text "service-metrics" then Ok Service_metrics
  else if String.equal text "dump-flight" then Ok Dump_flight
  else
    let first_line_end =
      match String.index_opt text '\n' with
      | Some i -> i
      | None -> String.length text
    in
    match String.index_opt (String.sub text 0 first_line_end) ' ' with
    | None -> Error ("missing client id: " ^ text)
    | Some i -> (
        let client = String.sub text 0 i in
        let rest = String.sub text (i + 1) (String.length text - i - 1) in
        if not (valid_client client) then Error ("bad client id: " ^ client)
        else
          match String.trim rest with
          | "done" -> Ok (Deregister { client })
          | _ -> (
              match Server.parse_message rest with
              | Ok payload -> Ok (Client { client; payload })
              | Error e -> Error e))

(* One allocation for the client prefix ([Server]'s text is built in
   one too): these run for every journaled record and reply. *)
let message_to_string = function
  | Client { client; payload } ->
      Text.concat3 client " " (Server.message_to_string payload)
  | Deregister { client } -> client ^ " done"
  | Service_metrics -> "service-metrics"
  | Dump_flight -> "dump-flight"

let reply_to_string = function
  | Client_reply { client; reply } ->
      Text.concat3 client " " (Server.reply_to_string reply)
  | Deregistered { client } -> client ^ " bye"
  | Service_stats text -> "stats\n" ^ String.trim text
  | Flight_dump text -> "flight\n" ^ String.trim text
  | Service_error msg -> "error " ^ msg

(* ------------------------------------------------------------------ *)
(* Shard-local message application (no journaling)                     *)

let unknown_client shard client =
  Telemetry.incr shard.tel "service.unknown_client";
  Server.Rejected ("unknown client " ^ client ^ ": register first")

let apply ?ctx t shard = function
  | Service_metrics ->
      (* Routed at the service level (it needs every shard's registry);
         a shard only sees it through a corrupted journal, where a
         deterministic error keeps replay total. *)
      Service_error "service-metrics is not shard-local"
  | Dump_flight ->
      (* Same service-level routing: it reads every shard's ring. *)
      Service_error "dump-flight is not shard-local"
  | Deregister { client } -> (
      match Hashtbl.find_opt shard.sessions client with
      | None ->
          (match unknown_client shard client with
          | Server.Rejected msg -> Service_error msg
          | Server.Assign _ | Server.Done _ | Server.Stats _ ->
              Service_error "unknown client")
      | Some _ ->
          Hashtbl.remove shard.sessions client;
          Telemetry.incr shard.tel "service.deregisters";
          Deregistered { client })
  | Client { client; payload } -> (
      match Hashtbl.find_opt shard.sessions client with
      | Some server ->
          Client_reply { client; reply = Server.handle ?ctx server payload }
      | None -> (
          match payload with
          | Server.Register _ ->
              (* First contact: the client's dedicated session.  It
                 shares the shard's telemetry handle and runs with
                 [reject_reregister], so a duplicate register while
                 tuning is a total error reply, never a silent reset. *)
              let server =
                Server.create ?options:t.options
                  ?max_report_failures:t.max_report_failures
                  ~reject_reregister:true ~telemetry:shard.tel ()
              in
              let reply = Server.handle ?ctx server payload in
              (match reply with
              | Server.Rejected _ -> ()
              | Server.Assign _ | Server.Done _ | Server.Stats _ ->
                  Telemetry.incr shard.tel "service.registers";
                  Hashtbl.add shard.sessions client server);
              Client_reply { client; reply }
          | Server.Query | Server.Report _ | Server.Report_failed
          | Server.Metrics ->
              Client_reply { client; reply = unknown_client shard client }))

(* ------------------------------------------------------------------ *)
(* Write-ahead journal: event codec                                    *)

module Event = struct
  type t = event = Recv of message | Reply of string | Shed of message

  (* ["<seq> <tag> <text>"], built in one buffer. *)
  let record ~seq tag text =
    let b =
      Bytes.create (Text.int_length seq + String.length tag + String.length text)
    in
    let pos = Text.blit_string b (Text.blit_int b 0 seq) tag in
    ignore (Text.blit_string b pos text : int);
    Bytes.unsafe_to_string b

  let encode ~seq = function
    | Recv m -> record ~seq " recv " (message_to_string m)
    | Reply text -> record ~seq " reply " text
    | Shed m -> record ~seq " shed " (message_to_string m)

  let decode record =
    match String.index_opt record ' ' with
    | None -> None
    | Some i -> (
        match int_of_string_opt (String.sub record 0 i) with
        | None -> None
        | Some seq when seq < 1 -> None
        | Some seq -> (
            let rest =
              String.sub record (i + 1) (String.length record - i - 1)
            in
            let payload_of tag =
              if String.starts_with ~prefix:(tag ^ " ") rest then
                Some
                  (String.sub rest (String.length tag + 1)
                     (String.length rest - String.length tag - 1))
              else None
            in
            match payload_of "recv" with
            | Some text -> (
                match parse_message text with
                | Ok m -> Some (seq, Recv m)
                | Error _ -> None)
            | None -> (
                match payload_of "reply" with
                | Some text -> Some (seq, Reply text)
                | None -> (
                    match payload_of "shed" with
                    | Some text -> (
                        match parse_message text with
                        | Ok m -> Some (seq, Shed m)
                        | Error _ -> None)
                    | None -> None))))
end

(* ------------------------------------------------------------------ *)
(* Journaling, snapshots, recovery                                     *)

let shard_journal ~journal ~shard = journal ^ ".shard" ^ string_of_int shard
let default_compact_every = 64
let snapshot_magic = "harmony-service-snapshot"

(* Only messages that can change shard state are journaled; queries
   and metrics probes are read-only up to idempotent re-issue, which
   deterministic replay regenerates for free. *)
let journaled = function
  | Client { payload = Server.Register _ | Server.Report _
                       | Server.Report_failed; _ } -> true
  | Client { payload = Server.Query | Server.Metrics; _ } -> false
  | Deregister _ -> true
  | Service_metrics | Dump_flight -> false

let log_client = function
  | Client { client; _ } | Deregister { client } -> client
  | Service_metrics | Dump_flight ->
      ""  (* never journaled; no valid client is "" *)

(* The multi-client replayable essence.  A successful deregister
   retires the client's whole history (nothing to replay); an accepted
   register replaces it with the fresh registration; everything else
   (including rejected registers and failed deregisters, whose error
   replies are still cross-checks) is kept under its owner. *)
let keep_handled w message reply ~recv ~rep =
  let owner = log_client message in
  let keep () =
    Wal.keep w ~owner recv;
    Wal.keep w ~owner rep
  in
  match reply with
  | Deregistered _ -> Wal.retire w ~owner
  | Client_reply { reply = r; _ } ->
      let accepted_register =
        (match message with
        | Client { payload = Server.Register _; _ } -> true
        | Client { payload = Server.Query | Server.Report _
                             | Server.Report_failed | Server.Metrics; _ }
        | Deregister _ | Service_metrics | Dump_flight -> false)
        && (match r with
           | Server.Rejected _ -> false
           | Server.Assign _ | Server.Done _ | Server.Stats _ -> true)
      in
      if accepted_register then Wal.retire w ~owner;
      keep ()
  | Service_error _ | Service_stats _ | Flight_dump _ -> keep ()

let compact_if_due shard w =
  if Wal.compact_if_due w then Telemetry.add shard.compactions 1

(* A rejection is a total, client-addressed reply: the caller can
   route it back to exactly the client whose message was shed. *)
let shed_reply message text =
  match message with
  | Client { client; _ } | Deregister { client } ->
      Client_reply { client; reply = Server.Rejected text }
  | Service_metrics | Dump_flight -> Service_error text

(* ------------------------------------------------------------------ *)
(* Handling                                                            *)

(* One group write: one write and one fsync for all of [records], as
   one correlated span under [ctx] (the context of the message whose
   record comes first).  The span sits {e outside} every server.handle
   span on purpose: the group must be durable before any session state
   changes, so journal time is trace-level self time (harmony_trace
   self), not handle latency. *)
let write_group ?ctx shard w ~seq records =
  match records with
  | [] -> []
  | _ :: _ ->
      (match ctx with
      | Some c ->
          Telemetry.span_begin shard.tel
            ~ctx:(Telemetry.Ctx.child c "service.journal.append")
            "service.journal.append"
      | None -> Telemetry.span_begin shard.tel "service.journal.append");
      let frames = Wal.append w ~seq records in
      Telemetry.span_end shard.tel "service.journal.append";
      Telemetry.add shard.appends (List.length frames);
      Telemetry.add shard.fsyncs 1;
      frames

(* A message the admission layer shed on a journaled shard, waiting for
   the shard's next group: its trace context and its reply text. *)
type shed = {
  shed_ctx : Telemetry.Ctx.t option;
  shed_message : message;
  shed_text : string;
}

(* What a group does with each of its messages. *)
type step =
  | Apply  (* not journaled (a read-only probe): applied in its turn *)
  | Answer of string  (* too large to journal: answered, not applied *)
  | Journal of int  (* journaled under this seq *)

(* Group commit: a journaled shard's share of one call, [sheds] and
   [messages] each in arrival order.  Before anything is applied, the
   sheds' [shed]+[reply] pairs and then every journaled message's
   [recv] go down in one write and one fsync, numbered in that order
   (admission decided the sheds before any message of the call ran, so
   they take the lower seqs).  The messages are then applied in arrival
   order and their [reply] records go down in a second write and fsync.
   Last, every frame is kept in message order, so a snapshot still
   pairs each recv with its reply, and the log compacts at most once.
   A crash between the writes loses replies the clients never saw;
   every durable recv is replayed. *)
let handle_group t shard w ~sheds ~ctxs messages =
  Telemetry.add shard.messages (Array.length messages);
  let seq = ref (Wal.seq w) in
  let first = ref [] and first_ctx = ref None in
  let push ctx record =
    (match !first with [] -> first_ctx := ctx | _ :: _ -> ());
    first := record :: !first
  in
  let shed_owners =
    List.filter_map
      (fun s ->
        let record = Event.encode ~seq:(!seq + 1) (Shed s.shed_message) in
        match Wal.oversize record with
        | Some _ -> None
        | None ->
            incr seq;
            push s.shed_ctx record;
            push s.shed_ctx (Event.encode ~seq:!seq (Reply s.shed_text));
            Some (log_client s.shed_message))
      sheds
  in
  let steps =
    Array.mapi
      (fun k message ->
        if not (journaled message) then Apply
        else
          let record = Event.encode ~seq:(!seq + 1) (Recv message) in
          match Wal.oversize record with
          | Some reason -> Answer reason
          | None ->
              incr seq;
              push ctxs.(k) record;
              Journal !seq)
      messages
  in
  let last = !seq in
  let first_frames =
    write_group ?ctx:!first_ctx shard w ~seq:last (List.rev !first)
  in
  let replies =
    Array.mapi
      (fun k message ->
        match steps.(k) with
        | Answer reason -> shed_reply message reason
        | Apply | Journal _ -> apply ?ctx:ctxs.(k) t shard message)
      messages
  in
  (* Built back to front, so [second_ctx] ends as the first journaled
     message's. *)
  let second = ref [] and second_ctx = ref None in
  for k = Array.length messages - 1 downto 0 do
    match steps.(k) with
    | Journal s ->
        second_ctx := ctxs.(k);
        second :=
          Event.encode ~seq:s (Reply (reply_to_string replies.(k))) :: !second
    | Apply | Answer _ -> ()
  done;
  let reply_frames = write_group ?ctx:!second_ctx shard w ~seq:last !second in
  let recv_frames =
    List.fold_left
      (fun frames owner ->
        match frames with
        | shed :: rep :: rest ->
            Wal.keep w ~owner shed;
            Wal.keep w ~owner rep;
            rest
        | [] | [ _ ] -> frames)
      first_frames shed_owners
  in
  let rec keep k recvs reps =
    if k < Array.length messages then
      match (steps.(k), recvs, reps) with
      | Journal _, recv :: recvs, rep :: reps ->
          keep_handled w messages.(k) replies.(k) ~recv ~rep;
          keep (k + 1) recvs reps
      | (Journal _ | Apply | Answer _), _, _ -> keep (k + 1) recvs reps
  in
  keep 0 recv_frames reply_frames;
  compact_if_due shard w;
  replies

(* One message through its shard: a one-message group when journaled,
   so [handle] writes a recv, applies, then writes its reply. *)
let handle_in_shard ?ctx t shard message =
  match shard.wal with
  | Some w -> (handle_group t shard w ~sheds:[] ~ctxs:[| ctx |] [| message |]).(0)
  | None ->
      Telemetry.add shard.messages 1;
      apply ?ctx t shard message

(* Priority classes for the admission layer: a session's lifecycle
   messages must always land (a completed tuning run that cannot
   deregister leaks its slot forever), measurements matter next, and
   read-only probes are shed first. *)
let priority_of_message = function
  | Client { payload = Server.Register _; _ } | Deregister _ ->
      Admission.Critical
  | Client { payload = Server.Report _ | Server.Report_failed; _ } ->
      Admission.Normal
  | Client { payload = Server.Query | Server.Metrics; _ }
  | Service_metrics | Dump_flight ->
      Admission.Low

(* An admission rejection of a state-changing message is journaled
   (shed + literal reply, same seq) so recovery replays the full reply
   stream — rejections included — byte-for-byte.  The batch path hands
   it to the shard's group; {!handle_env} writes it as a group of its
   own.  A message too large to journal is not journaled shed either
   (the group skips it). *)
let shed_of ?ctx message reply =
  { shed_ctx = ctx; shed_message = message; shed_text = reply_to_string reply }

(* Cancellation sheds work that was already admitted but not yet run.
   It is never journaled (the message was never acknowledged, so a
   recovering client re-sends it) and counted directly on the shard
   handle — [Telemetry] has its own lock, so this is safe from inside
   a pool task, unlike the single-owner admission state. *)
let cancelled_text =
  Admission.reject_text ~reason:Admission.Cancelled ~retry_after:0
    ~degraded:false

let cancelled_reply shard message =
  Telemetry.incr shard.tel Admission.c_rejected;
  Telemetry.incr shard.tel Admission.c_cancelled;
  shed_reply message cancelled_text

let admission_check ?ctx t ~shard env =
  match t.admission with
  | None -> Admission.Admit
  | Some a -> (
      match env.message with
      | Service_metrics | Dump_flight -> Admission.check_service a
      | Client { client; _ } | Deregister { client } ->
          Admission.check a ~shard ~client
            ~priority:(priority_of_message env.message)
            ?enqueued_at:env.enqueued_at ?deadline:env.deadline ?ctx ())

(* The trace root for a client message routed to shard [s]: derived
   from (client, seq) where seq is the client's message arrival index,
   advanced on the submitting domain before dispatch — so trace ids
   are a function of the message stream alone and byte-identical at
   any domain count.  The seq advances even when the shard's handle is
   off, but then no context is built. *)
let next_ctx t s client =
  let r =
    match Hashtbl.find_opt t.seqs client with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t.seqs client r;
        r
  in
  incr r;
  if Telemetry.enabled t.shards_.(s).tel then
    Some (Telemetry.Ctx.root ~client ~seq:!r)
  else None

(* ------------------------------------------------------------------ *)
(* Flight recorder and SLO monitor                                     *)

(* Every shard's recent telemetry events, oldest-first per shard, as
   JSONL with a [shard] field — the black-box dump written on crash,
   on an SLO page, or in reply to [dump-flight]. *)
let flight_dump t =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun i shard ->
      match Telemetry.flight shard.tel with
      | None -> ()
      | Some f -> Buffer.add_string buf (Flight.to_jsonl ~shard:i f))
    t.shards_;
  Buffer.contents buf

let feed_monitor t mon name ~threshold =
  let total, violations =
    Array.fold_left
      (fun (tot, vi) shard ->
        match Telemetry.histogram_value shard.tel name with
        | None -> (tot, vi)
        | Some snap ->
            ( tot + snap.Telemetry.count,
              vi + Slo.violations_in snap ~threshold ))
      (0, 0) t.shards_
  in
  Slo.feed mon ~total ~violations

(* Feed both objectives once per handled batch/envelope, after all
   shard tasks have joined (histogram sums across shards are then
   stable), and expose the combined state on shard 0's registry.
   State transitions are rare instants; the gauge is set every tick
   (metric writes record no events, so the logical clock — and with it
   every latency measurement — is unaffected). *)
let slo_tick t =
  match t.slo with
  | None -> ()
  | Some m ->
      let tel0 = t.shards_.(0).tel in
      let h_before, h_after =
        feed_monitor t m.handle_mon m.slo_spec.Slo.handle_histogram
          ~threshold:m.slo_spec.Slo.handle_threshold
      in
      let d_before, d_after =
        feed_monitor t m.delay_mon m.slo_spec.Slo.delay_histogram
          ~threshold:m.slo_spec.Slo.delay_threshold
      in
      let combined =
        Slo.worst (Slo.state m.handle_mon) (Slo.state m.delay_mon)
      in
      Telemetry.set m.state_gauge (float_of_int (Slo.state_rank combined));
      let transition objective before after =
        if Slo.state_rank after <> Slo.state_rank before then begin
          Telemetry.instant tel0 "service.slo.transition"
            ~args:
              [
                ("objective", Telemetry.Str objective);
                ("from", Telemetry.Str (Slo.state_to_string before));
                ("to", Telemetry.Str (Slo.state_to_string after));
              ];
          match after with
          | Slo.Page -> Telemetry.incr tel0 "service.slo.pages"
          | Slo.Healthy | Slo.Warn -> ()
        end
      in
      transition "handle" h_before h_after;
      transition "queue_delay" d_before d_after

let slo_state t =
  Option.map
    (fun m -> Slo.worst (Slo.state m.handle_mon) (Slo.state m.delay_mon))
    t.slo

let slo_pages t =
  match t.slo with
  | None -> 0
  | Some m -> Slo.pages m.handle_mon + Slo.pages m.delay_mon

let handle_env t env =
  (match t.admission with Some a -> Admission.tick a | None -> ());
  let reply =
    match env.message with
    | Service_metrics -> (
        match Admission.verdict_text (admission_check t ~shard:0 env) with
        | None -> Service_stats (metrics t)
        | Some text -> Service_error text)
    | Dump_flight -> (
        match Admission.verdict_text (admission_check t ~shard:0 env) with
        | None -> Flight_dump (flight_dump t)
        | Some text -> Service_error text)
    | Client { client; _ } | Deregister { client } -> (
        let s = shard_of_client t client in
        let ctx = next_ctx t s client in
        match Admission.verdict_text (admission_check ?ctx t ~shard:s env) with
        | None ->
            let reply = handle_in_shard ?ctx t t.shards_.(s) env.message in
            (match t.admission with
            | Some a -> Admission.complete a ~shard:s
            | None -> ());
            reply
        | Some text ->
            let reply = shed_reply env.message text in
            let shard = t.shards_.(s) in
            (match shard.wal with
            | Some w when journaled env.message ->
                ignore
                  (handle_group t shard w
                     ~sheds:[ shed_of ?ctx env.message reply ]
                     ~ctxs:[||] [||]
                    : reply array)
            | Some _ | None -> ());
            reply)
  in
  slo_tick t;
  reply

let handle t message = handle_env t (envelope message)

(* A message is stamped at the tick it is handled at (the clock ticks
   once per [handle_env]), so a deadline of 0 means "handle at
   arrival", which a synchronous caller always meets. *)
let handle_stamped ?deadline_ticks t message =
  let enqueued_at = admission_now t + 1 in
  let deadline = Option.map (fun d -> enqueued_at + d) deadline_ticks in
  handle_env t (envelope ~enqueued_at ?deadline message)

(* ------------------------------------------------------------------ *)
(* The single-session protocol                                         *)

(* Unprefixed single-session messages run as this one client, so a
   lone session journals, recovers and is policed exactly like a
   shard's. *)
let single_client = "session"

let handle_single ?deadline_ticks t message =
  (* Each message sent, the implicit deregister included, gets its own
     stamp: a register stamped before its deregister ran would expire. *)
  let send m = handle_stamped ?deadline_ticks t m in
  let send_client payload = send (Client { client = single_client; payload }) in
  let live () =
    Hashtbl.mem t.shards_.(shard_of_client t single_client).sessions
      single_client
  in
  let reply =
    match message with
    | Server.Metrics -> send Service_metrics
    | Server.Register _ when live () -> (
        (* Re-registering restarts the session, as on a lone [Server]:
           the live one is deregistered first.  A shed deregister
           answers the register, which the client then retries. *)
        match send (Deregister { client = single_client }) with
        | Deregistered _ -> send_client message
        | (Client_reply _ | Service_stats _ | Flight_dump _ | Service_error _)
          as r ->
            r)
    | Server.Register _ | Server.Query | Server.Report _ | Server.Report_failed
      ->
        send_client message
  in
  match reply with
  | Client_reply { reply; _ } -> reply
  | Service_stats text -> Server.Stats text
  | Service_error text -> Server.Rejected text
  (* Unreachable: neither answers a client message or a probe. *)
  | (Deregistered _ | Flight_dump _) as r ->
      Server.Rejected ("unexpected reply: " ^ reply_to_string r)

let handle_batch_env ?pool ?(cancel = Pool.Cancel.none) t envelopes =
  let msgs = Array.of_list envelopes in
  let n = Array.length msgs in
  let replies = Array.make n None in
  let nshards = shards t in
  (match t.admission with Some a -> Admission.tick a | None -> ());
  (* [Service_metrics] probes are answered at their arrival index
     against the pre-batch snapshot: computed once before any of this
     batch's decisions or messages can touch the registry, so the
     probe's position inside the batch does not change its reply. *)
  let has_probe =
    Array.exists
      (fun e ->
        match e.message with
        | Service_metrics -> true
        | Client _ | Deregister _ | Dump_flight -> false)
      msgs
  in
  let pre_metrics = if has_probe then metrics t else "" in
  (* [Dump_flight] gets the same pre-batch-snapshot treatment as the
     metrics probe, for the same reason: its position inside the batch
     must not change its reply. *)
  let has_dump =
    Array.exists
      (fun e ->
        match e.message with
        | Dump_flight -> true
        | Client _ | Deregister _ | Service_metrics -> false)
      msgs
  in
  let pre_dump = if has_dump then flight_dump t else "" in
  (* Admission runs sequentially, in arrival order, before anything is
     dispatched: decisions (and their journaled sheds) are a
     deterministic function of the batch alone.  [admitted] counts
     per-shard slots to release once the round joins.  Trace contexts
     are derived here too — on the submitting domain, in arrival order
     — so the ids the shard tasks stamp are domain-count-invariant. *)
  let per_shard = Array.make nshards [] in
  let sheds = Array.make nshards [] in
  let admitted = Array.make nshards 0 in
  let ctxs = Array.make n None in
  Array.iteri
    (fun i env ->
      match env.message with
      | Service_metrics -> (
          match Admission.verdict_text (admission_check t ~shard:0 env) with
          | None -> replies.(i) <- Some (Service_stats pre_metrics)
          | Some text -> replies.(i) <- Some (Service_error text))
      | Dump_flight -> (
          match Admission.verdict_text (admission_check t ~shard:0 env) with
          | None -> replies.(i) <- Some (Flight_dump pre_dump)
          | Some text -> replies.(i) <- Some (Service_error text))
      | Client { client; _ } | Deregister { client } -> (
          let s = shard_of_client t client in
          let ctx = next_ctx t s client in
          ctxs.(i) <- ctx;
          match
            Admission.verdict_text (admission_check ?ctx t ~shard:s env)
          with
          | None ->
              admitted.(s) <- admitted.(s) + 1;
              per_shard.(s) <- i :: per_shard.(s)
          | Some text ->
              let reply = shed_reply env.message text in
              (match t.shards_.(s).wal with
              | Some _ when journaled env.message ->
                  sheds.(s) <- shed_of ?ctx env.message reply :: sheds.(s)
              | Some _ | None -> ());
              replies.(i) <- Some reply))
    msgs;
  let run (shard_ix, ixs) =
    let shard = t.shards_.(shard_ix) in
    match (shard.wal, sheds.(shard_ix), ixs) with
    | Some _, [], [] -> []
    | Some w, shed_list, _ ->
        (* One cancellation check per group, before its first write: a
           group is shed whole, writing nothing (its sheds included:
           they were answered, never applied), or journaled and applied
           whole, so no durable recv belongs to a message whose client
           was told "cancelled". *)
        if Pool.Cancel.cancelled cancel then
          List.map (fun i -> (i, cancelled_reply shard msgs.(i).message)) ixs
        else
          let ixs_a = Array.of_list ixs in
          let replies =
            handle_group t shard w ~sheds:(List.rev shed_list)
              ~ctxs:(Array.map (fun i -> ctxs.(i)) ixs_a)
              (Array.map (fun i -> msgs.(i).message) ixs_a)
          in
          List.mapi (fun k i -> (i, replies.(k))) ixs
    | None, _, _ ->
        List.map
          (fun i ->
            (* Task-boundary cancellation check: a cancelled round sheds
               the not-yet-run suffix of each shard batch with total,
               retryable replies instead of occupying the domain. *)
            if Pool.Cancel.cancelled cancel then
              (i, cancelled_reply shard msgs.(i).message)
            else (i, handle_in_shard ?ctx:ctxs.(i) t shard msgs.(i).message))
          ixs
  in
  let inputs = Array.init nshards (fun s -> (s, List.rev per_shard.(s))) in
  let outputs =
    match pool with
    | Some pool -> Pool.try_map_array ~cancel pool run inputs
    | None ->
        (* Sequential path: [run] itself honors the token (per group
           on a journaled shard, per message otherwise), so only real
           exceptions land in [Error]. *)
        Array.map
          (fun input -> try Ok (run input) with e -> Error e)
          inputs
  in
  (* Release the round's inflight slots before any re-raise, so a
     crashed round cannot leak budget. *)
  (match t.admission with
  | Some a ->
      Array.iteri
        (fun s k ->
          for _ = 1 to k do
            Admission.complete a ~shard:s
          done)
        admitted
  | None -> ());
  (* Non-cancellation task failures (journal sink I/O, chaos faults)
     re-raise exactly as [Pool.map_array] would: first by shard
     index, after every task has finished. *)
  Array.iter
    (function
      | Error Pool.Cancelled | Ok _ -> ()
      | Error e -> raise e)
    outputs;
  Array.iteri
    (fun shard_ix result ->
      match result with
      | Ok pairs -> List.iter (fun (i, r) -> replies.(i) <- Some r) pairs
      | Error _ ->
          (* The whole shard task was shed before it started. *)
          let shard = t.shards_.(shard_ix) in
          List.iter
            (fun i -> replies.(i) <- Some (cancelled_reply shard msgs.(i).message))
            (snd inputs.(shard_ix)))
    outputs;
  slo_tick t;
  Array.to_list
    (Array.map
       (function
         | Some r -> r
         (* Unreachable: every index was routed to a shard, rejected,
            or answered as a metrics slot; kept total for the T2
            no-abort contract. *)
         | None -> Service_error "internal: unanswered slot")
       replies)

let handle_batch ?pool ?cancel t messages =
  handle_batch_env ?pool ?cancel t (List.map (fun m -> envelope m) messages)

(* ------------------------------------------------------------------ *)
(* Attach / detach                                                     *)

let attach_journals ?(compact_every = default_compact_every) ?wrap t
    ~journal () =
  if compact_every < 1 then
    invalid_arg "Service.attach_journals: compact_every < 1";
  Array.iteri
    (fun i shard ->
      Option.iter Wal.close shard.wal;
      let wrap = Option.map (fun w -> w ~shard:i) wrap in
      shard.wal <-
        Some
          (Wal.attach ?wrap ~magic:snapshot_magic ~compact_every
             (shard_journal ~journal ~shard:i)))
    t.shards_

let detach_journals t =
  Array.iter
    (fun shard ->
      Option.iter Wal.close shard.wal;
      shard.wal <- None)
    t.shards_

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

(* Re-apply one shard's recorded messages to its fresh sessions,
   rebuilding the live set from re-encoded events, frames kept in the
   order the live run kept them.  The recorded replies are cross-checks
   deterministic replay must regenerate byte-for-byte.  A group writes
   its recvs before its replies, so [waiting] holds the applied recvs
   whose reply record has not been read yet, oldest first, as (seq,
   regenerated reply text), and each reply record is checked against
   the head: an interleaved journal (one-message groups, and every
   journal written before group commit) is the depth-1 case.  The first
   divergence (a reply that is not the head's, by seq or by text, or a
   non-monotone seq) drops everything after it.  A [Shed] record is not
   re-applied (the message never touched state — the admission layer
   rejected it) and its paired reply is kept literally: that is what
   makes journaled rejections replay byte-for-byte without the
   admission state being replayable.  [literal] holds the pending
   shed's (seq, client). *)
let replay_shard t shard w events =
  let frame seq ev = Frame.encode (Event.encode ~seq ev) in
  let waiting = Queue.create () in
  let rec go events literal applied seq =
    let diverged rest = (applied, 1 + List.length rest, seq) in
    match events with
    | [] -> (applied, 0, seq)
    | (s, Recv m) :: rest ->
        if s <= seq then diverged rest
        else
          let reply = apply t shard m in
          let text = reply_to_string reply in
          keep_handled w m reply ~recv:(frame s (Recv m))
            ~rep:(frame s (Reply text));
          Queue.add (s, text) waiting;
          go rest None (applied + 1) s
    | (s, Shed m) :: rest ->
        if s <= seq then diverged rest
        else begin
          let owner = log_client m in
          Wal.keep w ~owner (frame s (Shed m));
          go rest (Some (s, owner)) (applied + 1) s
        end
    | (s, Reply text) :: rest -> (
        match literal with
        | Some (ls, owner) ->
            if s = ls then begin
              Wal.keep w ~owner (frame s (Reply text));
              go rest None applied seq
            end
            else diverged rest
        | None -> (
            match Queue.take_opt waiting with
            | Some (ws, expected) when ws = s && String.equal expected text ->
                go rest None applied seq
            | Some _ | None -> diverged rest))
  in
  go events None 0 0

type shard_recovery = { shard : int; replayed : int; dropped : int }

type recovery = {
  service : t;
  replayed : int;
  dropped : int;
  per_shard : shard_recovery list;
}

let recover ?options ?max_report_failures ?telemetry ?admission ?slo ?wrap
    ?(compact_every = default_compact_every) ~shards ~journal () =
  if compact_every < 1 then
    invalid_arg "Service.recover: compact_every < 1";
  let t =
    create ?options ?max_report_failures ?telemetry ?admission ?slo ~shards ()
  in
  let per_shard =
    List.init shards (fun i ->
        let shard = t.shards_.(i) in
        let wrap = Option.map (fun w -> w ~shard:i) wrap in
        let w, events, dropped_load =
          Wal.reopen ?wrap ~magic:snapshot_magic ~decode:Event.decode
            ~compact_every
            (shard_journal ~journal ~shard:i)
        in
        let applied, dropped_replay, seq = replay_shard t shard w events in
        shard.wal <- Some w;
        Wal.checkpoint w ~seq;
        let dropped = dropped_load + dropped_replay in
        Telemetry.incr shard.tel ~by:applied "service.recovery.replayed";
        Telemetry.incr shard.tel ~by:dropped "service.recovery.dropped";
        { shard = i; replayed = applied; dropped })
  in
  let replayed =
    List.fold_left (fun a (r : shard_recovery) -> a + r.replayed) 0 per_shard
  in
  let dropped =
    List.fold_left (fun a (r : shard_recovery) -> a + r.dropped) 0 per_shard
  in
  { service = t; replayed; dropped; per_shard }

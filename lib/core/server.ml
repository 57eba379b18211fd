open Harmony_param
open Harmony_objective
module Frame = Harmony_persist.Frame
module Wal = Harmony_persist.Wal
module Telemetry = Harmony_telemetry.Telemetry
module Export = Harmony_telemetry.Export

type direction = Minimize | Maximize

type message =
  | Register of { spec : string; direction : direction }
  | Query
  | Report of float
  | Report_failed
  | Metrics

type reply =
  | Assign of (string * int) list
  | Done of { best : (string * int) list; performance : float }
  | Rejected of string
  | Stats of string

type session = {
  rsl : Rsl.t;
  names : string list;
  controller : Controller.t;
  direction : Objective.direction;
  mutable outstanding : (string * int) list option;
      (* assignment awaiting its performance report *)
  mutable outstanding_failures : int;
      (* consecutive [report failed] for the outstanding assignment *)
  mutable failed_reports : int;
  mutable penalized : int;
}

(* Journal records.  A seq numbers the journaled client messages;
   each message's reply record carries the same seq, so recovery can
   pair them back up and a stale journal tail (a crash between
   snapshot rename and journal reset) is detected by seq alone.  The
   log's live set is the replayable essence of the current session —
   everything since the last accepted [Register] — which is what a
   snapshot persists.  [Shed] records a message the admission layer
   rejected before it could touch state: replay must not re-apply it
   (admission state is not replayable), so its paired [Reply] is taken
   literally rather than regenerated. *)
type event = Recv of message | Reply of string | Shed of message

type t = {
  options : Simplex.options;
  max_report_failures : int;
  reject_reregister : bool;
  telemetry : Telemetry.t;
  mutable session : session option;
  mutable wal : Wal.t option;
  mutable handled : int;  (* messages ever handled; seeds fallback trace roots *)
}

let create ?(options = Simplex.default_options) ?(max_report_failures = 3)
    ?(reject_reregister = false) ?(telemetry = Telemetry.off) () =
  if max_report_failures < 1 then
    invalid_arg "Server.create: max_report_failures < 1";
  { options; max_report_failures; reject_reregister; telemetry;
    session = None; wal = None; handled = 0 }

let spec t = Option.map (fun s -> s.rsl) t.session

let fault_counters t =
  match t.session with
  | None -> (0, 0)
  | Some s -> (s.failed_reports, s.penalized)

let better direction a b =
  match direction with
  | Objective.Higher_is_better -> a > b
  | Objective.Lower_is_better -> a < b

let assignment_of_config session config =
  (* Proposals come from the box space; project into the restricted
     region so the client only ever runs meaningful configurations.
     The controller is told the performance of its own proposal — the
     projection distance is at most one conditional-range clamp, the
     same approximation Rsl.repair-based tuning makes everywhere. *)
  let feasible = Rsl.repair session.rsl config in
  List.mapi (fun i name -> (name, int_of_float feasible.(i))) session.names

(* Advance the controller to its next request and turn it into a
   reply, remembering the outstanding assignment. *)
let next_reply session =
  match Controller.pending session.controller with
  | `Measure config ->
      let assignment = assignment_of_config session config in
      session.outstanding <- Some assignment;
      session.outstanding_failures <- 0;
      Assign assignment
  | `Done outcome ->
      session.outstanding <- None;
      session.outstanding_failures <- 0;
      (* Graceful degradation: if the budget ran out while later
         vertices kept failing (their penalized measurements drag the
         simplex's notion of "best" down), fall back to the best
         configuration a client actually measured. *)
      let best_config, performance =
        match Controller.best_so_far session.controller with
        | Some (config, perf)
          when better session.direction perf outcome.Simplex.best_performance
          ->
            (config, perf)
        | Some _ | None ->
            (outcome.Simplex.best_config, outcome.Simplex.best_performance)
      in
      Done { best = assignment_of_config session best_config; performance }

let message_kind = function
  | Register _ -> "register"
  | Query -> "query"
  | Report _ -> "report"
  | Report_failed -> "report-failed"
  | Metrics -> "metrics"

let handle_message t message =
  match (message, t.session) with
  (* Read-only introspection: the server's own metrics registry in
     Prometheus text form.  Valid in any state, never journaled. *)
  | Metrics, _ -> Stats (Export.prometheus t.telemetry)
  (* Duplicate registration guard (opt-in): a second [register] while
     a tuning session is still mid-flight used to rely on caller
     discipline — under one shared server it silently threw away the
     live session.  With [reject_reregister] the duplicate gets a
     total error reply and the active session is untouched; once the
     session has finished (or was aborted) re-registering is again the
     normal way to start the next one. *)
  | Register _, Some session
    when t.reject_reregister
         && (match Controller.pending session.controller with
            | `Measure _ -> true
            | `Done _ -> false) ->
      Rejected
        "already registered: an active session is mid-tuning (finish it \
         before re-registering)"
  | Register { spec; direction }, _ -> (
      match Rsl.parse spec with
      | exception Rsl.Parse_error msg -> Rejected ("bad specification: " ^ msg)
      | rsl -> (
          match Rsl.to_space rsl with
          | exception Invalid_argument msg -> Rejected msg
          | space ->
              let direction =
                match direction with
                | Minimize -> Objective.Lower_is_better
                | Maximize -> Objective.Higher_is_better
              in
              (* A structurally valid spec can still be untunable —
                 e.g. a single feasible point gives the search kernel a
                 degenerate initial simplex.  [handle] is total: such
                 specs are rejected, never raised (the fuzz suite
                 drives this with arbitrary generated specs). *)
              match
                Controller.create ~telemetry:t.telemetry ~options:t.options
                  ~space ~direction ()
              with
              | exception Invalid_argument msg ->
                  Rejected ("untunable specification: " ^ msg)
              | controller ->
              let session =
                {
                  rsl;
                  names = Rsl.names rsl;
                  controller;
                  direction;
                  outstanding = None;
                  outstanding_failures = 0;
                  failed_reports = 0;
                  penalized = 0;
                }
              in
              t.session <- Some session;
              next_reply session))
  | Query, None -> Rejected "no specification registered"
  | Query, Some session -> (
      (* Idempotent: repeat the outstanding assignment if any. *)
      match session.outstanding with
      | Some assignment -> Assign assignment
      | None -> next_reply session)
  | Report _, None | Report_failed, None ->
      Rejected "no specification registered"
  | Report performance, Some session -> (
      match session.outstanding with
      | None -> Rejected "no assignment outstanding"
      | Some _ ->
          session.outstanding <- None;
          session.outstanding_failures <- 0;
          (match Controller.pending session.controller with
          | `Measure _ -> Controller.report session.controller performance
          | `Done _ -> ());
          next_reply session)
  | Report_failed, Some session -> (
      match session.outstanding with
      | None -> Rejected "no assignment outstanding"
      | Some assignment ->
          session.failed_reports <- session.failed_reports + 1;
          session.outstanding_failures <- session.outstanding_failures + 1;
          if session.outstanding_failures < t.max_report_failures then
            (* Re-assign: the client retries the same configuration
               (transient failures clear; the client applies its own
               backoff between attempts). *)
            Assign assignment
          else begin
            (* The configuration stays broken: feed the controller a
               worst-case penalty so the search moves away from it, and
               hand out the next proposal. *)
            session.penalized <- session.penalized + 1;
            session.outstanding <- None;
            session.outstanding_failures <- 0;
            (match Controller.pending session.controller with
            | `Measure _ ->
                Controller.report session.controller
                  (Measure.penalty_for session.direction)
            | `Done _ -> ());
            next_reply session
          end)

(* Message handling is total.  A registered spec can defeat the search
   kernel only after tuning has started — a space degenerate in one
   dimension snaps every initial vertex onto the same hyperplane, which
   Simplex.optimize detects after the initial vertices are measured,
   i.e. inside [Controller.report].  The kernel is unusable from that
   point, so the session is aborted: the client gets [Rejected] and
   must re-register (the fuzz suite drives this with arbitrary
   generated specs). *)
let handle_total t message =
  match handle_message t message with
  | reply -> reply
  | exception Invalid_argument msg ->
      t.session <- None;
      Rejected ("session aborted: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Line codec                                                          *)

let parse_message text =
  let text = String.trim text in
  match String.index_opt text '\n' with
  | Some i -> (
      let first = String.trim (String.sub text 0 i) in
      let rest = String.sub text (i + 1) (String.length text - i - 1) in
      match String.split_on_char ' ' first with
      | [ "register"; "min" ] -> Ok (Register { spec = rest; direction = Minimize })
      | [ "register"; "max" ] -> Ok (Register { spec = rest; direction = Maximize })
      | _ -> Error ("unknown multi-line command: " ^ first))
  | None -> (
      match String.split_on_char ' ' text with
      | [ "query" ] -> Ok Query
      | [ "metrics" ] -> Ok Metrics
      | [ "report"; "failed" ] -> Ok Report_failed
      | [ "report"; value ] -> (
          match float_of_string_opt value with
          | Some v -> Ok (Report v)
          | None -> Error ("bad performance value: " ^ value))
      (* A register with no specification lines still parses (the spec
         is just empty, and registration will reject it) — so every
         journaled message, however degenerate, decodes on replay. *)
      | [ "register"; "min" ] -> Ok (Register { spec = ""; direction = Minimize })
      | [ "register"; "max" ] -> Ok (Register { spec = ""; direction = Maximize })
      | _ -> Error ("unknown command: " ^ text))

let reply_to_string = function
  | Assign assignment ->
      "assign "
      ^ String.concat " "
          (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) assignment)
  | Done { best; performance } ->
      Printf.sprintf "done %s perf=%g"
        (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) best))
        performance
  | Rejected msg -> "error " ^ msg
  | Stats text -> "stats\n" ^ String.trim text

let message_to_string = function
  | Register { spec; direction } ->
      let dir = match direction with Minimize -> "min" | Maximize -> "max" in
      "register " ^ dir ^ "\n" ^ spec
  | Query -> "query"
  (* %.17g round-trips every float through [parse_message] exactly, so
     replaying a journaled report feeds the controller the same bits. *)
  | Report performance -> Printf.sprintf "report %.17g" performance
  | Report_failed -> "report failed"
  | Metrics -> "metrics"

(* ------------------------------------------------------------------ *)
(* Write-ahead journal: event codec                                    *)

module Event = struct
  type t = event = Recv of message | Reply of string | Shed of message

  let encode ~seq = function
    | Recv m -> Printf.sprintf "%d recv %s" seq (message_to_string m)
    | Reply text -> Printf.sprintf "%d reply %s" seq text
    | Shed m -> Printf.sprintf "%d shed %s" seq (message_to_string m)

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

let default_compact_every = 64
let snapshot_magic = "harmony-snapshot"

(* The live set's one owner: the current session. *)
let session_owner = ""

(* Only client messages that can change server state are journaled;
   [Query] is read-only up to idempotent re-issue of the outstanding
   assignment, which deterministic replay regenerates for free. *)
let journaled_wal t message =
  match t.wal with
  | None -> None
  | Some w -> (
      match message with
      | Register _ | Report _ | Report_failed -> Some w
      | Query | Metrics -> None)

(* The session's replayable essence restarts at an *accepted*
   register: a rejected re-register leaves the live session untouched,
   so its events must stay. *)
let keep_handled w message reply ~recv ~rep =
  (match (message, reply) with
  | Register _, (Assign _ | Done _ | Stats _) ->
      Wal.retire w ~owner:session_owner
  | Register _, Rejected _
  | (Query | Report _ | Report_failed | Metrics), _ -> ());
  Wal.keep w ~owner:session_owner recv;
  Wal.keep w ~owner:session_owner rep

(* Every append frames, writes and fsyncs one record. *)
let journal_append tel w ~seq record =
  let frame = Wal.append w ~seq record in
  Telemetry.incr tel "server.journal.appends";
  Telemetry.incr tel "server.journal.fsyncs";
  frame

let compact_if_due tel w =
  if Wal.compact_if_due w then Telemetry.incr tel "server.journal.compactions"

let handle ?ctx t message =
  let tel = t.telemetry in
  t.handled <- t.handled + 1;
  (* A message arriving without a service-derived trace context (direct
     embedding, replay, examples) still gets a deterministic root keyed
     by arrival order, so every handle span carries correlation ids. *)
  let ctx =
    match ctx with
    | Some c -> c
    | None -> Telemetry.Ctx.root ~client:"server" ~seq:t.handled
  in
  Telemetry.span_begin tel "server.handle"
    ~args:
      (("kind", Telemetry.Str (message_kind message)) :: Telemetry.Ctx.args ctx);
  Telemetry.incr tel "server.messages";
  let started = Telemetry.now tel in
  (* Each WAL write (frame + fsync) is its own child span, so the trace
     attributes journal latency separately from search work. *)
  let journal_span w ~seq record =
    let jctx = Telemetry.Ctx.child ctx "server.journal.append" in
    Telemetry.span_begin tel "server.journal.append"
      ~args:(Telemetry.Ctx.args jctx);
    let frame = journal_append tel w ~seq record in
    Telemetry.span_end tel "server.journal.append";
    frame
  in
  let search () =
    let sctx = Telemetry.Ctx.child ctx "server.search" in
    Telemetry.span_begin tel "server.search" ~args:(Telemetry.Ctx.args sctx);
    let reply = handle_total t message in
    Telemetry.span_end tel "server.search";
    reply
  in
  let reply =
    match journaled_wal t message with
    | None -> search ()
    | Some w -> (
        let seq = Wal.seq w + 1 in
        let recv = Event.encode ~seq (Recv message) in
        match Wal.oversize recv with
        | Some reason -> Rejected reason
        | None ->
            (* WAL discipline: the message is durable before any state
               changes, so a crash can lose at most the reply, never an
               applied-but-unlogged mutation. *)
            let recv = journal_span w ~seq recv in
            let reply = search () in
            let rep =
              journal_span w ~seq
                (Event.encode ~seq (Reply (reply_to_string reply)))
            in
            keep_handled w message reply ~recv ~rep;
            compact_if_due tel w;
            reply)
  in
  Telemetry.observe tel
    ~exemplar:(Telemetry.Ctx.trace_id ctx)
    "server.handle_ms"
    (Telemetry.now tel -. started);
  Telemetry.span_end tel "server.handle";
  reply

(* Record an admission-layer rejection: the message never reached
   [handle], but the decision must survive a crash so recovery can
   replay the whole reply stream — including rejections —
   byte-for-byte.  The reply is journaled verbatim (admission state is
   not replayable, so replay re-emits it literally).  No-op without an
   attached journal, or for a message too large to journal: an
   undurable rejection loses nothing. *)
let journal_shed t message ~reply =
  match t.wal with
  | None -> ()
  | Some w -> (
      (match message with
      | Register _ | Report _ | Report_failed -> ()
      | Query | Metrics ->
          invalid_arg "Server.journal_shed: message is never journaled");
      let seq = Wal.seq w + 1 in
      let shed = Event.encode ~seq (Shed message) in
      match Wal.oversize shed with
      | Some _ -> ()
      | None ->
          let tel = t.telemetry in
          Wal.keep w ~owner:session_owner (journal_append tel w ~seq shed);
          Wal.keep w ~owner:session_owner
            (journal_append tel w ~seq (Event.encode ~seq (Reply reply)));
          compact_if_due tel w)

let attach_journal ?(compact_every = default_compact_every) ?wrap t ~journal:path
    () =
  if compact_every < 1 then invalid_arg "Server.attach_journal: compact_every < 1";
  Option.iter Wal.close t.wal;
  t.wal <- Some (Wal.attach ?wrap ~magic:snapshot_magic ~compact_every path)

let detach_journal t =
  Option.iter Wal.close t.wal;
  t.wal <- None

(* Re-apply recorded client messages to a fresh server, rebuilding the
   live set from re-encoded events.  Reply records are cross-checks:
   deterministic replay must regenerate the recorded reply
   byte-for-byte, and the first divergence (or a non-monotone seq)
   invalidates everything after it — recovery degrades to the longest
   self-consistent prefix.  A [Shed] record is not re-applied (the
   message never touched state); its paired reply is accepted
   literally, which is exactly what makes journaled rejections replay
   byte-for-byte.  [literal] is the pending shed reply's seq. *)
let replay_events server w events =
  let frame seq ev = Frame.encode (Event.encode ~seq ev) in
  let rec go events last_reply literal applied dropped seq =
    match events with
    | [] -> (last_reply, applied, dropped, seq)
    | (s, Recv m) :: rest ->
        if s <= seq then (last_reply, applied, dropped + 1 + List.length rest, seq)
        else
          let reply = handle_total server m in
          keep_handled w m reply ~recv:(frame s (Recv m))
            ~rep:(frame s (Reply (reply_to_string reply)));
          go rest (Some reply) None (applied + 1) dropped s
    | (s, Shed m) :: rest ->
        if s <= seq then (last_reply, applied, dropped + 1 + List.length rest, seq)
        else begin
          Wal.keep w ~owner:session_owner (frame s (Shed m));
          go rest last_reply (Some s) (applied + 1) dropped s
        end
    | (s, Reply text) :: rest -> (
        match literal with
        | Some ls ->
            if s = ls then begin
              Wal.keep w ~owner:session_owner (frame s (Reply text));
              go rest last_reply None applied dropped seq
            end
            else (last_reply, applied, dropped + 1 + List.length rest, seq)
        | None ->
            let consistent =
              s = seq
              &&
              match last_reply with
              | Some r -> String.equal (reply_to_string r) text
              | None -> false
            in
            if consistent then go rest last_reply None applied dropped seq
            else (last_reply, applied, dropped + 1 + List.length rest, seq))
  in
  go events None None 0 0 0

type recovery = {
  server : t;
  last_reply : reply option;
  replayed : int;
  dropped : int;
}

let recover ?options ?max_report_failures ?reject_reregister ?telemetry
    ?(compact_every = default_compact_every) ~journal:path () =
  if compact_every < 1 then invalid_arg "Server.recover: compact_every < 1";
  let server =
    create ?options ?max_report_failures ?reject_reregister ?telemetry ()
  in
  let w, events, dropped_load =
    Wal.reopen ~magic:snapshot_magic ~decode:Event.decode ~compact_every path
  in
  let last_reply, replayed, dropped_replay, seq =
    replay_events server w events
  in
  server.wal <- Some w;
  Wal.checkpoint w ~seq;
  let dropped = dropped_load + dropped_replay in
  Telemetry.gauge server.telemetry "server.recovery.replayed"
    (float_of_int replayed);
  Telemetry.gauge server.telemetry "server.recovery.dropped"
    (float_of_int dropped);
  { server; last_reply; replayed; dropped }

(* ------------------------------------------------------------------ *)
(* Reconstructing the measurement trace from a journal                 *)

let assignment_of_reply_text text =
  match String.split_on_char ' ' text with
  | "assign" :: pairs when pairs <> [] ->
      let parse pair =
        match String.index_opt pair '=' with
        | None -> None
        | Some i -> (
            match
              int_of_string_opt
                (String.sub pair (i + 1) (String.length pair - i - 1))
            with
            | Some v -> Some (String.sub pair 0 i, v)
            | None -> None)
      in
      let parsed = List.filter_map parse pairs in
      if List.length parsed = List.length pairs then Some parsed else None
  | _ -> None

let journal_evaluations path =
  let events, _dropped =
    Wal.load ~magic:snapshot_magic ~decode:Event.decode path
  in
  let current = ref [] in
  let last_assign = ref None in
  (* A register tentatively restarts the trace; the paired reply at the
     same seq can veto it (an "error" reply means the old session
     survived). *)
  let pending = ref None in
  List.iter
    (fun (seq, ev) ->
      (match !pending with
      | Some (ps, _, _) when seq > ps -> pending := None
      | Some _ | None -> ());
      match ev with
      | Recv (Register _) ->
          pending := Some (seq, !current, !last_assign);
          current := [];
          last_assign := None
      | Recv (Report performance) -> (
          match !last_assign with
          | Some assignment -> current := (assignment, performance) :: !current
          | None -> ())
      | Recv Report_failed | Recv Query | Recv Metrics -> ()
      (* A shed message was never applied: it contributes no
         evaluation, and its literal "error ..." reply matches no
         pending register (sheds never set [pending]). *)
      | Shed _ -> ()
      | Reply text -> (
          if String.starts_with ~prefix:"error" text then (
            match !pending with
            | Some (ps, saved, saved_assign) when ps = seq ->
                current := saved;
                last_assign := saved_assign;
                pending := None
            | Some _ | None -> ())
          else
            match assignment_of_reply_text text with
            | Some assignment -> last_assign := Some assignment
            | None -> ()))
    events;
  List.rev !current

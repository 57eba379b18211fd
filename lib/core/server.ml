open Harmony_param
open Harmony_objective
module Telemetry = Harmony_telemetry.Telemetry
module Export = Harmony_telemetry.Export
module Text = Harmony_persist.Text

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

(* A registered spec text compiled once: sessions that register the
   same text share it, and it leaves the table with its last user. *)
type compiled = {
  text : string;
  rsl : Rsl.t;
  space : Space.t;
  names : string list;
  mutable users : int;  (* live sessions holding it *)
}

type specs = (string, compiled) Hashtbl.t

let specs () : specs = Hashtbl.create 1

type session = {
  spec : compiled;
  controller : Controller.t;
  direction : Objective.direction;
  mutable outstanding : (string * int) list option;
      (* assignment awaiting its performance report *)
  mutable outstanding_failures : int;
      (* consecutive [report failed] for the outstanding assignment *)
}

type t = {
  specs : specs;
  options : Simplex.options;
  max_report_failures : int;
  reject_reregister : bool;
  telemetry : Telemetry.t;
  messages : Telemetry.counter;  (* server.messages *)
  handle_ms : Telemetry.histogram;  (* server.handle_ms *)
  mutable session : session option;
  mutable handled : int;  (* messages ever handled; seeds fallback trace roots *)
}

let create ?specs:shared ?(options = Simplex.default_options)
    ?(max_report_failures = 3) ?(reject_reregister = false)
    ?(telemetry = Telemetry.off) () =
  if max_report_failures < 1 then
    invalid_arg "Server.create: max_report_failures < 1";
  let specs = match shared with Some table -> table | None -> specs () in
  (* A service creates a server per session on a shared shard handle;
     these resolve to the shard's existing slots. *)
  { specs; options; max_report_failures; reject_reregister; telemetry;
    messages = Telemetry.counter telemetry "server.messages";
    handle_ms = Telemetry.histogram telemetry "server.handle_ms";
    session = None; handled = 0 }

let assignment_of_config session config =
  (* Proposals come from the box space; project into the restricted
     region so the client only ever runs meaningful configurations.
     The controller is told the performance of its own proposal — the
     projection distance is at most one conditional-range clamp, the
     same approximation Rsl.repair-based tuning makes everywhere. *)
  let feasible = Rsl.repair session.spec.rsl config in
  let rec pair i = function
    | [] -> []
    | name :: rest -> (name, int_of_float feasible.(i)) :: pair (i + 1) rest
  in
  pair 0 session.spec.names

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
      let best = assignment_of_config session outcome.Simplex.best_config in
      Done { best; performance = outcome.Simplex.best_performance }

(* The compiled form of [text]: the table's when a live session
   registered the same text, else parsed afresh (and kept only once a
   session holds it, so a text that fails never enters the table). *)
let compile specs text =
  match Hashtbl.find_opt specs text with
  | Some compiled -> Ok compiled
  | None -> (
      match Rsl.parse text with
      | exception Rsl.Parse_error msg -> Error ("bad specification: " ^ msg)
      | rsl -> (
          match Rsl.to_space rsl with
          | exception Invalid_argument msg -> Error msg
          | space -> Ok { text; rsl; space; names = Rsl.names rsl; users = 0 }))

let hold specs compiled =
  if compiled.users = 0 then Hashtbl.replace specs compiled.text compiled;
  compiled.users <- compiled.users + 1

(* Drop the live session, if any; its spec leaves the table with its
   last user. *)
let close t =
  match t.session with
  | None -> ()
  | Some { spec; _ } ->
      t.session <- None;
      spec.users <- spec.users - 1;
      if spec.users = 0 then Hashtbl.remove t.specs spec.text

(* The [kind] arg of a [server.handle] span; constants, so naming the
   kind allocates nothing. *)
let kind_args = function
  | Register _ -> Some [ ("kind", Telemetry.Str "register") ]
  | Query -> Some [ ("kind", Telemetry.Str "query") ]
  | Report _ -> Some [ ("kind", Telemetry.Str "report") ]
  | Report_failed -> Some [ ("kind", Telemetry.Str "report-failed") ]
  | Metrics -> Some [ ("kind", Telemetry.Str "metrics") ]

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
      match compile t.specs spec with
      | Error msg -> Rejected msg
      | Ok compiled -> (
          let direction =
            match direction with
            | Minimize -> Objective.Lower_is_better
            | Maximize -> Objective.Higher_is_better
          in
          (* A structurally valid spec can still be untunable — e.g. a
             single feasible point gives the search kernel a degenerate
             initial simplex.  [handle] is total: such specs are
             rejected, never raised (the fuzz suite drives this with
             arbitrary generated specs). *)
          match
            Controller.create ~telemetry:t.telemetry ~options:t.options
              ~space:compiled.space ~direction ()
          with
          | exception Invalid_argument msg ->
              Rejected ("untunable specification: " ^ msg)
          | controller ->
              let session =
                {
                  spec = compiled;
                  controller;
                  direction;
                  outstanding = None;
                  outstanding_failures = 0;
                }
              in
              (* Held before the old session lets go, so re-registering
                 the same text never recompiles it. *)
              hold t.specs compiled;
              close t;
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
          (* An outstanding assignment is the controller's pending
             measurement ([next_reply] set it from [`Measure]). *)
          session.outstanding <- None;
          session.outstanding_failures <- 0;
          Controller.report session.controller performance;
          next_reply session)
  | Report_failed, Some session -> (
      match session.outstanding with
      | None -> Rejected "no assignment outstanding"
      | Some assignment ->
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
            session.outstanding <- None;
            session.outstanding_failures <- 0;
            Controller.report session.controller
              (Measure.penalty_for session.direction);
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
      close t;
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

(* Replies and messages are rendered for every message a service
   handles, and twice more for each one it journals, so they are built
   directly into one buffer: no [Printf] and no intermediate strings
   (DESIGN.md §12).  The bytes are those of the [Printf] formats
   [assign %s=%d ...] and [done %s=%d ... perf=%g]. *)

(* ["n1=v1 n2=v2 ..."] *)
let assignment_length assignment =
  List.fold_left
    (fun len (name, v) -> len + 1 + String.length name + 1 + Text.int_length v)
    (-1) assignment

let blit_assignment b pos assignment =
  let pair pos (name, v) =
    Text.blit_int b (Text.blit_string b (Text.blit_string b pos name) "=") v
  in
  match assignment with
  | [] -> pos
  | first :: rest ->
      List.fold_left
        (fun pos p -> pair (Text.blit_string b pos " ") p)
        (pair pos first) rest

let render_assignment ~prefix ?(suffix = "") assignment =
  let b =
    Bytes.create
      (String.length prefix
      + Int.max 0 (assignment_length assignment)
      + String.length suffix)
  in
  let pos = blit_assignment b (Text.blit_string b 0 prefix) assignment in
  ignore (Text.blit_string b pos suffix : int);
  Bytes.unsafe_to_string b

let reply_to_string = function
  | Assign assignment -> render_assignment ~prefix:"assign " assignment
  | Done { best; performance } ->
      render_assignment ~prefix:"done " best
        ~suffix:(" perf=" ^ Text.float_g performance)
  | Rejected msg -> "error " ^ msg
  | Stats text -> "stats\n" ^ String.trim text

let message_to_string = function
  | Register { spec; direction = Minimize } -> "register min\n" ^ spec
  | Register { spec; direction = Maximize } -> "register max\n" ^ spec
  | Query -> "query"
  (* %.17g round-trips every float through [parse_message] exactly, so
     replaying a journaled report feeds the controller the same bits. *)
  | Report performance -> "report " ^ Text.float_17g performance
  | Report_failed -> "report failed"
  | Metrics -> "metrics"

let handle ?ctx t message =
  let tel = t.telemetry in
  t.handled <- t.handled + 1;
  if not (Telemetry.enabled tel) then handle_total t message
  else begin
    (* A message arriving without a service-derived trace context
       (direct embedding, replay, examples) still gets a deterministic
       root keyed by arrival order, so every handle span carries
       correlation ids. *)
    let ctx =
      match ctx with
      | Some _ -> ctx
      | None -> Some (Telemetry.Ctx.root ~client:"server" ~seq:t.handled)
    in
    Telemetry.span_begin tel ?ctx ?args:(kind_args message) "server.handle";
    Telemetry.add t.messages 1;
    let started = Telemetry.now tel in
    (* The search span's own context is built only for a handle that
       keeps events: any other reads just the trace id, which the
       child shares with [ctx]. *)
    let search_ctx =
      match ctx with
      | Some c when Telemetry.retains_events tel ->
          Some (Telemetry.Ctx.child c "server.search")
      | Some _ | None -> ctx
    in
    Telemetry.span_begin tel ?ctx:search_ctx "server.search";
    let reply = handle_total t message in
    Telemetry.span_end tel "server.search";
    Telemetry.observe_into ?ctx t.handle_ms (Telemetry.now tel -. started);
    Telemetry.span_end tel "server.handle";
    reply
  end

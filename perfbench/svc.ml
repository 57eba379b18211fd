(* The service workloads, svc-mem and svc-wal.

   A closed loop of simulated clients drives [Service.handle_batch_env]
   on one domain, with no pool.  Each call carries 64 messages taken
   round-robin from the live population, over 4 shards, with admission
   on at its defaults.  A client registers a 4-bundle spec with chained
   bounds, reports a seeded bowl for each assignment (about 5% of its
   messages are idempotent queries, at most one is [report failed]),
   and deregisters after [done]; its slot is then taken by a new
   client, so the live population stays constant.

   The timed loop keeps one digest per conversation.  After the timed
   rounds, every conversation is replayed against a dedicated
   single-session [Server] and must reproduce its digest. *)

open Harmony
module Service = Harmony_service.Service
module Admission = Harmony_service.Admission
module Persist = Harmony_persist.Persist
module Telemetry = Harmony_telemetry.Telemetry
module Flight = Harmony_telemetry.Flight
module Rng = Harmony_numerics.Rng

let spec =
  String.concat "\n"
    [
      "{ harmonyBundle P0 { int {1 16 1} }}";
      "{ harmonyBundle P1 { int {1 20-$P0 1} }}";
      "{ harmonyBundle P2 { int {1 20-$P1 1} }}";
      "{ harmonyBundle P3 { int {1 20-$P2 1} }}";
    ]

let options = { Simplex.default_options with Simplex.max_evaluations = 30 }
let shards = 4
let per_call = 64

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)

type phase = Registering | Tuning | Leaving | Gone

type client = {
  serial : int;  (* position of the conversation in the seeded stream *)
  id : string;
  rng : Rng.t;
  direction : Server.direction;
  peaks : float array;
  mutable phase : phase;
  mutable assign : (string * int) list;
  mutable fail_budget : int;
  mutable sent : int;
  mutable start : int;  (* messages sent before the timed stream *)
  mutable digest : int;  (* FNV-1a over every reply text *)
  mutable reports : int;
  mutable closeness : float;  (* 100 minus the bowl at the final best *)
}

let make_client ~seed serial =
  let rng = Rng.create ((seed lsl 20) lxor serial) in
  let direction = if Rng.bool rng then Server.Maximize else Server.Minimize in
  let peaks =
    Array.init 4 (fun i ->
        float_of_int (Rng.int_in rng 1 (if i = 0 then 16 else 10)))
  in
  {
    serial;
    id = "c" ^ string_of_int serial;
    rng;
    direction;
    peaks;
    phase = Registering;
    assign = [];
    fail_budget = 1;
    sent = 0;
    start = 0;
    digest = Meter.fnv_offset;
    reports = 0;
    closeness = 0.0;
  }

let bowl c assignment =
  List.fold_left
    (fun (i, acc) (_, v) ->
      let d = float_of_int v -. c.peaks.(i mod 4) in
      (i + 1, acc +. (d *. d)))
    (0, 0.0) assignment
  |> snd

let respond c assignment =
  match c.direction with
  | Server.Maximize -> 100.0 -. bowl c assignment
  | Server.Minimize -> bowl c assignment

(* The client's next message; draws from its own stream only. *)
let next_message c =
  c.sent <- c.sent + 1;
  match c.phase with
  | Registering ->
      Service.Client
        {
          client = c.id;
          payload = Server.Register { spec; direction = c.direction };
        }
  | Tuning ->
      let payload =
        match Rng.int c.rng 20 with
        | 0 -> Server.Query
        | 1 when c.fail_budget > 0 ->
            c.fail_budget <- 0;
            Server.Report_failed
        | _ ->
            c.reports <- c.reports + 1;
            Server.Report (respond c c.assign)
      in
      Service.Client { client = c.id; payload }
  | Leaving | Gone -> Service.Deregister { client = c.id }

(* Fold the reply into the digest and advance; [false] for a reply the
   conversation never expects (a rejection or a service error). *)
let on_reply c reply =
  c.digest <- Meter.fnv c.digest (Service.reply_to_string reply);
  match reply with
  | Service.Client_reply { reply = Server.Assign a; _ } ->
      c.phase <- Tuning;
      c.assign <- a;
      true
  | Service.Client_reply { reply = Server.Done { best; _ }; _ } ->
      c.phase <- Leaving;
      c.closeness <- 100.0 -. bowl c best;
      true
  | Service.Deregistered _ ->
      c.phase <- Gone;
      true
  | Service.Client_reply { reply = Server.Rejected _ | Server.Stats _; _ }
  | Service.Service_stats _ | Service.Flight_dump _ | Service.Service_error _ ->
      false

(* ------------------------------------------------------------------ *)
(* The persist meter: a sink wrapper on every shard journal            *)

(* Counts are kept while [counting] (the timed stream); with a tracer
   every call is also timed and recorded as a child span.  Compaction
   time runs from the shard's last fsync returning (the reply that
   crossed the threshold) to the end of its journal reset. *)
type persist = {
  mutable counting : bool;
  mutable tracer : Meter.tracer option;
  mutable syncs : int;
  mutable journal_bytes : int;
  mutable snapshot_bytes : int;
  mutable compactions : int;
  mutable write_s : float;
  mutable sync_s : float;
  mutable compact_s : float;
  last_sync : float array;
}

let persist_meter () =
  {
    counting = false;
    tracer = None;
    syncs = 0;
    journal_bytes = 0;
    snapshot_bytes = 0;
    compactions = 0;
    write_s = 0.0;
    sync_s = 0.0;
    compact_s = 0.0;
    last_sync = Array.make shards 0.0;
  }

let file_size path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error _ -> 0

let wrap p ~journal ~shard (sink : Persist.sink) =
  let snapshot = Service.shard_journal ~journal ~shard ^ ".snapshot" in
  let write s =
    match p.tracer with
    | None ->
        sink.Persist.write s;
        if p.counting then p.journal_bytes <- p.journal_bytes + String.length s
    | Some tr ->
        let t0 = Meter.now () in
        sink.Persist.write s;
        let t1 = Meter.now () in
        if p.counting then begin
          p.journal_bytes <- p.journal_bytes + String.length s;
          p.write_s <- p.write_s +. (t1 -. t0);
          Meter.child tr "persist.write" t0 t1
        end
  in
  let sync () =
    match p.tracer with
    | None ->
        sink.Persist.sync ();
        if p.counting then p.syncs <- p.syncs + 1
    | Some tr ->
        let t0 = Meter.now () in
        sink.Persist.sync ();
        let t1 = Meter.now () in
        p.last_sync.(shard) <- t1;
        if p.counting then begin
          p.syncs <- p.syncs + 1;
          p.sync_s <- p.sync_s +. (t1 -. t0);
          Meter.child tr "persist.fsync" t0 t1
        end
  in
  let reset () =
    sink.Persist.reset ();
    if p.counting then begin
      p.compactions <- p.compactions + 1;
      p.snapshot_bytes <- p.snapshot_bytes + file_size snapshot;
      match p.tracer with
      | None -> ()
      | Some tr ->
          let t1 = Meter.now () in
          let t0 = p.last_sync.(shard) in
          p.compact_s <- p.compact_s +. (t1 -. t0);
          Meter.child tr "persist.compact" t0 t1
    end
  in
  { sink with Persist.write; sync; reset }

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

type conversation = { c_serial : int; c_sent : int; c_start : int; c_digest : int }

let conversation c =
  { c_serial = c.serial; c_sent = c.sent; c_start = c.start; c_digest = c.digest }

type world = {
  seed : int;
  service : Service.t;
  slots : client array;
  mutable next_serial : int;
  mutable cursor : int;
  mutable retired : conversation list;  (* newest first *)
  mutable failed : int;
  (* Figures of the timed stream. *)
  mutable timing : bool;
  mutable calls : int;
  mutable latencies : float list;
  mutable minor_words : float;
  mutable finished : int;
  mutable reports : float list;  (* per finished session *)
  mutable closeness : float list;
  mutable heap_words : int;
}

let world ~seed service slots ~next_serial =
  {
    seed;
    service;
    slots;
    next_serial;
    cursor = 0;
    retired = [];
    failed = 0;
    timing = false;
    calls = 0;
    latencies = [];
    minor_words = 0.0;
    finished = 0;
    reports = [];
    closeness = [];
    heap_words = 0;
  }

(* One [handle_batch_env] call carrying the next message of each client
   in [picked] (slot indices). *)
let call ?tracer w picked =
  let clients = Array.map (fun i -> w.slots.(i)) picked in
  let envelopes =
    Array.to_list
      (Array.map (fun c -> Service.envelope (next_message c)) clients)
  in
  let words0 = Gc.minor_words () in
  let t0 = Meter.now () in
  (match tracer with
  | Some tr -> Meter.op_begin tr ~seq:w.calls "service.handle_batch_env" t0
  | None -> ());
  let replies =
    match Service.handle_batch_env w.service envelopes with
    | replies -> replies
    | exception e ->
        Printf.eprintf "perfbench: the service raised %s\n%!"
          (Printexc.to_string e);
        []
  in
  let t1 = Meter.now () in
  (match tracer with
  | Some tr -> Meter.op_end tr "service.handle_batch_env" t1
  | None -> ());
  let words1 = Gc.minor_words () in
  if w.timing then begin
    w.calls <- w.calls + 1;
    w.latencies <- (t1 -. t0) :: w.latencies;
    w.minor_words <- w.minor_words +. (words1 -. words0);
    w.heap_words <- max w.heap_words (Meter.heap_words ())
  end;
  if List.length replies <> Array.length clients then
    w.failed <- w.failed + Array.length clients
  else
    List.iteri
      (fun k reply ->
        let c = clients.(k) in
        if not (on_reply c reply) then w.failed <- w.failed + 1;
        match c.phase with
        | Gone ->
            if w.timing then begin
              w.finished <- w.finished + 1;
              w.reports <- float_of_int c.reports :: w.reports;
              w.closeness <- c.closeness :: w.closeness
            end;
            w.retired <- conversation c :: w.retired;
            w.slots.(picked.(k)) <- make_client ~seed:w.seed w.next_serial;
            w.next_serial <- w.next_serial + 1
        | Registering | Tuning | Leaving -> ())
      replies

(* Every live client registers, in calls of [per_call]. *)
let register_all w =
  let n = Array.length w.slots in
  let rec go first =
    if first < n then begin
      call w (Array.init (min per_call (n - first)) (fun k -> first + k));
      go (first + per_call)
    end
  in
  go 0

(* [calls] round-robin calls of [per_call] messages each. *)
let drive ?tracer w ~calls =
  let n = Array.length w.slots in
  for _ = 1 to calls do
    let picked = Array.init per_call (fun k -> (w.cursor + k) mod n) in
    w.cursor <- (w.cursor + per_call) mod n;
    call ?tracer w picked
  done

let conversations w =
  List.rev_append w.retired (Array.to_list (Array.map conversation w.slots))

(* ------------------------------------------------------------------ *)
(* Verification replay                                                 *)

(* Server time of the replay, per message kind; [timed_s] covers only
   the messages a conversation sent in the timed stream. *)
type server_meter = {
  kinds : (string, float ref * int ref) Hashtbl.t;
  mutable timed_s : float;
  mutable calls : int;
}

let kind_of = function
  | Server.Register _ -> "register"
  | Server.Report _ | Server.Report_failed -> "report"
  | Server.Query -> "query"
  | Server.Metrics -> "metrics"

(* Replay one conversation against a dedicated single-session server
   with the service's options; [true] when its digest is reproduced. *)
let replay ~seed ?tracer sm conv =
  let c = make_client ~seed conv.c_serial in
  let server = Server.create ~options ~reject_reregister:true () in
  for i = 1 to conv.c_sent do
    let reply =
      match next_message c with
      | Service.Client { client; payload } ->
          let t0 = Meter.now () in
          let r = Server.handle server payload in
          let t1 = Meter.now () in
          let kind = kind_of payload in
          let total, count =
            match Hashtbl.find_opt sm.kinds kind with
            | Some cell -> cell
            | None ->
                let cell = (ref 0.0, ref 0) in
                Hashtbl.replace sm.kinds kind cell;
                cell
          in
          total := !total +. (t1 -. t0);
          incr count;
          sm.calls <- sm.calls + 1;
          if i > conv.c_start then sm.timed_s <- sm.timed_s +. (t1 -. t0);
          (match tracer with
          | Some tr ->
              Meter.op_begin tr ~seq:sm.calls "server.handle" t0;
              Meter.op_end tr "server.handle" t1
          | None -> ());
          Service.Client_reply { client; reply = r }
      | Service.Deregister { client } -> Service.Deregistered { client }
      | (Service.Service_metrics | Service.Dump_flight) as m ->
          Service.Service_error (Service.message_to_string m)
    in
    ignore (on_reply c reply)
  done;
  c.digest = conv.c_digest

let verify ~seed ?tracer convs =
  let sm = { kinds = Hashtbl.create 4; timed_s = 0.0; calls = 0 } in
  let mismatches =
    List.fold_left
      (fun acc conv -> if replay ~seed ?tracer sm conv then acc else acc + 1)
      0 convs
  in
  (mismatches, sm)

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)

let service_telemetry _shard =
  Telemetry.create ~record_events:false ~flight:(Flight.create ~capacity:256) ()

let admission_counts service =
  let m = Service.merged_telemetry service in
  ( Telemetry.counter_value m Admission.c_admitted,
    Telemetry.counter_value m Admission.c_rejected )

let create_service () =
  Service.create ~options ~telemetry:service_telemetry
    ~admission:Admission.default_config ~shards ()

(* Live clients and timed calls of one round.  svc-wal's round starts
   by recovering the journals of [prefix_calls] untimed calls. *)
type shape = { live : int; calls : int }

let mem_shape = { live = 2000; calls = 2000 }
let wal_shape = { live = 256; calls = 300 }
let prefix_calls = 64

type outcome = {
  round : Meter.round;
  seed : int;  (* the round's stream *)
  convs : conversation list;
}

(* The timed stream shared by both workloads: [shape.calls] calls on
   [w], then the round's figures. *)
let timed_stream ?tracer w p ~shape ~setup_s ~recovered =
  Array.iter (fun c -> c.start <- c.sent) w.slots;
  let admitted0, rejected0 = admission_counts w.service in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  w.timing <- true;
  p.counting <- true;
  p.tracer <- tracer;
  drive ?tracer w ~calls:shape.calls;
  p.counting <- false;
  p.tracer <- None;
  w.timing <- false;
  let major1 = (Gc.quick_stat ()).Gc.major_collections in
  let admitted1, rejected1 = admission_counts w.service in
  let ops = shape.calls * per_call in
  let convs = conversations w in
  let outcomes = Array.of_list (List.map (fun cv -> cv.c_digest) convs) in
  let replayed, dropped = Option.value recovered ~default:(0, 0) in
  let latencies = Array.of_list (List.rev w.latencies) in
  let busy_s = Array.fold_left ( +. ) 0.0 latencies in
  let us_per_op s = s *. 1e6 /. float_of_int ops in
  let round =
    {
      Meter.setup_s;
      latencies;
      busy_s;
      ops;
      failed = w.failed + (rejected1 - rejected0);
      counts =
        [
          ("ops", ops);
          ("conversations", List.length convs);
          ("finished", w.finished);
          ("admission.admitted", admitted1 - admitted0);
          ("admission.rejected", rejected1 - rejected0);
          ("persist.fsyncs", p.syncs);
          ("persist.journal_bytes", p.journal_bytes);
          ("persist.snapshot_bytes", p.snapshot_bytes);
          ("persist.compactions", p.compactions);
          ("persist.recover_replayed", replayed);
          ("persist.recover_dropped", dropped);
        ];
      gc =
        [
          ("gc.minor_words", int_of_float w.minor_words);
          ("gc.major_collections", major1 - major0);
        ];
      quality = [ ("converge_evals", w.reports); ("tuned_wips", w.closeness) ];
      layers =
        [
          ("op_us", us_per_op busy_s);
          ("persist.write_us_per_op", us_per_op p.write_s);
          ("persist.fsync_us_per_op", us_per_op p.sync_s);
          ("persist.compact_us_per_op", us_per_op p.compact_s);
          ( "persist.compact_ms",
            if p.compactions = 0 then 0.0
            else p.compact_s *. 1e3 /. float_of_int p.compactions );
        ];
      outcomes;
      digest = Meter.hex (Array.fold_left Meter.fnv_int Meter.fnv_offset outcomes);
      heap_words = w.heap_words;
    }
  in
  { round; seed = w.seed; convs }

let fresh_world ~seed service shape =
  world ~seed service (Array.init shape.live (make_client ~seed))
    ~next_serial:shape.live

(* svc-mem: set-up creates the service and registers the first 2000
   clients. *)
let mem_round ~seed ?tracer () =
  let t0 = Meter.now () in
  let w = fresh_world ~seed (create_service ()) mem_shape in
  register_all w;
  let setup_s = Meter.now () -. t0 in
  timed_stream ?tracer w (persist_meter ()) ~shape:mem_shape ~setup_s
    ~recovered:None

(* svc-wal: an untimed journaled prefix leaves every client
   mid-conversation; set-up is [Service.recover] from its journals, and
   the timed stream continues those conversations on the recovered
   service. *)
let wal_round ~seed ~dir ?tracer () =
  let journal = Filename.concat dir "svc.journal" in
  let files =
    List.concat_map
      (fun shard ->
        let j = Service.shard_journal ~journal ~shard in
        [ j; j ^ ".tmp"; j ^ ".snapshot"; j ^ ".snapshot.tmp" ])
      (List.init shards Fun.id)
  in
  let p = persist_meter () in
  let before = create_service () in
  Service.attach_journals ~wrap:(wrap p ~journal) before ~journal ();
  let w = fresh_world ~seed before wal_shape in
  register_all w;
  drive w ~calls:prefix_calls;
  Service.detach_journals before;
  let t0 = Meter.now () in
  let r =
    Service.recover ~options ~telemetry:service_telemetry
      ~admission:Admission.default_config ~wrap:(wrap p ~journal) ~shards
      ~journal ()
  in
  let setup_s = Meter.now () -. t0 in
  let w = { w with service = r.Service.service } in
  let outcome =
    timed_stream ?tracer w p ~shape:wal_shape ~setup_s
      ~recovered:(Some (r.Service.replayed, r.Service.dropped))
  in
  Service.detach_journals r.Service.service;
  List.iter Persist.remove_if_exists files;
  outcome

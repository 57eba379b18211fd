(* The journal and protocol text codec against the [Printf] encoders it
   replaced, kept here as they stood:

   - [Server.reply_to_string] with [%s=%d] pairs and [perf=%g];
   - [Server.message_to_string] with [report %.17g];
   - [Service.message_to_string]/[reply_to_string] prefixing the client
     with [^];
   - [Service.Event.encode] as [%d recv %s], [%d reply %s] and
     [%d shed %s].

   QCheck drives both sides with random ids, names, integers and float
   bit patterns, with the corner cases grafted in: +-0.0, subnormals,
   nan, +-infinity, integral values, 1e300, 0, negatives, [min_int] and
   [max_int].  Every string must agree byte for byte. *)

open Harmony
module Service = Harmony_service.Service
module Text = Harmony_persist.Text
module Gen = QCheck2.Gen

let seed = [| 0x5eed; 22 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make seed) t

(* ------------------------------------------------------------------ *)
(* Reference encoders                                                  *)

let ref_pairs assignment =
  String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) assignment)

let ref_server_reply = function
  | Server.Assign assignment -> "assign " ^ ref_pairs assignment
  | Server.Done { best; performance } ->
      Printf.sprintf "done %s perf=%g" (ref_pairs best) performance
  | Server.Rejected msg -> "error " ^ msg
  | Server.Stats text -> "stats\n" ^ String.trim text

let ref_server_message = function
  | Server.Register { spec; direction } ->
      let dir =
        match direction with Server.Minimize -> "min" | Server.Maximize -> "max"
      in
      "register " ^ dir ^ "\n" ^ spec
  | Server.Query -> "query"
  | Server.Report performance -> Printf.sprintf "report %.17g" performance
  | Server.Report_failed -> "report failed"
  | Server.Metrics -> "metrics"

let ref_message = function
  | Service.Client { client; payload } ->
      client ^ " " ^ ref_server_message payload
  | Service.Deregister { client } -> client ^ " done"
  | Service.Service_metrics -> "service-metrics"
  | Service.Dump_flight -> "dump-flight"

let ref_reply = function
  | Service.Client_reply { client; reply } ->
      client ^ " " ^ ref_server_reply reply
  | Service.Deregistered { client } -> client ^ " bye"
  | Service.Service_stats text -> "stats\n" ^ String.trim text
  | Service.Flight_dump text -> "flight\n" ^ String.trim text
  | Service.Service_error msg -> "error " ^ msg

let ref_event ~seq = function
  | Service.Event.Recv m -> Printf.sprintf "%d recv %s" seq (ref_message m)
  | Service.Event.Reply text -> Printf.sprintf "%d reply %s" seq text
  | Service.Event.Shed m -> Printf.sprintf "%d shed %s" seq (ref_message m)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let corner_floats =
  [ 0.0; -0.0; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity;
    4.9406564584124654e-324; 2.2250738585072009e-308; Float.min_float;
    Float.max_float; 1e300; -1e300; 1.0; -7.0; 42.0; 1e15; 9007199254740992.0;
    0.1; 57.0; 100.0 ]

let gen_float =
  Gen.frequency
    [
      (3, Gen.oneofl corner_floats);
      (3, Gen.map Int64.float_of_bits Gen.int64);
      (2, Gen.map float_of_int (Gen.int_range (-1_000_000) 1_000_000));
      (2, Gen.float);
    ]

let corner_ints = [ 0; 1; -1; 9; 10; -10; 99; 100; min_int; max_int; min_int + 1 ]

let gen_int =
  Gen.frequency
    [ (2, Gen.oneofl corner_ints); (3, Gen.int); (3, Gen.int_range (-1000) 1000) ]

let gen_name = Gen.string_size ~gen:Gen.printable (Gen.int_range 0 12)

let gen_assignment = Gen.list_size (Gen.int_range 0 5) (Gen.pair gen_name gen_int)

let gen_server_reply =
  Gen.oneof
    [
      Gen.map (fun a -> Server.Assign a) gen_assignment;
      Gen.map2
        (fun best performance -> Server.Done { best; performance })
        gen_assignment gen_float;
      Gen.map (fun m -> Server.Rejected m) gen_name;
      Gen.map (fun m -> Server.Stats m) gen_name;
    ]

let gen_server_message =
  Gen.oneof
    [
      Gen.map2
        (fun spec min ->
          Server.Register
            {
              spec;
              direction = (if min then Server.Minimize else Server.Maximize);
            })
        gen_name Gen.bool;
      Gen.return Server.Query;
      Gen.map (fun f -> Server.Report f) gen_float;
      Gen.return Server.Report_failed;
      Gen.return Server.Metrics;
    ]

let gen_message =
  Gen.oneof
    [
      Gen.map2
        (fun client payload -> Service.Client { client; payload })
        gen_name gen_server_message;
      Gen.map (fun client -> Service.Deregister { client }) gen_name;
      Gen.return Service.Service_metrics;
      Gen.return Service.Dump_flight;
    ]

let gen_reply =
  Gen.oneof
    [
      Gen.map2
        (fun client reply -> Service.Client_reply { client; reply })
        gen_name gen_server_reply;
      Gen.map (fun client -> Service.Deregistered { client }) gen_name;
      Gen.map (fun t -> Service.Service_stats t) gen_name;
      Gen.map (fun t -> Service.Flight_dump t) gen_name;
      Gen.map (fun t -> Service.Service_error t) gen_name;
    ]

let gen_event =
  Gen.oneof
    [
      Gen.map (fun m -> Service.Event.Recv m) gen_message;
      Gen.map (fun m -> Service.Event.Shed m) gen_message;
      Gen.map (fun t -> Service.Event.Reply t) gen_name;
    ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let agree name count gen ~print reference encode =
  QCheck2.Test.make ~name ~count ~print gen (fun x ->
      let expected = reference x and got = encode x in
      if String.equal expected got then true
      else QCheck2.Test.fail_reportf "expected %S, got %S" expected got)

let prop_ints =
  agree "digits equal string_of_int" 2000 gen_int ~print:string_of_int
    string_of_int (fun n ->
      let b = Bytes.create (Text.int_length n) in
      ignore (Text.blit_int b 0 n : int);
      Bytes.unsafe_to_string b)

let prop_float_17g =
  agree "float_17g equals %.17g" 2000 gen_float ~print:(Printf.sprintf "%h")
    (Printf.sprintf "%.17g") Text.float_17g

let prop_float_g =
  agree "float_g equals %g" 2000 gen_float ~print:(Printf.sprintf "%h")
    (Printf.sprintf "%g") Text.float_g

let prop_server_reply =
  agree "server replies equal Printf" 1000 gen_server_reply
    ~print:ref_server_reply ref_server_reply Server.reply_to_string

let prop_server_message =
  agree "server messages equal Printf" 1000 gen_server_message
    ~print:ref_server_message ref_server_message Server.message_to_string

let prop_service_text =
  QCheck2.Test.make ~name:"service messages and replies equal Printf"
    ~count:1000 (Gen.pair gen_message gen_reply) (fun (m, r) ->
      String.equal (ref_message m) (Service.message_to_string m)
      && String.equal (ref_reply r) (Service.reply_to_string r))

let prop_event =
  agree "event records equal Printf" 2000 (Gen.pair gen_int gen_event)
    ~print:(fun (seq, ev) -> ref_event ~seq ev)
    (fun (seq, ev) -> ref_event ~seq ev)
    (fun (seq, ev) -> Service.Event.encode ~seq ev)

let suite =
  List.map to_alcotest
    [
      prop_ints;
      prop_float_17g;
      prop_float_g;
      prop_server_reply;
      prop_server_message;
      prop_service_text;
      prop_event;
    ]

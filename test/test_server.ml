open Harmony
module Rsl = Harmony_param.Rsl

let paper_spec =
  "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {1 9-$B 1} }}"

(* Response surface over the restricted (B, C) space: peak at B=3, C=4. *)
let respond assignment =
  let v name = float_of_int (List.assoc name assignment) in
  let db = v "B" -. 3.0 and dc = v "C" -. 4.0 in
  100.0 -. (db *. db) -. (dc *. dc)

let register server =
  Server.handle server (Server.Register { spec = paper_spec; direction = Server.Maximize })

let test_register_assigns () =
  let server = Server.create () in
  match register server with
  | Server.Assign assignment ->
      Alcotest.(check (list string)) "both bundles" [ "B"; "C" ]
        (List.map fst assignment)
  | _ -> Alcotest.fail "expected an assignment"

let test_register_bad_spec () =
  let server = Server.create () in
  match Server.handle server (Server.Register { spec = "{ nope }"; direction = Server.Maximize }) with
  | Server.Rejected _ -> ()
  | _ -> Alcotest.fail "expected rejection"

(* An integer literal beyond max_int is a malformed specification:
   the client gets a rejection naming the literal, never an exception
   out of the handler. *)
let oversized_spec = "{ harmonyBundle B { int {1 99999999999999999999 1} }}"

let test_register_oversized_literal () =
  let server = Server.create () in
  match
    Server.handle server
      (Server.Register { spec = oversized_spec; direction = Server.Maximize })
  with
  | Server.Rejected msg ->
      Alcotest.(check bool) ("names the literal: " ^ msg) true
        (String.starts_with
           ~prefix:"bad specification: integer literal 99999999999999999999 "
           msg)
  | _ -> Alcotest.fail "expected rejection"

(* Raw specification text, well-formed or not, with long digit runs:
   registering it (and querying after) answers with a reply. *)
let prop_raw_spec_never_raises =
  let open QCheck2.Gen in
  let digits = string_size ~gen:(char_range '0' '9') (int_range 1 40) in
  let piece =
    oneof
      [
        digits;
        map (fun d -> "-" ^ d) digits;
        oneofl
          [ "{"; "}"; "("; ")"; " "; "\n"; "harmonyBundle"; "int"; "B"; "C";
            "$B"; "+"; "*"; "/"; "#"; "x9" ];
      ]
  in
  let raw = map (String.concat " ") (list_size (int_range 0 30) piece) in
  let templated =
    map
      (fun (lo, hi, step) ->
        Printf.sprintf "{ harmonyBundle B { int {%s %s %s} }}" lo hi step)
      (triple digits digits digits)
  in
  QCheck2.Test.make ~name:"raw spec text never raises" ~count:300
    ~print:(fun s -> s)
    (oneof [ raw; templated ])
    (fun spec ->
      let server = Server.create () in
      ignore
        (Server.handle server
           (Server.Register { spec; direction = Server.Maximize }));
      ignore (Server.handle server Server.Query);
      true)

let test_register_untunable_spec () =
  (* Parses fine, but the space is a single point: the search kernel
     cannot build a non-degenerate initial simplex.  The degeneracy
     only surfaces once the initial vertices are measured; the server
     must then abort the session with a rejection, never raise.  Found
     by the fuzz suite. *)
  let server = Server.create () in
  let rec drive reply steps =
    if steps > 10 then Alcotest.fail "degenerate session never aborted"
    else
      match reply with
      | Server.Assign _ ->
          drive (Server.handle server (Server.Report 1.0)) (steps + 1)
      | Server.Rejected _ -> ()
      | Server.Done _ -> Alcotest.fail "degenerate spec reported success"
      | Server.Stats _ -> Alcotest.fail "unexpected stats reply"
  in
  drive
    (Server.handle server
       (Server.Register
          { spec = "{ harmonyBundle B { int {3 3 1} }}";
            direction = Server.Maximize }))
    0;
  (* The aborted session is gone: the next query needs a re-register. *)
  match Server.handle server Server.Query with
  | Server.Rejected _ -> ()
  | _ -> Alcotest.fail "aborted session still live"

let test_query_before_register () =
  let server = Server.create () in
  match Server.handle server Server.Query with
  | Server.Rejected _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_report_without_assignment () =
  let server = Server.create () in
  let _ = register server in
  (* Consume the outstanding assignment... *)
  let _ = Server.handle server (Server.Report 1.0) in
  (* ...then a bare Query re-issues; after Done, report must fail.
     Simpler: a fresh server that never got an assignment. *)
  let fresh = Server.create () in
  match Server.handle fresh (Server.Report 1.0) with
  | Server.Rejected _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_query_idempotent () =
  let server = Server.create () in
  let a1 = register server in
  let a2 = Server.handle server Server.Query in
  Alcotest.(check bool) "same assignment until reported" true (a1 = a2)

let test_assignments_feasible () =
  let server = Server.create ~options:{ Simplex.default_options with Simplex.max_evaluations = 60 } () in
  let spec = Rsl.parse paper_spec in
  let rec loop reply steps =
    if steps > 200 then Alcotest.fail "server never finished";
    match reply with
    | Server.Assign assignment ->
        let values = Array.of_list (List.map snd assignment) in
        Alcotest.(check bool) "feasible under restriction" true
          (Rsl_check.feasible spec values);
        loop (Server.handle server (Server.Report (respond assignment))) (steps + 1)
    | Server.Done { best; performance } ->
        Alcotest.(check bool) "found a good point" true (performance > 90.0);
        let values = Array.of_list (List.map snd best) in
        Alcotest.(check bool) "best feasible" true (Rsl_check.feasible spec values)
    | Server.Rejected msg -> Alcotest.fail ("unexpected rejection: " ^ msg)
    | Server.Stats _ -> Alcotest.fail "unexpected stats reply"
  in
  loop (register server) 0

let test_reregister_resets () =
  let server = Server.create () in
  let _ = register server in
  let _ = Server.handle server (Server.Report 42.0) in
  (* Re-registering starts a fresh session. *)
  match register server with
  | Server.Assign assignment ->
      Alcotest.(check (list string)) "spec live" [ "B"; "C" ]
        (List.map fst assignment)
  | _ -> Alcotest.fail "expected an assignment"

(* With [reject_reregister] a duplicate register is a total error
   reply while a session is mid-tuning (bad fixture), but registering
   after the session finished or aborted still works (good fixture) —
   the behaviour the sharded service relies on per client. *)
let test_reject_reregister_mid_session () =
  let server = Server.create ~reject_reregister:true () in
  let first =
    match register server with
    | Server.Assign a -> a
    | _ -> Alcotest.fail "expected an assignment"
  in
  (* Bad: a second register while the first session is mid-tuning. *)
  (match register server with
  | Server.Rejected msg ->
      Alcotest.(check bool) "error names the conflict" true
        (String.starts_with ~prefix:"already registered" msg)
  | _ -> Alcotest.fail "duplicate register was not rejected");
  (* The live session is untouched: the same assignment is still
     outstanding and tuning completes normally. *)
  (match Server.handle server Server.Query with
  | Server.Assign a -> Alcotest.(check bool) "assignment survived" true (a = first)
  | _ -> Alcotest.fail "outstanding assignment lost");
  let rec drive reply steps =
    if steps > 200 then Alcotest.fail "session never finished"
    else
      match reply with
      | Server.Assign a ->
          drive (Server.handle server (Server.Report (respond a))) (steps + 1)
      | Server.Done _ -> ()
      | Server.Rejected msg -> Alcotest.fail ("unexpected rejection: " ^ msg)
      | Server.Stats _ -> Alcotest.fail "unexpected stats reply"
  in
  drive (Server.handle server Server.Query) 0;
  (* Good: the session is finished, so registering again starts a
     fresh one. *)
  match register server with
  | Server.Assign _ -> ()
  | _ -> Alcotest.fail "re-register after done was refused"

let test_reject_reregister_after_abort () =
  (* An aborted session (degenerate spec) must not wedge the client
     forever: re-register is the documented way out. *)
  let server = Server.create ~reject_reregister:true () in
  let rec drive reply steps =
    if steps > 10 then Alcotest.fail "degenerate session never aborted"
    else
      match reply with
      | Server.Assign _ ->
          drive (Server.handle server (Server.Report 1.0)) (steps + 1)
      | Server.Rejected _ -> ()
      | Server.Done _ -> Alcotest.fail "degenerate spec reported success"
      | Server.Stats _ -> Alcotest.fail "unexpected stats reply"
  in
  drive
    (Server.handle server
       (Server.Register
          { spec = "{ harmonyBundle B { int {3 3 1} }}";
            direction = Server.Maximize }))
    0;
  match register server with
  | Server.Assign _ -> ()
  | _ -> Alcotest.fail "re-register after abort was refused"

(* Fault tolerance: the [report failed] path *)

let test_report_failed_reassigns () =
  let server = Server.create () in
  let first = register server in
  match first with
  | Server.Assign a ->
      (* Two consecutive failures: the same configuration is re-assigned
         for the client to retry. *)
      Alcotest.(check bool) "first retry same config" true
        (Server.handle server Server.Report_failed = Server.Assign a);
      Alcotest.(check bool) "second retry same config" true
        (Server.handle server Server.Report_failed = Server.Assign a);
      (* Third failure exhausts max_report_failures = 3: the config is
         penalized and the search moves on. *)
      (match Server.handle server Server.Report_failed with
      | Server.Assign _ | Server.Done _ -> ()
      | Server.Rejected msg -> Alcotest.fail ("unexpected rejection: " ^ msg)
      | Server.Stats _ -> Alcotest.fail "unexpected stats reply")
  | _ -> Alcotest.fail "expected an assignment"

let test_report_failed_without_registration () =
  let server = Server.create () in
  match Server.handle server Server.Report_failed with
  | Server.Rejected _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_successful_report_resets_failures () =
  let server = Server.create () in
  let _ = register server in
  (* One failure, then a success: the failure streak resets, so the
     next assignment gets its full retry allowance again. *)
  let _ = Server.handle server Server.Report_failed in
  match Server.handle server (Server.Report 50.0) with
  | Server.Assign a ->
      Alcotest.(check bool) "fresh allowance: retry 1" true
        (Server.handle server Server.Report_failed = Server.Assign a);
      Alcotest.(check bool) "fresh allowance: retry 2" true
        (Server.handle server Server.Report_failed = Server.Assign a)
  | _ -> Alcotest.fail "expected an assignment"

let test_done_degrades_to_best_measured () =
  (* Only the very first assignment ever gets measured; everything
     after fails permanently.  The final Done must report the one
     configuration a client actually measured, not a penalized one. *)
  let server =
    Server.create
      ~options:{ Simplex.default_options with Simplex.max_evaluations = 15 }
      ~max_report_failures:1 ()
  in
  let measured = ref None in
  let rec loop reply steps =
    if steps > 200 then Alcotest.fail "server never finished"
    else
      match reply with
      | Server.Assign assignment ->
          let next =
            match !measured with
            | None ->
                measured := Some assignment;
                Server.Report 55.0
            | Some _ -> Server.Report_failed
          in
          loop (Server.handle server next) (steps + 1)
      | Server.Done { best; performance } ->
          Alcotest.(check (float 1e-9)) "best actually-measured value" 55.0
            performance;
          Alcotest.(check bool) "the measured configuration" true
            (Some best = !measured)
      | Server.Rejected msg -> Alcotest.fail ("unexpected rejection: " ^ msg)
      | Server.Stats _ -> Alcotest.fail "unexpected stats reply"
  in
  loop (register server) 0

let test_max_report_failures_invalid () =
  Alcotest.(check bool) "zero rejected" true
    (match Server.create ~max_report_failures:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Codec *)

let test_parse_query () =
  Alcotest.(check bool) "query" true (Server.parse_message "query" = Ok Server.Query)

let test_parse_report () =
  Alcotest.(check bool) "report" true
    (Server.parse_message "report 42.5" = Ok (Server.Report 42.5));
  (match Server.parse_message "report abc" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad float accepted")

let test_parse_report_failed () =
  Alcotest.(check bool) "report failed" true
    (Server.parse_message "report failed" = Ok Server.Report_failed);
  (* "failed" is not a float: the token must not fall through to the
     numeric report parser. *)
  match Server.parse_message "report failed 3.0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

let test_parse_register () =
  match Server.parse_message ("register max\n" ^ paper_spec) with
  | Ok (Server.Register { direction = Server.Maximize; spec }) ->
      Alcotest.(check bool) "spec text carried" true
        (String.length spec > 0 && Rsl.names (Rsl.parse spec) = [ "B"; "C" ])
  | _ -> Alcotest.fail "expected register"

let test_parse_unknown () =
  match Server.parse_message "frobnicate" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown command accepted"

let test_reply_rendering () =
  Alcotest.(check string) "assign" "assign B=3 C=4"
    (Server.reply_to_string (Server.Assign [ ("B", 3); ("C", 4) ]));
  Alcotest.(check string) "done" "done B=3 C=4 perf=97"
    (Server.reply_to_string
       (Server.Done { best = [ ("B", 3); ("C", 4) ]; performance = 97.0 }));
  Alcotest.(check string) "error" "error nope"
    (Server.reply_to_string (Server.Rejected "nope"))

let test_text_round_trip_session () =
  (* Drive the server purely through the text protocol. *)
  let server = Server.create ~options:{ Simplex.default_options with Simplex.max_evaluations = 40 } () in
  let send text =
    match Server.parse_message text with
    | Ok m -> Server.reply_to_string (Server.handle server m)
    | Error e -> "parse-error " ^ e
  in
  let first = send ("register max\n" ^ paper_spec) in
  Alcotest.(check bool) "assignment line" true
    (String.length first > 7 && String.sub first 0 7 = "assign ");
  let reply = ref (send "report 10.0") in
  let steps = ref 0 in
  while String.length !reply > 7 && String.sub !reply 0 7 = "assign " && !steps < 100 do
    incr steps;
    reply := send "report 10.0"
  done;
  Alcotest.(check bool) "session ends with done" true
    (String.length !reply >= 4 && String.sub !reply 0 4 = "done")

let test_minimize_session () =
  (* A minimizing registration: the server should end near the cost
     minimum (B=3, C=4 gives cost 0 on this surface). *)
  let cost assignment =
    let v name = float_of_int (List.assoc name assignment) in
    ((v "B" -. 3.0) ** 2.0) +. ((v "C" -. 4.0) ** 2.0)
  in
  let server = Server.create ~options:{ Simplex.default_options with Simplex.max_evaluations = 80 } () in
  let rec loop reply steps =
    if steps > 300 then Alcotest.fail "no convergence"
    else
      match reply with
      | Server.Assign assignment ->
          loop (Server.handle server (Server.Report (cost assignment))) (steps + 1)
      | Server.Done { performance; _ } -> performance
      | Server.Rejected msg -> Alcotest.fail msg
      | Server.Stats _ -> Alcotest.fail "unexpected stats reply"
  in
  let best =
    loop
      (Server.handle server
         (Server.Register { spec = paper_spec; direction = Server.Minimize }))
      0
  in
  Alcotest.(check bool) "found the cost minimum region" true (best <= 2.0)

let suite =
  [
    Alcotest.test_case "register assigns" `Quick test_register_assigns;
    Alcotest.test_case "register bad spec" `Quick test_register_bad_spec;
    Alcotest.test_case "register oversized literal" `Quick
      test_register_oversized_literal;
    QCheck_alcotest.to_alcotest prop_raw_spec_never_raises;
    Alcotest.test_case "register untunable spec" `Quick test_register_untunable_spec;
    Alcotest.test_case "query before register" `Quick test_query_before_register;
    Alcotest.test_case "report without assignment" `Quick test_report_without_assignment;
    Alcotest.test_case "query idempotent" `Quick test_query_idempotent;
    Alcotest.test_case "assignments feasible" `Quick test_assignments_feasible;
    Alcotest.test_case "reregister resets" `Quick test_reregister_resets;
    Alcotest.test_case "reject reregister mid-session" `Quick
      test_reject_reregister_mid_session;
    Alcotest.test_case "reject reregister after abort" `Quick
      test_reject_reregister_after_abort;
    Alcotest.test_case "report failed reassigns" `Quick test_report_failed_reassigns;
    Alcotest.test_case "report failed unregistered" `Quick
      test_report_failed_without_registration;
    Alcotest.test_case "success resets failures" `Quick
      test_successful_report_resets_failures;
    Alcotest.test_case "done degrades to measured" `Quick
      test_done_degrades_to_best_measured;
    Alcotest.test_case "max_report_failures invalid" `Quick
      test_max_report_failures_invalid;
    Alcotest.test_case "parse query" `Quick test_parse_query;
    Alcotest.test_case "parse report" `Quick test_parse_report;
    Alcotest.test_case "parse report failed" `Quick test_parse_report_failed;
    Alcotest.test_case "parse register" `Quick test_parse_register;
    Alcotest.test_case "parse unknown" `Quick test_parse_unknown;
    Alcotest.test_case "reply rendering" `Quick test_reply_rendering;
    Alcotest.test_case "text round trip" `Quick test_text_round_trip_session;
    Alcotest.test_case "minimize session" `Quick test_minimize_session;
  ]

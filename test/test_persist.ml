(* The durability layer: CRC framing, sinks, atomic writes, journal.

   The framing codec's contract is totality — Frame.scan must decode
   the longest valid prefix of *arbitrary* bytes without raising — so
   alongside the unit tests the codec is fuzzed with QCheck (fixed
   seed: deterministic like everything else in this suite). *)

module Frame = Harmony_persist.Frame
module Persist = Harmony_persist.Persist
module Journal = Harmony_persist.Journal
module Gen = QCheck2.Gen

let seed = [| 0x5eed; 2004 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make seed) t

let with_temp_file f =
  let path = Filename.temp_file "harmony_persist" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      Persist.remove_if_exists path;
      Persist.remove_if_exists (path ^ ".tmp"))
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)

let test_crc32_vectors () =
  (* The standard check value for the IEEE 802.3 polynomial. *)
  Alcotest.(check int) "check value" 0xCBF43926 (Frame.crc32 "123456789");
  Alcotest.(check int) "empty" 0 (Frame.crc32 "");
  Alcotest.(check bool) "sensitive to a flip" true
    (Frame.crc32 "123456789" <> Frame.crc32 "123456788")

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

let encode_all payloads = String.concat "" (List.map Frame.encode payloads)

let test_roundtrip () =
  let payloads = [ ""; "a"; "hello world"; String.make 1000 '\x00'; "\xff\xfe" ] in
  let s = encode_all payloads in
  let scan = Frame.scan s in
  Alcotest.(check (list string)) "records" payloads scan.Frame.records;
  Alcotest.(check bool) "not torn" false scan.Frame.torn;
  Alcotest.(check int) "all bytes valid" (String.length s) scan.Frame.valid_bytes;
  Alcotest.(check int) "one boundary per record" (List.length payloads)
    (List.length scan.Frame.boundaries)

let test_scan_empty () =
  let scan = Frame.scan "" in
  Alcotest.(check (list string)) "no records" [] scan.Frame.records;
  Alcotest.(check bool) "clean" false scan.Frame.torn

let test_truncation_drops_only_tail () =
  let payloads = [ "first"; "second"; "third" ] in
  let s = encode_all payloads in
  (* Cut mid-way through the last record: the first two survive. *)
  let cut = String.length s - 2 in
  let scan = Frame.scan (String.sub s 0 cut) in
  Alcotest.(check (list string)) "prefix" [ "first"; "second" ] scan.Frame.records;
  Alcotest.(check bool) "torn" true scan.Frame.torn;
  Alcotest.(check int) "valid prefix length"
    (String.length (encode_all [ "first"; "second" ]))
    scan.Frame.valid_bytes

let test_corruption_stops_scan () =
  let payloads = [ "first"; "second"; "third" ] in
  let s = encode_all payloads in
  (* Flip a payload byte inside "second": CRC catches it; "third" is
     unreachable because scanning cannot trust anything after the
     corruption point. *)
  let pos = String.length (Frame.encode "first") + 8 + 2 in
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  let scan = Frame.scan (Bytes.to_string b) in
  Alcotest.(check (list string)) "stops before corruption" [ "first" ]
    scan.Frame.records;
  Alcotest.(check bool) "torn" true scan.Frame.torn

let test_garbage_header_is_bounded () =
  (* A length field far beyond max_payload must be treated as
     corruption, not as an allocation request. *)
  let b = Bytes.make 16 '\xff' in
  let scan = Frame.scan (Bytes.to_string b) in
  Alcotest.(check (list string)) "nothing decoded" [] scan.Frame.records;
  Alcotest.(check bool) "torn" true scan.Frame.torn

let test_encode_rejects_oversize () =
  match Frame.encode (String.make (Frame.max_payload + 1) 'x') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_encoded_size () =
  Alcotest.(check int) "matches encode" (String.length (Frame.encode "abc"))
    (Frame.encoded_size "abc")

(* Totality: scanning arbitrary bytes never raises, reports a
   consistent prefix, and never claims more bytes than it was given. *)
let prop_scan_total =
  QCheck2.Test.make ~name:"Frame.scan is total and consistent" ~count:500
    Gen.(string_size ~gen:char (int_bound 200))
    (fun s ->
      let scan = Frame.scan s in
      scan.Frame.valid_bytes >= 0
      && scan.Frame.valid_bytes <= String.length s
      && List.length scan.Frame.records = List.length scan.Frame.boundaries
      && (match List.rev scan.Frame.boundaries with
         | [] -> scan.Frame.valid_bytes = 0
         | last :: _ -> last = scan.Frame.valid_bytes)
      && (scan.Frame.torn || scan.Frame.valid_bytes = String.length s))

(* Encoded streams scan back exactly; any truncation yields a record
   prefix. *)
let prop_roundtrip_and_truncate =
  let gen =
    Gen.(
      let* payloads = list_size (int_bound 6) (string_size ~gen:char (int_bound 40)) in
      let total = List.fold_left (fun a p -> a + Frame.encoded_size p) 0 payloads in
      let* cut = int_bound total in
      return (payloads, cut))
  in
  QCheck2.Test.make ~name:"Frame roundtrip + truncation prefix" ~count:500 gen
    (fun (payloads, cut) ->
      let s = encode_all payloads in
      let full = Frame.scan s in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
        | _ :: _, [] -> false
      in
      full.Frame.records = payloads
      && (not full.Frame.torn)
      && is_prefix (Frame.scan (String.sub s 0 cut)).Frame.records payloads)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)

let test_buffer_sink () =
  let buf = Buffer.create 16 in
  let sink = Persist.buffer_sink buf in
  sink.Persist.write "abc";
  sink.Persist.write "def";
  sink.Persist.sync ();
  Alcotest.(check string) "accumulates" "abcdef" (Buffer.contents buf);
  sink.Persist.reset ();
  Alcotest.(check string) "reset clears" "" (Buffer.contents buf)

let test_file_sink_appends_and_trims () =
  with_temp_file (fun path ->
      let sink = Persist.file_sink path in
      sink.Persist.write "hello ";
      sink.Persist.write "world";
      sink.Persist.sync ();
      sink.Persist.close ();
      sink.Persist.close ();
      Alcotest.(check (option string)) "written" (Some "hello world")
        (Persist.read_file path);
      let sink = Persist.file_sink ~trim_to:5 path in
      sink.Persist.write "!";
      sink.Persist.close ();
      Alcotest.(check (option string)) "trimmed then appended" (Some "hello!")
        (Persist.read_file path);
      let sink = Persist.file_sink path in
      sink.Persist.reset ();
      sink.Persist.close ();
      Alcotest.(check (option string)) "reset truncates" (Some "")
        (Persist.read_file path))

let test_fault_sink_tears_and_crashes () =
  let buf = Buffer.create 16 in
  let sink = Persist.fault_sink ~limit_bytes:5 (Persist.buffer_sink buf) in
  sink.Persist.write "abc";
  (match sink.Persist.write "def" with
  | exception Persist.Crashed -> ()
  | () -> Alcotest.fail "expected Crashed");
  (* The overflowing write landed its fitting prefix — a torn tail. *)
  Alcotest.(check string) "torn bytes delivered" "abcde" (Buffer.contents buf);
  match sink.Persist.write "x" with
  | exception Persist.Crashed -> ()
  | () -> Alcotest.fail "still crashed"

let test_fault_sink_budget_spans_reset () =
  let buf = Buffer.create 16 in
  let sink = Persist.fault_sink ~limit_bytes:4 (Persist.buffer_sink buf) in
  sink.Persist.write "abc";
  sink.Persist.reset ();
  match sink.Persist.write "de" with
  | exception Persist.Crashed ->
      Alcotest.(check string) "one byte left after reset" "d" (Buffer.contents buf)
  | () -> Alcotest.fail "budget must span reset"

(* ------------------------------------------------------------------ *)
(* Atomic writes                                                       *)

let test_write_atomic () =
  with_temp_file (fun path ->
      Persist.write_atomic ~path [ "first" ];
      Alcotest.(check (option string)) "created" (Some "first")
        (Persist.read_file path);
      Persist.write_atomic ~path [ "second"; ""; " version" ];
      Alcotest.(check (option string)) "replaced by the parts, in order"
        (Some "second version")
        (Persist.read_file path);
      Alcotest.(check bool) "no tmp residue" false
        (Sys.file_exists (path ^ ".tmp")))

let test_read_file_missing () =
  Alcotest.(check (option string)) "missing file" None
    (Persist.read_file "/nonexistent/harmony/persist")

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

let test_journal_append_reopen () =
  with_temp_file (fun path ->
      Sys.remove path;
      let scan, j = Journal.open_file path in
      Alcotest.(check (list string)) "fresh" [] scan.Frame.records;
      Alcotest.(check (list string)) "append returns the frames it wrote"
        [ Frame.encode "one" ] (Journal.append j [ "one" ]);
      ignore (Journal.append j [ "two" ]);
      Alcotest.(check int) "records counted" 2 (Journal.records j);
      Alcotest.(check (list string)) "an empty group writes nothing" []
        (Journal.append j []);
      Journal.close j;
      let scan, j = Journal.open_file path in
      Alcotest.(check (list string)) "reopen sees both" [ "one"; "two" ]
        scan.Frame.records;
      Alcotest.(check (list string)) "a group's frames, in order"
        [ Frame.encode "three"; Frame.encode "four" ]
        (Journal.append j [ "three"; "four" ]);
      Alcotest.(check int) "a group counts each record" 4 (Journal.records j);
      Journal.close j;
      Alcotest.(check (list string)) "append after reopen"
        [ "one"; "two"; "three"; "four" ]
        (Journal.read path).Frame.records)

let test_journal_truncates_torn_tail () =
  with_temp_file (fun path ->
      Sys.remove path;
      let _, j = Journal.open_file path in
      ignore (Journal.append j [ "good" ]);
      Journal.close j;
      (* Simulate a crash mid-append: garbage half-record at the end. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\x99\x00\x00\x00torn";
      close_out oc;
      let scan, j = Journal.open_file path in
      Alcotest.(check (list string)) "valid prefix" [ "good" ] scan.Frame.records;
      Alcotest.(check bool) "tail reported torn" true scan.Frame.torn;
      ignore (Journal.append j [ "next" ]);
      Journal.close j;
      let scan = Journal.read path in
      (* The torn bytes were truncated away before the new append. *)
      Alcotest.(check (list string)) "no torn bytes in front of appends"
        [ "good"; "next" ] scan.Frame.records;
      Alcotest.(check bool) "clean now" false scan.Frame.torn)

let test_journal_reset () =
  with_temp_file (fun path ->
      Sys.remove path;
      let _, j = Journal.open_file path in
      ignore (Journal.append j [ "a" ]);
      Journal.reset j;
      Alcotest.(check int) "count cleared" 0 (Journal.records j);
      ignore (Journal.append j [ "b" ]);
      Journal.close j;
      Alcotest.(check (list string)) "only post-reset records" [ "b" ]
        (Journal.read path).Frame.records)

let test_journal_read_missing () =
  let scan = Journal.read "/nonexistent/harmony/journal" in
  Alcotest.(check (list string)) "empty" [] scan.Frame.records;
  Alcotest.(check bool) "not torn" false scan.Frame.torn

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "frame roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "scan empty" `Quick test_scan_empty;
    Alcotest.test_case "truncation drops only tail" `Quick
      test_truncation_drops_only_tail;
    Alcotest.test_case "corruption stops scan" `Quick test_corruption_stops_scan;
    Alcotest.test_case "garbage header bounded" `Quick
      test_garbage_header_is_bounded;
    Alcotest.test_case "encode rejects oversize" `Quick
      test_encode_rejects_oversize;
    Alcotest.test_case "encoded_size" `Quick test_encoded_size;
    to_alcotest prop_scan_total;
    to_alcotest prop_roundtrip_and_truncate;
    Alcotest.test_case "buffer sink" `Quick test_buffer_sink;
    Alcotest.test_case "file sink append/trim/reset" `Quick
      test_file_sink_appends_and_trims;
    Alcotest.test_case "fault sink tears and crashes" `Quick
      test_fault_sink_tears_and_crashes;
    Alcotest.test_case "fault budget spans reset" `Quick
      test_fault_sink_budget_spans_reset;
    Alcotest.test_case "write_atomic" `Quick test_write_atomic;
    Alcotest.test_case "read_file missing" `Quick test_read_file_missing;
    Alcotest.test_case "journal append/reopen" `Quick test_journal_append_reopen;
    Alcotest.test_case "journal truncates torn tail" `Quick
      test_journal_truncates_torn_tail;
    Alcotest.test_case "journal reset" `Quick test_journal_reset;
    Alcotest.test_case "journal read missing" `Quick test_journal_read_missing;
  ]

open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space
module Gen = QCheck2.Gen

let seed = [| 0x5eed; 1515 |]
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make seed) t

let space = Space.create [ Param.int_range ~name:"x" ~lo:0 ~hi:10 ~default:0 () ]
let obj = Objective.create ~space ~direction:Objective.Higher_is_better (fun c -> c.(0))

let sample_db () =
  let db = History.create () in
  let _ =
    History.add db ~label:"shopping" ~characteristics:[| 0.8; 0.2 |]
      ~evaluations:[ ([| 1.0 |], 10.0); ([| 2.0 |], 20.0) ]
      ()
  in
  let _ =
    History.add db ~label:"ordering" ~characteristics:[| 0.4; 0.6 |]
      ~evaluations:[ ([| 3.0 |], 30.0) ]
      ()
  in
  db

let test_add_assigns_ids () =
  let db = sample_db () in
  let ids = List.map (fun e -> e.History.id) (History.entries db) in
  Alcotest.(check (list int)) "sequential ids" [ 0; 1 ] ids;
  Alcotest.(check int) "size" 2 (History.size db)

let test_entries_order () =
  let db = sample_db () in
  let labels = List.map (fun e -> e.History.label) (History.entries db) in
  Alcotest.(check (list string)) "insertion order" [ "shopping"; "ordering" ] labels

let test_add_copies_inputs () =
  let db = History.create () in
  let chars = [| 1.0 |] in
  let config = [| 5.0 |] in
  let _ = History.add db ~characteristics:chars ~evaluations:[ (config, 1.0) ] () in
  chars.(0) <- 99.0;
  config.(0) <- 99.0;
  let e = List.hd (History.entries db) in
  Alcotest.(check (float 1e-12)) "chars copied" 1.0 e.History.characteristics.(0);
  Alcotest.(check (float 1e-12)) "config copied" 5.0
    (fst (List.hd e.History.evaluations)).(0)

let test_find_closest () =
  let db = sample_db () in
  (match History.find_closest db [| 0.75; 0.25 |] with
  | Some e -> Alcotest.(check string) "closest is shopping" "shopping" e.History.label
  | None -> Alcotest.fail "expected a match");
  match History.find_closest db [| 0.3; 0.7 |] with
  | Some e -> Alcotest.(check string) "closest is ordering" "ordering" e.History.label
  | None -> Alcotest.fail "expected a match"

let test_find_closest_empty_and_arity () =
  let db = History.create () in
  Alcotest.(check bool) "empty db" true (History.find_closest db [| 1.0 |] = None);
  let db = sample_db () in
  Alcotest.(check bool) "arity mismatch filtered" true
    (History.find_closest db [| 1.0; 2.0; 3.0 |] = None)

let test_best_evaluations () =
  let db = History.create () in
  let e =
    History.add db ~characteristics:[| 0.0 |]
      ~evaluations:
        [ ([| 1.0 |], 10.0); ([| 2.0 |], 30.0); ([| 3.0 |], 20.0); ([| 2.0 |], 5.0) ]
      ()
  in
  let best = History.best_evaluations obj e ~n:2 in
  Alcotest.(check int) "two entries" 2 (List.length best);
  (match best with
  | (c1, p1) :: (c2, p2) :: _ ->
      (* Distinct configurations, best first; config 2.0's best
         measurement (30) survives, not its worse repeat (5). *)
      Alcotest.(check (float 1e-12)) "top perf" 30.0 p1;
      Alcotest.(check (float 1e-12)) "top config" 2.0 c1.(0);
      Alcotest.(check (float 1e-12)) "second perf" 20.0 p2;
      Alcotest.(check (float 1e-12)) "second config" 3.0 c2.(0)
  | _ -> Alcotest.fail "bad shape");
  Alcotest.(check int) "n larger than data" 3
    (List.length (History.best_evaluations obj e ~n:10))

let test_merged_evaluations () =
  let db = sample_db () in
  Alcotest.(check int) "all evals" 3
    (List.length
       (List.concat_map (fun e -> e.History.evaluations) (History.entries db)))

let test_save_load_roundtrip () =
  let db = sample_db () in
  let path = Filename.temp_file "harmony_history" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      History.save db path;
      let loaded = History.load path in
      Alcotest.(check int) "size" (History.size db) (History.size loaded);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "label" a.History.label b.History.label;
          Alcotest.(check (array (float 1e-12)))
            "characteristics" a.History.characteristics b.History.characteristics;
          List.iter2
            (fun (c1, p1) (c2, p2) ->
              Alcotest.(check (array (float 1e-12))) "config" c1 c2;
              Alcotest.(check (float 1e-12)) "perf" p1 p2)
            a.History.evaluations b.History.evaluations)
        (History.entries db) (History.entries loaded))

let test_save_load_label_with_spaces () =
  let db = History.create () in
  let _ =
    History.add db ~label:"shopping mix v2" ~characteristics:[| 1.0 |]
      ~evaluations:[ ([| 1.0 |], 1.0) ] ()
  in
  let path = Filename.temp_file "harmony_history" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      History.save db path;
      let loaded = History.load path in
      Alcotest.(check string) "spaces survive" "shopping mix v2"
        (List.hd (History.entries loaded)).History.label)

let test_load_malformed () =
  let path = Filename.temp_file "harmony_history" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "entry 0 ok\nchars 1.0\nbogus line here\nend\n";
      close_out oc;
      match History.load path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected Failure on malformed input")

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* Labels are arbitrary byte strings and must come back byte for byte,
   from both the strict and the salvaging reader. *)
let awkward_labels =
  [ ""; "-"; "%"; "%20"; "%2D"; "%%"; "%zz"; "a b"; " lead"; "trail "; "\t";
    "two\nlines"; "cr\r"; "\x00"; "\xff"; "-x"; "100%"; "a%b"; "end" ]

let gen_label =
  Gen.(
    frequency
      [
        (2, oneofl awkward_labels);
        (2, string_size (int_range 0 12));
        ( 3,
          string_size
            ~gen:(oneofl [ ' '; '\t'; '\n'; '\r'; '%'; '-'; '2'; '0'; 'D'; 'a' ])
            (int_range 0 8) );
      ])

let labels_after_save labels =
  let db = History.create () in
  List.iteri
    (fun i label ->
      ignore
        (History.add db ~label ~characteristics:[| float_of_int i |]
           ~evaluations:[ ([| 1.0 |], float_of_int i) ] ()))
    labels;
  let path = Filename.temp_file "harmony_history" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      History.save db path;
      let strict = History.load path in
      let salvaged, dropped = History.load_salvage path in
      let labels_of t = List.map (fun e -> e.History.label) (History.entries t) in
      (labels_of strict, labels_of salvaged, dropped))

let prop_label_roundtrip =
  QCheck2.Test.make ~name:"labels survive save and load" ~count:300
    ~print:QCheck2.Print.(list string) Gen.(list_size (int_range 1 4) gen_label)
    (fun labels ->
      let strict, salvaged, dropped = labels_after_save labels in
      List.equal String.equal labels strict
      && List.equal String.equal labels salvaged
      && dropped = 0)

let test_label_escapes_on_disk () =
  let db = History.create () in
  List.iter
    (fun label ->
      ignore (History.add db ~label ~characteristics:[| 0.0 |] ~evaluations:[] ()))
    [ ""; "-"; "a b%\n-"; "x\ty" ];
  let path = Filename.temp_file "harmony_history" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      History.save db path;
      let entry_lines =
        List.filter
          (fun l -> String.length l > 6 && String.sub l 0 6 = "entry ")
          (String.split_on_char '\n'
             (In_channel.with_open_bin path In_channel.input_all))
      in
      Alcotest.(check (list string)) "entry lines"
        [ "entry 0 -"; "entry 1 %2D"; "entry 2 a%20b%25%0A-"; "entry 3 x%09y" ]
        entry_lines)

(* A newline in the second of four labels must not end the salvage
   after the first entry. *)
let test_salvage_keeps_newline_label () =
  let labels = [ "first"; "second\nline"; "third"; "fourth" ] in
  let strict, salvaged, dropped = labels_after_save labels in
  Alcotest.(check (list string)) "strict load" labels strict;
  Alcotest.(check (list string)) "all four salvaged" labels salvaged;
  Alcotest.(check int) "nothing dropped" 0 dropped

(* A file in the earlier format, which escaped only spaces: every label
   reads as it always did. *)
let test_load_earlier_format () =
  let path = Filename.temp_file "harmony_history" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path
        "entry 0 -\nchars 0.5\neval 10 1\nend\n\
         entry 1 shopping%20mix%20v2\nchars 0.25 0.75\neval 20 2\neval 21 3\nend\n\
         entry 2 50%\nchars 1\nend\n\
         entry 3 a-b%\tc\nchars 2\neval 5 4\nend\n";
      let db = History.load path in
      Alcotest.(check (list string)) "labels"
        [ ""; "shopping mix v2"; "50%"; "a-b%\tc" ]
        (List.map (fun e -> e.History.label) (History.entries db));
      Alcotest.(check (list int)) "evaluations per entry" [ 1; 2; 0; 1 ]
        (List.map (fun e -> List.length e.History.evaluations) (History.entries db));
      match History.entries db with
      | _ :: e :: _ ->
          Alcotest.(check (array (float 0.0))) "characteristics" [| 0.25; 0.75 |]
            e.History.characteristics
      | [] | [ _ ] -> Alcotest.fail "expected four entries")

let test_load_salvage_truncated () =
  let full =
    "entry 0 shopping\nchars 1\neval 10 1\nend\n\
     entry 1 ordering\nchars 2\neval 20 2\nend\n"
  in
  (* Cut mid-way through the second entry's eval line, leaving the
     malformed fragment "ev": the first entry survives, the
     half-written one is dropped and counted. *)
  let rec find i =
    if String.sub full i 7 = "eval 20" then i else find (i + 1)
  in
  let path = Filename.temp_file "harmony_history" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path (String.sub full 0 (find 0 + 2));
      let salvaged, dropped = History.load_salvage path in
      Alcotest.(check int) "first entry survives" 1 (History.size salvaged);
      Alcotest.(check string) "and is intact" "shopping"
        (List.hd (History.entries salvaged)).History.label;
      Alcotest.(check int) "drop reported" 1 dropped;
      (* The strict loader still refuses. *)
      match History.load path with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "strict load accepted a truncated file")

let test_load_salvage_garbage () =
  let path = Filename.temp_file "harmony_history" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "\x00\xff total garbage\nnot a db\n";
      let salvaged, dropped = History.load_salvage path in
      Alcotest.(check int) "nothing salvaged" 0 (History.size salvaged);
      Alcotest.(check int) "both lines dropped" 2 dropped)

let test_load_salvage_mid_entry_poisons_entry () =
  let path = Filename.temp_file "harmony_history" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path
        "entry 0 ok\nchars 1\neval 10 1\nend\nentry 1 bad\nchars 2\nbogus\nend\n";
      let salvaged, dropped = History.load_salvage path in
      Alcotest.(check int) "clean entry kept" 1 (History.size salvaged);
      Alcotest.(check string) "the right one" "ok"
        (List.hd (History.entries salvaged)).History.label;
      (* The in-progress entry goes down with its malformed line. *)
      Alcotest.(check int) "poisoned tail counted" 2 dropped)

let test_load_salvage_missing_file () =
  let salvaged, dropped = History.load_salvage "/nonexistent/harmony/history" in
  Alcotest.(check int) "empty" 0 (History.size salvaged);
  Alcotest.(check int) "nothing dropped" 0 dropped

let test_load_or_create_salvages_with_warning () =
  let path = Filename.temp_file "harmony_history" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "entry 0 ok\nchars 1\neval 10 1\nend\ngarbage tail\n";
      let warned = ref (-1) in
      let db = History.load_or_create ~warn:(fun n -> warned := n) path in
      Alcotest.(check int) "salvaged prefix" 1 (History.size db);
      Alcotest.(check int) "warning delivered" 1 !warned;
      (* A clean file stays silent. *)
      History.save db path;
      let silent = ref true in
      let _ = History.load_or_create ~warn:(fun _ -> silent := false) path in
      Alcotest.(check bool) "no warning on clean input" true !silent)

let test_save_is_atomic_leaves_no_tmp () =
  let db = sample_db () in
  let path = Filename.temp_file "harmony_history" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      History.save db path;
      Alcotest.(check bool) "no tmp residue" false
        (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check int) "readable" 2 (History.size (History.load path)))

let test_compress_noop_when_small () =
  let db = sample_db () in
  let out = History.compress (Harmony_numerics.Rng.create 1) db ~max_entries:5 in
  Alcotest.(check int) "unchanged size" 2 (History.size out);
  Alcotest.(check int) "input untouched" 2 (History.size db)

let test_compress_merges_clusters () =
  let db = History.create () in
  (* Two tight clusters of characteristics; 3 entries each. *)
  let add_near label base jitter =
    ignore
      (History.add db ~label
         ~characteristics:[| base +. jitter; 1.0 -. base |]
         ~evaluations:[ ([| base |], base *. 10.0) ]
         ())
  in
  List.iter (fun j -> add_near "low" 0.1 j) [ 0.0; 0.01; 0.02 ];
  List.iter (fun j -> add_near "high" 0.9 j) [ 0.0; 0.01; 0.02 ];
  let out = History.compress (Harmony_numerics.Rng.create 2) db ~max_entries:2 in
  Alcotest.(check int) "two representatives" 2 (History.size out);
  (* Each representative absorbed its cluster's evaluation logs. *)
  List.iter
    (fun e ->
      Alcotest.(check int)
        ("merged evals for " ^ e.History.label)
        3
        (List.length e.History.evaluations))
    (History.entries out);
  (* Lookups still resolve to the right cluster. *)
  (match History.find_closest out [| 0.12; 0.9 |] with
  | Some e -> Alcotest.(check string) "low cluster" "low" e.History.label
  | None -> Alcotest.fail "no match");
  match History.find_closest out [| 0.88; 0.1 |] with
  | Some e -> Alcotest.(check string) "high cluster" "high" e.History.label
  | None -> Alcotest.fail "no match"

let test_compress_invalid () =
  let db = sample_db () in
  Alcotest.check_raises "max_entries"
    (Invalid_argument "History.compress: max_entries < 1") (fun () ->
      ignore (History.compress (Harmony_numerics.Rng.create 1) db ~max_entries:0));
  let mixed = History.create () in
  ignore (History.add mixed ~characteristics:[| 1.0 |] ~evaluations:[] ());
  ignore (History.add mixed ~characteristics:[| 1.0; 2.0 |] ~evaluations:[] ());
  ignore (History.add mixed ~characteristics:[| 3.0 |] ~evaluations:[] ());
  Alcotest.check_raises "mixed arity"
    (Invalid_argument "History.compress: mixed characteristics arity") (fun () ->
      ignore (History.compress (Harmony_numerics.Rng.create 1) mixed ~max_entries:2))

let test_load_or_create () =
  let missing = Filename.temp_file "harmony_history" ".db" in
  Sys.remove missing;
  let fresh = History.load_or_create missing in
  Alcotest.(check int) "fresh when missing" 0 (History.size fresh);
  let db = sample_db () in
  let path = Filename.temp_file "harmony_history" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      History.save db path;
      Alcotest.(check int) "loads when present" 2
        (History.size (History.load_or_create path)))

let test_add_outcome () =
  let db = History.create () in
  let outcome = Tuner.tune ~options:{ Tuner.default_options with Tuner.max_evaluations = 30 } obj in
  let e = History.add_outcome db ~label:"run" ~characteristics:[| 0.5 |] outcome in
  Alcotest.(check int) "evaluations recorded" (List.length outcome.Tuner.trace)
    (List.length e.History.evaluations)

let suite =
  [
    Alcotest.test_case "add assigns ids" `Quick test_add_assigns_ids;
    Alcotest.test_case "entries order" `Quick test_entries_order;
    Alcotest.test_case "add copies inputs" `Quick test_add_copies_inputs;
    Alcotest.test_case "find closest" `Quick test_find_closest;
    Alcotest.test_case "find closest empty/arity" `Quick test_find_closest_empty_and_arity;
    Alcotest.test_case "best evaluations" `Quick test_best_evaluations;
    Alcotest.test_case "merged evaluations" `Quick test_merged_evaluations;
    Alcotest.test_case "save load roundtrip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "label with spaces" `Quick test_save_load_label_with_spaces;
    to_alcotest prop_label_roundtrip;
    Alcotest.test_case "label escapes on disk" `Quick test_label_escapes_on_disk;
    Alcotest.test_case "salvage keeps newline label" `Quick test_salvage_keeps_newline_label;
    Alcotest.test_case "load earlier format" `Quick test_load_earlier_format;
    Alcotest.test_case "load malformed" `Quick test_load_malformed;
    Alcotest.test_case "salvage truncated" `Quick test_load_salvage_truncated;
    Alcotest.test_case "salvage garbage" `Quick test_load_salvage_garbage;
    Alcotest.test_case "salvage poisoned entry" `Quick
      test_load_salvage_mid_entry_poisons_entry;
    Alcotest.test_case "salvage missing file" `Quick
      test_load_salvage_missing_file;
    Alcotest.test_case "load_or_create warns" `Quick
      test_load_or_create_salvages_with_warning;
    Alcotest.test_case "save atomic" `Quick test_save_is_atomic_leaves_no_tmp;
    Alcotest.test_case "compress noop" `Quick test_compress_noop_when_small;
    Alcotest.test_case "compress merges clusters" `Quick test_compress_merges_clusters;
    Alcotest.test_case "compress invalid" `Quick test_compress_invalid;
    Alcotest.test_case "load_or_create" `Quick test_load_or_create;
    Alcotest.test_case "add outcome" `Quick test_add_outcome;
  ]

open Harmony
open Harmony_objective
module Param = Harmony_param.Param
module Space = Harmony_param.Space

(* Performance = 50*a + 5*b, c irrelevant: a clean top-n landscape. *)
let space =
  Space.create
    [
      Param.int_range ~name:"a" ~lo:0 ~hi:10 ~default:5 ();
      Param.int_range ~name:"b" ~lo:0 ~hi:10 ~default:5 ();
      Param.int_range ~name:"c" ~lo:0 ~hi:10 ~default:5 ();
    ]

let obj =
  Objective.create ~space ~direction:Objective.Higher_is_better (fun c ->
      (50.0 *. c.(0)) +. (5.0 *. c.(1)))

let test_prioritize_cached () =
  let count = ref 0 in
  let counted = { obj with Objective.eval = (fun c -> incr count; obj.Objective.eval c) } in
  let session = Session.create ~objective:counted () in
  let r1 = Session.prioritize session in
  let after_first = !count in
  let r2 = Session.prioritize session in
  Alcotest.(check bool) "cached" true (r1 == r2);
  Alcotest.(check int) "no extra evaluations" after_first !count

let test_tune_full_space () =
  let session = Session.create ~objective:obj () in
  let r = Session.tune session in
  Alcotest.(check (list int)) "all indices" [ 0; 1; 2 ] r.Session.tuned_indices;
  Alcotest.(check bool) "no experience" false r.Session.used_experience;
  Alcotest.(check bool) "found a good point" true
    (r.Session.outcome.Tuner.best_performance > 500.0)

let test_tune_top_n_projects () =
  let session = Session.create ~objective:obj () in
  let r = Session.tune ~top_n:1 session in
  Alcotest.(check (list int)) "most sensitive only" [ 0 ] r.Session.tuned_indices;
  (* The full-space best config keeps b and c at their defaults. *)
  Alcotest.(check (float 1e-9)) "b frozen" 5.0 r.Session.full_best_config.(1);
  Alcotest.(check (float 1e-9)) "c frozen" 5.0 r.Session.full_best_config.(2);
  Alcotest.(check (float 1e-9)) "a maximized" 10.0 r.Session.full_best_config.(0)

let test_tune_with_characteristics_records () =
  let db = History.create () in
  let session = Session.create ~objective:obj ~db () in
  let r1 = Session.tune ~characteristics:[| 0.9; 0.1 |] ~label:"w1" session in
  Alcotest.(check bool) "first run is cold" false r1.Session.used_experience;
  Alcotest.(check int) "recorded" 1 (History.size db);
  let r2 = Session.tune ~characteristics:[| 0.9; 0.1 |] ~label:"w1-again" session in
  Alcotest.(check bool) "second run reuses experience" true r2.Session.used_experience;
  Alcotest.(check int) "recorded again" 2 (History.size db)

let test_tune_options_override () =
  let count = ref 0 in
  let counted = { obj with Objective.eval = (fun c -> incr count; obj.Objective.eval c) } in
  let session = Session.create ~objective:counted () in
  let _ = Session.tune ~options:{ Tuner.default_options with Tuner.max_evaluations = 12 } session in
  Alcotest.(check bool) "budget honoured" true (!count <= 12)

let test_top_n_and_characteristics_compose () =
  let db = History.create () in
  let session = Session.create ~objective:obj ~db () in
  let _ = Session.tune ~top_n:2 ~characteristics:[| 0.5 |] session in
  let r = Session.tune ~top_n:2 ~characteristics:[| 0.5 |] session in
  Alcotest.(check bool) "experience reused in the subspace" true r.Session.used_experience;
  Alcotest.(check (list int)) "subspace indices" [ 0; 1 ] r.Session.tuned_indices;
  Alcotest.(check (float 1e-9)) "c frozen" 5.0 r.Session.full_best_config.(2)

let test_db_path_persists () =
  let path = Filename.temp_file "harmony_session" ".db" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let s1 = Session.create ~objective:obj ~db_path:path () in
      let _ = Session.tune ~characteristics:[| 0.3 |] s1 in
      Session.save_database s1;
      (* A new session picks up the stored experience. *)
      let s2 = Session.create ~objective:obj ~db_path:path () in
      Alcotest.(check int) "experience survived" 1 (History.size (History.load path));
      let r = Session.tune ~characteristics:[| 0.3 |] s2 in
      Alcotest.(check bool) "warm start" true r.Session.used_experience)

let test_db_and_path_conflict () =
  Alcotest.check_raises "both given"
    (Invalid_argument "Session.create: both db and db_path given") (fun () ->
      ignore
        (Session.create ~objective:obj ~db:(History.create ()) ~db_path:"/tmp/x" ()))

let test_save_without_path_is_noop () =
  let s = Session.create ~objective:obj () in
  Session.save_database s

let with_db_path f =
  let path = Filename.temp_file "harmony_session" ".db" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* An objective that "crashes the process" (raises) after [n]
   successful evaluations — the mid-run kill of the checkpoint tests. *)
let crashing_after n =
  let count = ref 0 in
  {
    obj with
    Objective.eval =
      (fun c ->
        incr count;
        if !count > n then raise Exit else obj.Objective.eval c);
  }

let test_checkpoint_validation () =
  Alcotest.check_raises "k < 1"
    (Invalid_argument "Session.create: checkpoint_every must be >= 1")
    (fun () ->
      ignore
        (Session.create ~objective:obj ~db_path:"/tmp/x" ~checkpoint_every:0 ()));
  Alcotest.check_raises "no db_path"
    (Invalid_argument "Session.create: checkpoint_every requires db_path")
    (fun () -> ignore (Session.create ~objective:obj ~checkpoint_every:4 ()))

let test_checkpoint_bounds_loss () =
  with_db_path (fun path ->
      let completed = 10 and k = 3 in
      let session =
        Session.create ~objective:(crashing_after completed) ~db_path:path
          ~checkpoint_every:k ()
      in
      (match Session.tune ~label:"w" ~characteristics:[| 0.5 |] session with
      | exception Exit -> ()
      | _ -> Alcotest.fail "expected the mid-run crash to propagate");
      (* The checkpoint file is a complete, clean database... *)
      let db, dropped = History.load_salvage path in
      Alcotest.(check int) "checkpoint file is clean" 0 dropped;
      Alcotest.(check int) "one provisional entry" 1 (History.size db);
      let e = List.hd (History.entries db) in
      Alcotest.(check bool) "marked in progress" true
        (String.ends_with ~suffix:"[in progress]" e.History.label);
      (* ...holding every evaluation up to the last checkpoint: a kill
         loses at most K measurements. *)
      let persisted = List.length e.History.evaluations in
      Alcotest.(check int) "persisted at the last multiple of K"
        (completed / k * k) persisted;
      Alcotest.(check bool) "lost at most K" true (completed - persisted < k))

let test_checkpoint_clean_completion_replaces_provisional () =
  with_db_path (fun path ->
      let session =
        Session.create ~objective:obj ~db_path:path ~checkpoint_every:2
          ~options:{ Tuner.default_options with Tuner.max_evaluations = 9 }
          ()
      in
      let _ = Session.tune ~label:"w1" ~characteristics:[| 0.5 |] session in
      (* Strict load: the final state is clean, with the committed entry
         and no in-progress residue. *)
      let db = History.load path in
      Alcotest.(check int) "single committed entry" 1 (History.size db);
      Alcotest.(check string) "clean label" "w1"
        (List.hd (History.entries db)).History.label)

let test_checkpoint_without_characteristics_clears () =
  with_db_path (fun path ->
      let session =
        Session.create ~objective:obj ~db_path:path ~checkpoint_every:2
          ~options:{ Tuner.default_options with Tuner.max_evaluations = 9 }
          ()
      in
      let _ = Session.tune session in
      (* Provisional checkpoints were written during the run, but an
         unrecorded run's clean final state is an empty database. *)
      Alcotest.(check int) "no residue" 0 (History.size (History.load path)))

let test_create_surfaces_salvage_warning () =
  with_db_path (fun path ->
      let oc = open_out_bin path in
      output_string oc "entry 0 ok\nchars 1\neval 10 1\nend\ngarbage\n";
      close_out oc;
      let warned = ref 0 in
      let s =
        Session.create ~objective:obj ~db_path:path
          ~on_salvage:(fun n -> warned := n)
          ()
      in
      Alcotest.(check int) "salvage warning surfaced" 1 !warned;
      (* Saving writes back exactly what the session loaded. *)
      Session.save_database s;
      Alcotest.(check int) "prefix loaded" 1 (History.size (History.load path)))

let suite =
  [
    Alcotest.test_case "prioritize cached" `Quick test_prioritize_cached;
    Alcotest.test_case "tune full space" `Quick test_tune_full_space;
    Alcotest.test_case "tune top_n projects" `Quick test_tune_top_n_projects;
    Alcotest.test_case "characteristics recorded" `Quick test_tune_with_characteristics_records;
    Alcotest.test_case "options override" `Quick test_tune_options_override;
    Alcotest.test_case "top_n + characteristics" `Quick test_top_n_and_characteristics_compose;
    Alcotest.test_case "db_path persists" `Quick test_db_path_persists;
    Alcotest.test_case "db and db_path conflict" `Quick test_db_and_path_conflict;
    Alcotest.test_case "save without path" `Quick test_save_without_path_is_noop;
    Alcotest.test_case "checkpoint validation" `Quick test_checkpoint_validation;
    Alcotest.test_case "checkpoint bounds loss" `Quick test_checkpoint_bounds_loss;
    Alcotest.test_case "checkpoint clean completion" `Quick
      test_checkpoint_clean_completion_replaces_provisional;
    Alcotest.test_case "checkpoint clears unrecorded run" `Quick
      test_checkpoint_without_characteristics_clears;
    Alcotest.test_case "create surfaces salvage warning" `Quick
      test_create_surfaces_salvage_warning;
  ]

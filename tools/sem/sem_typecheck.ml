(* In-process typechecking of fixture sources, so test_sem.ml can
   exercise the rules on bad/good pairs without shelling out to dune.
   Production analysis always goes through cmt files (Sem_cmt); this
   path exists for tests only.

   Warnings are force-disabled: fixtures deliberately contain partial
   matches and unused bindings, and the typedtree [Partial] flags the
   rules read are computed regardless. *)

let initialized = ref false

let init () =
  if not !initialized then begin
    (* Fixtures may name Unix (D1 bans its clocks), which ships in its
       own directory next to the stdlib. *)
    Clflags.include_dirs := "+unix" :: !Clflags.include_dirs;
    Compmisc.init_path ();
    ignore (Warnings.parse_options false "-a");
    ignore (Warnings.parse_options true "-a");
    initialized := true
  end

let unit_of_source ~modname ~path src =
  init ();
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string src in
  lexbuf.Lexing.lex_curr_p <-
    { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
  Location.input_name := path;
  match
    let pstr = Parse.implementation lexbuf in
    let tstr, _, _, _, _ = Typemod.type_structure env pstr in
    Typecore.force_delayed_checks ();
    tstr
  with
  | tstr -> Ok { Sem_cmt.modname; path; str = tstr }
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
          Error (Format.asprintf "%a" Location.print_report report)
      | _ -> Error (Printexc.to_string exn))

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

(* A multi-unit fixture, for U1: [(modname, path, source)] typechecked
   in order, a [.mli] path as an interface and anything else as an
   implementation, each in an environment that binds the earlier
   units under their module names (by interface when one was given,
   as a cmi would, else by the inferred signature). *)
let units_of_sources sources =
  init ();
  let lexbuf_of path src =
    let lexbuf = Lexing.from_string src in
    lexbuf.Lexing.lex_curr_p <-
      { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
    Location.input_name := path;
    lexbuf
  in
  let bind modname sg env =
    Env.add_module
      (Ident.create_persistent modname)
      Types.Mp_present (Types.Mty_signature sg) env
  in
  let rec go env units interfaces = function
    | [] -> (List.rev units, List.rev interfaces)
    | (modname, path, src) :: rest ->
        let bound = List.exists (fun i -> i.Sem_cmt.imodname = modname) interfaces in
        if Filename.check_suffix path ".mli" then
          let sg = Typemod.type_interface env (Parse.interface (lexbuf_of path src)) in
          go (bind modname sg.Typedtree.sig_type env) units
            ({ Sem_cmt.imodname = modname; ipath = path; sg } :: interfaces)
            rest
        else
          let str, sg, _, _, _ =
            Typemod.type_structure env (Parse.implementation (lexbuf_of path src))
          in
          Typecore.force_delayed_checks ();
          go
            (if bound then env else bind modname sg env)
            ({ Sem_cmt.modname; path; str } :: units)
            interfaces rest
  in
  match go (Compmisc.initial_env ()) [] [] sources with
  | result -> Ok result
  | exception exn -> (
      match Location.error_of_exn exn with
      | Some (`Ok report) ->
          Error (Format.asprintf "%a" Location.print_report report)
      | _ -> Error (Printexc.to_string exn))

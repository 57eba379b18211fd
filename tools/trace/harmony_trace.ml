(* harmony_trace — offline trace analysis CLI (DESIGN.md §16).

   Commands over a JSONL / Chrome trace file:

     attribute FILE   per-phase latency attribution for server.handle
                      spans; --min-p99-attribution gates CI, --markdown
                      emits the EXPERIMENTS.md table, --check-exemplar
                      resolves the p99 bucket's exemplar end to end
     path ID FILE     span tree + critical path for one trace id
     self FILE        per-span-name self-time aggregation
     top FILE         metrics snapshot (counters/gauges/histograms)
     diff FILE FILE   phase attribution compared across two traces

   Exit codes: 0 ok, 1 check failed, 2 usage or unreadable input. *)

let usage () =
  prerr_endline
    "usage: harmony_trace <command> [options]\n\
     \  attribute [--markdown] [--check-exemplar] \
     [--min-p99-attribution F] FILE\n\
     \  path TRACE_ID FILE\n\
     \  self FILE\n\
     \  top FILE\n\
     \  diff FILE_A FILE_B";
  exit 2

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error e -> Error e

let load path =
  match read_file path with
  | Error e ->
      Printf.eprintf "harmony_trace: %s\n" e;
      exit 2
  | Ok text -> (
      match Trace_core.of_string text with
      | Error e ->
          Printf.eprintf "harmony_trace: %s: %s\n" path e;
          exit 2
      | Ok t ->
          Option.iter
            (fun first ->
              Printf.eprintf
                "harmony_trace: %s: skipped %d malformed records (first: %s)\n"
                path t.Trace_core.dropped first)
            t.Trace_core.malformed;
          t)

let attribute args =
  let markdown = ref false in
  let check_ex = ref false in
  let min_attr = ref (-1.0) in
  let file = ref "" in
  let rec parse = function
    | [] -> ()
    | "--markdown" :: rest ->
        markdown := true;
        parse rest
    | "--check-exemplar" :: rest ->
        check_ex := true;
        parse rest
    | "--min-p99-attribution" :: v :: rest -> (
        match float_of_string_opt v with
        | Some f when f >= 0.0 && f <= 1.0 ->
            min_attr := f;
            parse rest
        | Some _ | None -> usage ())
    | [ f ] when not (String.equal f "") && f.[0] <> '-' -> file := f
    | _ -> usage ()
  in
  parse args;
  if String.equal !file "" then usage ();
  let t = load !file in
  match Trace_core.attribution t with
  | None ->
      prerr_endline "harmony_trace: no server.handle spans in the trace";
      exit 1
  | Some a ->
      print_string (Trace_core.render_attribution ~markdown:!markdown t a);
      let failed = ref false in
      if !min_attr >= 0.0 && a.Trace_core.a_p99_attributed < !min_attr then begin
        Printf.eprintf
          "harmony_trace: p99 attribution %.1f%% below required %.1f%%\n"
          (100.0 *. a.Trace_core.a_p99_attributed)
          (100.0 *. !min_attr);
        failed := true
      end;
      if !check_ex then begin
        match Trace_core.check_exemplar t with
        | Ok text -> print_string text
        | Error e ->
            Printf.eprintf "harmony_trace: exemplar check: %s\n" e;
            failed := true
      end;
      exit (if !failed then 1 else 0)

let () =
  match Array.to_list Sys.argv with
  | _ :: "attribute" :: rest -> attribute rest
  | [ _; "path"; trace_id; file ] -> (
      match Trace_core.render_path (load file) trace_id with
      | Ok text -> print_string text
      | Error e ->
          Printf.eprintf "harmony_trace: %s\n" e;
          exit 1)
  | [ _; "self"; file ] -> print_string (Trace_core.render_self (load file))
  | [ _; "top"; file ] -> print_string (Trace_core.render_top (load file))
  | [ _; "diff"; file_a; file_b ] -> (
      let ta = load file_a and tb = load file_b in
      match (Trace_core.attribution ta, Trace_core.attribution tb) with
      | Some a, Some b -> print_string (Trace_core.render_diff ta a tb b)
      | None, (Some _ | None) | Some _, None ->
          prerr_endline "harmony_trace: diff needs handle spans in both traces";
          exit 1)
  | _ -> usage ()

open Harmony_param
open Harmony_objective

type entry = {
  id : int;
  label : string;
  characteristics : float array;
  evaluations : (Space.config * float) list;
}

type t = { mutable rev_entries : entry list; mutable next_id : int }

let create () = { rev_entries = []; next_id = 0 }

let add t ?(label = "") ~characteristics ~evaluations () =
  let entry =
    {
      id = t.next_id;
      label;
      characteristics = Array.copy characteristics;
      evaluations =
        List.map (fun (c, p) -> (Array.copy c, p)) evaluations;
    }
  in
  t.rev_entries <- entry :: t.rev_entries;
  t.next_id <- t.next_id + 1;
  entry

let add_outcome t ?label ~characteristics outcome =
  let evaluations =
    List.map
      (fun e -> (e.Recorder.config, e.Recorder.performance))
      outcome.Tuner.trace
  in
  add t ?label ~characteristics ~evaluations ()

let entries t = List.rev t.rev_entries
let size t = List.length t.rev_entries

let find_closest t observed =
  let candidates =
    List.filter
      (fun e -> Array.length e.characteristics = Array.length observed)
      t.rev_entries
  in
  match candidates with
  | [] -> None
  | _ :: _ ->
      let features = Array.of_list (List.map (fun e -> e.characteristics) candidates) in
      let idx = Harmony_ml.Nearest.nearest_index features observed in
      List.nth_opt candidates idx

let best_evaluations obj entry ~n =
  if n < 0 then invalid_arg "History.best_evaluations: negative n";
  let distinct =
    List.fold_left
      (fun acc (c, p) ->
        (* Keep the best measurement per distinct configuration. *)
        match List.find_opt (fun (c', _) -> Space.config_equal c c') acc with
        | Some (_, p') when not (Objective.better obj p p') -> acc
        | Some _ ->
            (c, p) :: List.filter (fun (c', _) -> not (Space.config_equal c c')) acc
        | None -> (c, p) :: acc)
      [] entry.evaluations
  in
  let sorted =
    List.sort
      (fun (_, a) (_, b) ->
        if Objective.better obj a b then -1
        else if Objective.better obj b a then 1
        else 0)
      distinct
  in
  List.filteri (fun i _ -> i < n) sorted

let merged_evaluations t =
  List.concat_map (fun e -> e.evaluations) (entries t)

let compress rng t ~max_entries =
  if max_entries < 1 then invalid_arg "History.compress: max_entries < 1";
  let all = Array.of_list (entries t) in
  let n = Array.length all in
  if n <= max_entries then begin
    let out = create () in
    Array.iter
      (fun e ->
        ignore
          (add out ~label:e.label ~characteristics:e.characteristics
             ~evaluations:e.evaluations ()))
      all;
    out
  end
  else begin
    let dim = Array.length all.(0).characteristics in
    Array.iter
      (fun e ->
        if Array.length e.characteristics <> dim then
          invalid_arg "History.compress: mixed characteristics arity")
      all;
    let features = Array.map (fun e -> e.characteristics) all in
    let { Harmony_ml.Kmeans.centroids; assignment; _ } =
      Harmony_ml.Kmeans.fit rng ~k:max_entries features
    in
    (* Representative per cluster: the member closest to the centroid;
       its evaluation log absorbs the whole cluster's (in id order). *)
    let out = create () in
    let emitted = Hashtbl.create max_entries in
    Array.iteri
      (fun i _ ->
        let cluster = assignment.(i) in
        if not (Hashtbl.mem emitted cluster) then begin
          Hashtbl.add emitted cluster ();
          let members =
            Array.to_list
              (Array.of_seq
                 (Seq.filter
                    (fun j -> assignment.(j) = cluster)
                    (Seq.init n Fun.id)))
          in
          let closest =
            let d e =
              Harmony_numerics.Stats.euclidean_distance
                all.(e).characteristics centroids.(cluster)
            in
            match members with
            | [] -> i (* unreachable: [i] is in its own cluster *)
            | m0 :: rest ->
                List.fold_left (fun best j -> if d j < d best then j else best) m0 rest
          in
          let evaluations =
            List.concat_map (fun j -> all.(j).evaluations) members
          in
          ignore
            (add out ~label:all.(closest).label
               ~characteristics:all.(closest).characteristics ~evaluations ())
        end)
      all;
    out
  end

(* ------------------------------------------------------------------ *)
(* Persistence: a line-oriented text format.

     entry <id> <escaped-label>
     chars <x1> <x2> ...
     eval <perf> <c1> <c2> ...
     end

   The label is one space-free token: '%' and every byte at or below
   the space are written %XX (two upper-case hex digits), and a bare
   "-" stands for the empty label, so a literal "-" label is written
   %2D.  Reading decodes every %XX and keeps any other '%' as is. *)

let escape_label s =
  match s with
  | "" -> "-"
  | "-" -> "%2D"
  | _ ->
      let out = Buffer.create (String.length s) in
      String.iter
        (fun c ->
          if c = '%' || c <= ' ' then
            Buffer.add_string out (Printf.sprintf "%%%02X" (Char.code c))
          else Buffer.add_char out c)
        s;
      Buffer.contents out

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | _ -> None

let unescape_label = function
  | "-" -> ""
  | s ->
      let n = String.length s in
      let out = Buffer.create n in
      let rec go i =
        if i < n then
          match
            if s.[i] = '%' && i + 2 < n then
              (hex_digit s.[i + 1], hex_digit s.[i + 2])
            else (None, None)
          with
          | Some hi, Some lo ->
              Buffer.add_char out (Char.chr ((16 * hi) + lo));
              go (i + 3)
          | _ ->
              Buffer.add_char out s.[i];
              go (i + 1)
      in
      go 0;
      Buffer.contents out

let render t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "entry %d %s\n" e.id (escape_label e.label));
      Buffer.add_string buf "chars";
      Array.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf " %.17g" v))
        e.characteristics;
      Buffer.add_char buf '\n';
      List.iter
        (fun (c, p) ->
          Buffer.add_string buf (Printf.sprintf "eval %.17g" p);
          Array.iter
            (fun v -> Buffer.add_string buf (Printf.sprintf " %.17g" v))
            c;
          Buffer.add_char buf '\n')
        e.evaluations;
      Buffer.add_string buf "end\n")
    (entries t);
  Buffer.contents buf

(* A crash mid-save must never leave a truncated database: the file is
   replaced atomically (tmp + fsync + rename), so readers observe the
   old experience or the new, never a torn mixture. *)
let save t path = Harmony_persist.Persist.write_atomic ~path [ render t ]

(* Parse as far as the data is well-formed.  [t] accumulates the
   entries before the first malformed line; the malformed line and
   everything after it are dropped (their count is the warning).  An
   in-progress entry is only kept when nothing afterwards was
   malformed — a bad line inside an entry poisons that entry too. *)
let parse_lines lines =
  let t = create () in
  let current_label = ref None in
  let current_chars = ref [||] in
  let current_evals = ref [] in
  let flush_entry () =
    match !current_label with
    | None -> ()
    | Some label ->
        ignore
          (add t ~label ~characteristics:!current_chars
             ~evaluations:(List.rev !current_evals) ());
        current_label := None;
        current_chars := [||];
        current_evals := []
  in
  let floats values =
    List.map
      (fun v ->
        match float_of_string_opt v with
        | Some f -> f
        | None -> raise Exit)
      values
  in
  let rec go lines remaining =
    match lines with
    | [] ->
        flush_entry ();
        (t, 0, None)
    | line :: rest -> (
        let line = String.trim line in
        let malformed () =
          (t, remaining, Some ("History.load: malformed line: " ^ line))
        in
        if line = "" then go rest (remaining - 1)
        else
          match String.split_on_char ' ' line with
          | "entry" :: _id :: label :: _ ->
              flush_entry ();
              current_label := Some (unescape_label label);
              go rest (remaining - 1)
          | "chars" :: values -> (
              match floats values with
              | vs ->
                  current_chars := Array.of_list vs;
                  go rest (remaining - 1)
              | exception Exit -> malformed ())
          | "eval" :: perf :: coords -> (
              match floats (perf :: coords) with
              | p :: cs ->
                  current_evals := (Array.of_list cs, p) :: !current_evals;
                  go rest (remaining - 1)
              | [] -> malformed ()
              | exception Exit -> malformed ())
          | [ "end" ] ->
              flush_entry ();
              go rest (remaining - 1)
          | _ -> malformed ())
  in
  go lines (List.length lines)

(* Split into lines without counting the virtual empty line a trailing
   newline produces — it would inflate the dropped-line count. *)
let lines_of contents =
  match List.rev (String.split_on_char '\n' contents) with
  | "" :: rev -> List.rev rev
  | [] | _ :: _ -> String.split_on_char '\n' contents

let load_salvage path =
  match Harmony_persist.Persist.read_file path with
  | None -> (create (), 0)
  | Some contents ->
      let t, dropped, _error = parse_lines (lines_of contents) in
      (t, dropped)

let load path =
  match Harmony_persist.Persist.read_file path with
  | None -> raise (Sys_error (path ^ ": cannot read"))
  | Some contents -> (
      match parse_lines (lines_of contents) with
      | t, _, None -> t
      | _, _, Some msg -> failwith msg)

let load_or_create ?warn path =
  if Sys.file_exists path then begin
    let t, dropped = load_salvage path in
    (match warn with
    | Some f when dropped > 0 -> f dropped
    | Some _ | None -> ());
    t
  end
  else create ()

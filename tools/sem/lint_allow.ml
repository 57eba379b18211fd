(* Suppression machinery: inline [(* lint: allow RULE ... *)] comments
   and a repo-level allowlist file, applied to every rule of
   harmony_sem alike.

   Unified same-line / previous-line semantics:

   - a waiver written on a line that contains code waives findings of
     the named rule(s) on that line only:

       let x = List.hd items (* lint: allow T1 *)

   - a waiver written on a line with no code (a comment-only or blank
     line) waives findings on the next line that contains code;
     consecutive comment-only lines stack onto that same code line,
     so a multi-rule justification block reads naturally:

       (* lint: allow T1 — head is guarded by the match above *)
       (* lint: allow S3 — comparator is resolved at int type *)
       let x = List.hd (List.sort compare items)

   Earlier versions waived line n *and* line n+1 unconditionally,
   which both over-suppressed (a same-line waiver silently covered an
   unrelated finding on the next line) and under-suppressed (stacked
   comment-only waivers never reached the code line below them).

   Code detection is a light scanner: it tracks (* *) nesting across
   lines and calls a line "code" when any non-space character appears
   outside a comment.  Comment openers inside string literals are not
   recognized — an acceptable corner for a suppression heuristic.

   The allowlist file holds one waiver per line, [<path> <rule>],
   matched against the linted path by suffix so it is robust to
   [./lib/...] vs [lib/...] vs [../lib/...] invocations.  [#] starts a
   comment. *)

let is_rule_char c =
  (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')

(* Parse every rule id out of [lint: allow R1 R2 ...] markers on one
   line.  Ids run until the first non-alphanumeric character; the tail
   of the comment is free-form justification. *)
let rules_allowed_on_line line =
  let marker = "lint: allow" in
  let n = String.length line and m = String.length marker in
  let out = ref [] in
  let i = ref 0 in
  while !i + m <= n do
    if String.sub line !i m = marker then begin
      let j = ref (!i + m) in
      let stop = ref false in
      while not !stop do
        while !j < n && line.[!j] = ' ' do
          incr j
        done;
        let start = !j in
        while !j < n && is_rule_char line.[!j] do
          incr j
        done;
        if !j > start then out := String.sub line start (!j - start) :: !out
        else stop := true
      done;
      i := !j
    end
    else incr i
  done;
  !out

(* Does [line] contain any code, entering with [depth] open comments?
   Returns (has_code, exit depth). *)
let scan_code ~depth line =
  let n = String.length line in
  let depth = ref depth in
  let has_code = ref false in
  let i = ref 0 in
  while !i < n do
    let c = line.[!i] in
    if !depth = 0 && c = '(' && !i + 1 < n && line.[!i + 1] = '*' then begin
      incr depth;
      i := !i + 2
    end
    else if !depth > 0 && c = '*' && !i + 1 < n && line.[!i + 1] = ')' then begin
      decr depth;
      i := !i + 2
    end
    else begin
      if !depth = 0 && c <> ' ' && c <> '\t' && c <> '\r' then has_code := true;
      incr i
    end
  done;
  (!has_code, !depth)

type t = {
  (* line number (1-based) -> rule ids waived on that line *)
  by_line : (int, string list) Hashtbl.t;
}

let of_source src =
  let by_line = Hashtbl.create 8 in
  let depth = ref 0 in
  let pending = ref [] in
  List.iteri
    (fun idx line ->
      let rules = rules_allowed_on_line line in
      let has_code, depth' = scan_code ~depth:!depth line in
      depth := depth';
      if has_code then begin
        (match rules @ !pending with
        | [] -> ()
        | waived -> Hashtbl.replace by_line (idx + 1) waived);
        pending := []
      end
      else pending := !pending @ rules)
    (String.split_on_char '\n' src);
  { by_line }

let suppresses t ~rule ~line =
  match Hashtbl.find_opt t.by_line line with
  | None -> false
  | Some rules -> List.mem rule rules

(* ------------------------------------------------------------------ *)
(* Allowlist file                                                      *)

type allowlist = { entries : (string * string) list (* path, rule *) }

let empty_allowlist = { entries = [] }

let parse_allowlist_line line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match
    List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))
  with
  | [] -> Ok None
  | [ path; rule ] -> Ok (Some (path, rule))
  | _ -> Error ("malformed allowlist line (want '<path> <rule>'): " ^ line)

let allowlist_of_string src =
  let entries, errors =
    List.fold_left
      (fun (entries, errors) line ->
        match parse_allowlist_line line with
        | Ok None -> (entries, errors)
        | Ok (Some e) -> (e :: entries, errors)
        | Error msg -> (entries, msg :: errors))
      ([], [])
      (String.split_on_char '\n' src)
  in
  match errors with
  | [] -> Ok { entries = List.rev entries }
  | e :: _ -> Error e

let load_allowlist path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      allowlist_of_string (really_input_string ic n))

let path_matches ~entry ~file =
  entry = file
  || String.ends_with ~suffix:("/" ^ entry) file

let allowlist_suppresses t ~rule ~file =
  List.exists
    (fun (path, r) -> r = rule && path_matches ~entry:path ~file)
    t.entries

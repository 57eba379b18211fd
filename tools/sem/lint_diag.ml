(* Diagnostics emitted by the analyzer's rules: a rule id, a severity, a
   source position, and a human-readable message.  Kept deliberately
   flat so both the text and JSON renderers are trivial. *)

type severity = Error | Warning

let severity_to_string = function Error -> "error" | Warning -> "warning"

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;  (* 1-based *)
  col : int;  (* 0-based, matching the compiler's own convention *)
  message : string;
}

let make ~rule ~severity ~loc message =
  let pos = loc.Location.loc_start in
  {
    rule;
    severity;
    file = pos.Lexing.pos_fname;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    message;
  }

(* Deterministic report order: by file, then position, then rule.  An
   explicit comparator — the linter practices what it preaches. *)
let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c

let pp_text ppf d =
  Format.fprintf ppf "%s:%d:%d: [%s] %s: %s" d.file d.line d.col d.rule
    (severity_to_string d.severity)
    d.message

(* Minimal JSON string escaping: enough for file paths and the
   messages the rules produce (ASCII plus the odd quote). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  Printf.sprintf
    {|{"file":"%s","line":%d,"col":%d,"rule":"%s","severity":"%s","message":"%s"}|}
    (json_escape d.file) d.line d.col (json_escape d.rule)
    (severity_to_string d.severity)
    (json_escape d.message)

(* SARIF 2.1.0 emitter for harmony_sem's report.  Emits the minimal
   useful subset: a single run with a tool.driver rule catalogue and one
   result per kept diagnostic.  SARIF columns are 1-based while
   Lint_diag stores the compiler's 0-based columns, hence the +1. *)

type rule_meta = { id : string; summary : string; doc : string }

let level_of_severity = function
  | Lint_diag.Error -> "error"
  | Lint_diag.Warning -> "warning"

let esc = Lint_diag.json_escape

let rule_json r =
  Printf.sprintf
    {|{"id":"%s","shortDescription":{"text":"%s"},"fullDescription":{"text":"%s"}}|}
    (esc r.id) (esc r.summary) (esc r.doc)

let result_json (d : Lint_diag.t) =
  Printf.sprintf
    {|{"ruleId":"%s","level":"%s","message":{"text":"%s"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"%s"},"region":{"startLine":%d,"startColumn":%d}}}]}|}
    (esc d.rule)
    (level_of_severity d.severity)
    (esc d.message) (esc d.file) d.line (d.col + 1)

let to_string ~tool_name ~rules diags =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    {|{"version":"2.1.0","$schema":"https://json.schemastore.org/sarif-2.1.0.json","runs":[{"tool":{"driver":{"name":"|};
  Buffer.add_string buf (esc tool_name);
  Buffer.add_string buf {|","rules":[|};
  Buffer.add_string buf (String.concat "," (List.map rule_json rules));
  Buffer.add_string buf {|]}},"results":[|};
  Buffer.add_string buf (String.concat ",\n" (List.map result_json diags));
  Buffer.add_string buf "]}]}\n";
  Buffer.contents buf

let render ppf ~tool_name ~rules diags =
  Format.fprintf ppf "%s" (to_string ~tool_name ~rules diags)

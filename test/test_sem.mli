val analyze :
  ?modname:string ->
  ?rules:Sem_rules.rule list ->
  ?allowlist:Lint_allow.allowlist ->
  path:string ->
  string ->
  Sem_driver.result
(** Typecheck the fixture [src] as the unit at [path] and run the rules
    over it (the lint suite's entry too). *)

val rules_of : Lint_diag.t list -> string list
(** The rule id of each finding, in order. *)

val suite : unit Alcotest.test_case list

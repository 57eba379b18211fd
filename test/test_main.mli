(* The test runner: every suite, registered by name. *)

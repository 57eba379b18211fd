val amva_solve :
  ?max_iterations:int ->
  ?early_exit:bool ->
  clients:int ->
  think_ms:float ->
  demands_ms:float array ->
  servers:int array ->
  unit ->
  float
(** The reference approximate MVA solver: system throughput. *)

val suite : unit Alcotest.test_case list

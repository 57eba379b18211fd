open Harmony_param
open Harmony_objective

(* A batch is told back whole, or handed out entry by entry and told
   back once its last reading is in. *)
type t = {
  search : Simplex.Search.t;
  direction : Objective.direction;
  mutable readings : float array;  (* of the asked batch, up to [next] *)
  mutable next : int;
      (* the asked configuration out for measurement; [-1] while a
         batch is told, and for good once the search or a measurement
         of its batch raised *)
  mutable measurements : int;
  mutable best_config : Space.config;
      (* the search's own array, which it never mutates; [||] until a
         number is read *)
  mutable best : float;  (* the best reading, NaN until a number is read *)
}

let create ?telemetry ?(options = Simplex.default_options) ~space ~direction ()
    =
  let search = Simplex.Search.start ?telemetry ~options ~space ~direction () in
  {
    search;
    direction;
    readings = Array.make (Array.length (Simplex.Search.asked search)) 0.0;
    next = 0;
    measurements = 0;
    best_config = [||];
    best = Float.nan;
  }

let asked t = Simplex.Search.asked t.search

let abandon t =
  t.next <- -1;
  Simplex.Search.abandon t.search

let outcome t =
  match Simplex.Search.outcome t.search with
  | Some o when Objective.improves t.direction t.best o.Simplex.best_performance
    ->
      Some { o with best_config = t.best_config; best_performance = t.best }
  | result -> result

let pending t =
  if t.next < 0 then invalid_arg "Controller.pending: controller is mid-step";
  match outcome t with
  | Some o -> `Done o
  | None -> `Measure (Array.copy (asked t).(t.next))

let report t performance =
  if t.next < 0 then invalid_arg "Controller.report: no measurement outstanding";
  match Simplex.Search.outcome t.search with
  | Some _ -> invalid_arg "Controller.report: search already finished"
  | None ->
      let asked = asked t in
      t.measurements <- t.measurements + 1;
      if Objective.improves t.direction performance t.best then begin
        t.best_config <- asked.(t.next);
        t.best <- performance
      end;
      t.readings.(t.next) <- performance;
      if t.next + 1 < Array.length asked then t.next <- t.next + 1
      else begin
        (* Telling runs the search to its next batch or its end; if it
           raises (a degenerate initial simplex) the controller stays
           broken. *)
        t.next <- -1;
        Simplex.Search.tell t.search t.readings;
        t.next <- 0;
        let len = Array.length (Simplex.Search.asked t.search) in
        if Array.length t.readings <> len then t.readings <- Array.make len 0.0
      end

let tell t values =
  let n = Array.length values in
  if n = 0 || t.next <> 0 || n <> Array.length (asked t) then
    invalid_arg "Controller.tell: one reading per asked configuration";
  for i = 0 to n - 1 do
    report t values.(i)
  done

let measurements t = t.measurements

open Harmony_param
open Harmony_objective

(* The search asks for batches; a client measures one configuration
   per report, so a batch is handed out entry by entry and told back
   once its last reading is in.  No fiber is parked between reports:
   the session is this record and the search's. *)
type t = {
  search : Simplex.Search.t;
  direction : Objective.direction;
  mutable readings : float array;  (* of the asked batch, up to [next] *)
  mutable next : int;  (* the asked configuration out for measurement *)
  mutable broken : bool;
      (* the search raised while told a batch; it is not to be used again *)
  mutable measurements : int;
  mutable best : (Space.config * float) option;
}

let create ?telemetry ?(options = Simplex.default_options) ~space ~direction ()
    =
  let search = Simplex.Search.start ?telemetry ~options ~space ~direction () in
  {
    search;
    direction;
    readings = Array.make (Array.length (Simplex.Search.asked search)) 0.0;
    next = 0;
    broken = false;
    measurements = 0;
    best = None;
  }

let pending t =
  if t.broken then invalid_arg "Controller.pending: controller is mid-step";
  match Simplex.Search.outcome t.search with
  | Some outcome -> `Done outcome
  | None -> `Measure (Array.copy (Simplex.Search.asked t.search).(t.next))

let improves t (performance : float) best =
  match t.direction with
  | Objective.Higher_is_better -> performance > best
  | Objective.Lower_is_better -> performance < best

let report t performance =
  if t.broken then invalid_arg "Controller.report: no measurement outstanding";
  match Simplex.Search.outcome t.search with
  | Some _ -> invalid_arg "Controller.report: search already finished"
  | None ->
      let asked = Simplex.Search.asked t.search in
      t.measurements <- t.measurements + 1;
      (match t.best with
      | Some (_, best) when not (improves t performance best) -> ()
      | Some _ | None -> t.best <- Some (Array.copy asked.(t.next), performance));
      t.readings.(t.next) <- performance;
      t.next <- t.next + 1;
      if t.next = Array.length asked then begin
        (* Telling runs the search to its next batch or its end; if it
           raises (a degenerate initial simplex) the controller stays
           broken. *)
        t.broken <- true;
        Simplex.Search.tell t.search t.readings;
        t.broken <- false;
        t.next <- 0;
        let len = Array.length (Simplex.Search.asked t.search) in
        if Array.length t.readings <> len then t.readings <- Array.make len 0.0
      end

let measurements t = t.measurements
let best_so_far t = t.best

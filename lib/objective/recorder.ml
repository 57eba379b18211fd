open Harmony_param

type entry = { index : int; config : Space.config; performance : float }
type t = { mutable rev_entries : entry list; mutable next : int }

let wrap ?on_record obj =
  let r = { rev_entries = []; next = 0 } in
  let record c performance =
    let entry = { index = r.next; config = Array.copy c; performance } in
    r.rev_entries <- entry :: r.rev_entries;
    r.next <- r.next + 1;
    match on_record with None -> () | Some f -> f entry
  in
  let eval c =
    let performance = obj.Objective.eval c in
    record c performance;
    performance
  in
  (* A batch is recorded after the underlying evaluations return, in
     input order on the calling domain — the entry sequence (and the
     [on_record] hook order) is the same as the sequential fold's. *)
  let batch disp configs =
    let values = Objective.run_batch obj disp configs in
    Array.iteri (fun i v -> record configs.(i) v) values;
    values
  in
  (r, { obj with Objective.eval; batch = Some batch })

let entries r = List.rev r.rev_entries
let count r = r.next

let clear r =
  r.rev_entries <- [];
  r.next <- 0

let best obj r =
  List.fold_left
    (fun acc e ->
      match acc with
      | None -> Some e
      | Some b ->
          if
            Objective.better obj e.performance b.performance
            || (Float.equal e.performance b.performance && e.index < b.index)
          then Some e
          else acc)
    None r.rev_entries

let lookup r config =
  let rec find = function
    | [] -> None
    | e :: rest ->
        if Space.config_equal e.config config then Some e.performance
        else find rest
  in
  find r.rev_entries

type t = { sink : Persist.sink; mutable records : int }

let open_file ?(wrap = Fun.id) path =
  let existing =
    match Persist.read_file path with None -> "" | Some bytes -> bytes
  in
  let scan = Frame.scan existing in
  let sink = wrap (Persist.file_sink ~trim_to:scan.Frame.valid_bytes path) in
  (scan, { sink; records = List.length scan.Frame.records })

let commit t bytes frames =
  t.sink.Persist.write bytes;
  t.sink.Persist.sync ();
  t.records <- t.records + List.length frames;
  frames

(* Every payload is framed before anything is written (an oversize one
   raises first), and the group's frames go down in one write, so a
   crash mid-write tears only a suffix of the group, which the next
   scan drops. *)
let append t payloads =
  match List.map Frame.encode payloads with
  | [] -> []
  | [ frame ] as frames -> commit t frame frames
  | _ :: _ :: _ as frames -> commit t (String.concat "" frames) frames

let records t = t.records

let reset t =
  t.sink.Persist.reset ();
  t.records <- 0

let close t = t.sink.Persist.close ()

let read path =
  match Persist.read_file path with
  | None -> Frame.scan ""
  | Some bytes -> Frame.scan bytes

type t = { sink : Persist.sink; mutable records : int }

let of_sink sink = { sink; records = 0 }

let open_file ?(wrap = Fun.id) path =
  let existing =
    match Persist.read_file path with None -> "" | Some bytes -> bytes
  in
  let scan = Frame.scan existing in
  let sink = wrap (Persist.file_sink ~trim_to:scan.Frame.valid_bytes path) in
  (scan, { sink; records = List.length scan.Frame.records })

let append t payload =
  let frame = Frame.encode payload in
  t.sink.Persist.write frame;
  t.sink.Persist.sync ();
  t.records <- t.records + 1;
  frame

let records t = t.records

let reset t =
  t.sink.Persist.reset ();
  t.records <- 0

let close t = t.sink.Persist.close ()

let read path =
  match Persist.read_file path with
  | None -> Frame.scan ""
  | Some bytes -> Frame.scan bytes

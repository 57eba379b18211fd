(* One generation of one owner's history: retiring the owner flips
   [live] and every entry it tagged is skipped from then on. *)
type owner = { mutable live : bool; mutable kept : int; mutable bytes : int }

type entry = { owner : owner; frame : string }

type t = {
  magic : string;
  snapshot : string;
  compact_every : int;
  journal : Journal.t;
  mutable seq : int;
  owners : (string, owner) Hashtbl.t;
  mutable entries : entry list;  (* newest first, retired ones included *)
  mutable retired : int;  (* entries of retired owners still in [entries] *)
  mutable live_bytes : int;  (* frame bytes of live owners' entries *)
  mutable journal_bytes : int;  (* frame bytes appended since the reset *)
}

let snapshot_path path = path ^ ".snapshot"
let header ~magic seq = Printf.sprintf "%s 1 %d" magic seq

let parse_header ~magic record =
  match String.split_on_char ' ' record with
  | [ m; "1"; seq ] when String.equal m magic -> int_of_string_opt seq
  | _ -> None

let make ~magic ~compact_every ~seq path journal =
  { magic; snapshot = snapshot_path path; compact_every; journal; seq;
    owners = Hashtbl.create 64; entries = []; retired = 0; live_bytes = 0;
    journal_bytes = 0 }

let attach ?wrap ~magic ~compact_every path =
  let _scan, journal = Journal.open_file ?wrap path in
  (* A fresh log: whatever sat at [path] belongs to some other run. *)
  Journal.reset journal;
  Persist.remove_if_exists (snapshot_path path);
  Persist.remove_if_exists (snapshot_path path ^ ".tmp");
  make ~magic ~compact_every ~seq:0 path journal

let close t = Journal.close t.journal
let seq t = t.seq

let oversize payload =
  if String.length payload <= Frame.max_payload then None
  else
    Some
      (Printf.sprintf
         "message too large: its journal record would exceed %d bytes"
         Frame.max_payload)

let append t ~seq payload =
  let frame = Journal.append t.journal payload in
  t.seq <- seq;
  t.journal_bytes <- t.journal_bytes + String.length frame;
  frame

let keep t ~owner frame =
  let o =
    match Hashtbl.find_opt t.owners owner with
    | Some o -> o
    | None ->
        let o = { live = true; kept = 0; bytes = 0 } in
        Hashtbl.replace t.owners owner o;
        o
  in
  o.kept <- o.kept + 1;
  o.bytes <- o.bytes + String.length frame;
  t.live_bytes <- t.live_bytes + String.length frame;
  t.entries <- { owner = o; frame } :: t.entries

let retire t ~owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> ()
  | Some o ->
      o.live <- false;
      t.retired <- t.retired + o.kept;
      t.live_bytes <- t.live_bytes - o.bytes;
      Hashtbl.remove t.owners owner

(* Snapshot = header plus every kept frame, oldest first, streamed
   through the atomic write; then the journal restarts empty.  Crash
   windows: before the rename we still have the old snapshot and the
   full journal; between rename and reset, the new snapshot and a stale
   journal whose seqs are all <= the header's (skipped on load); after
   the reset we are clean. *)
let compact t =
  if t.retired > 0 then begin
    t.entries <- List.filter (fun e -> e.owner.live) t.entries;
    t.retired <- 0
  end;
  Persist.write_atomic ~path:t.snapshot
    (Frame.encode (header ~magic:t.magic t.seq)
    :: List.rev_map (fun e -> e.frame) t.entries);
  Journal.reset t.journal;
  t.journal_bytes <- 0

(* A snapshot writes the live set, so letting the journal reach half
   its bytes first means each snapshot writes at most twice the journal
   bytes it replaces: at most 3x write amplification.  [compact_every]
   is the floor that keeps a tiny live set from compacting on every
   append. *)
let compact_if_due t =
  let due =
    Journal.records t.journal > t.compact_every
    && 2 * t.journal_bytes >= t.live_bytes
  in
  if due then compact t;
  due

(* [t.seq] is the highest seq either file held at [reopen].  Replay may
   stop below it (the newest records were retired or diverged), and new
   records must not reuse those seqs while a stale journal can still sit
   beside the snapshot this writes. *)
let checkpoint t ~seq =
  t.seq <- max t.seq seq;
  compact t

(* Snapshot events, then the journal's, stale journal records (seq <=
   the snapshot header's) skipped; and the highest seq either file
   holds.  Total: torn tails were already dropped by the frame scan;
   records that do not decode, a snapshot without a valid header, and
   stale records are counted as dropped. *)
let decode_log ~magic ~decode path (journal : Frame.scan) =
  let dropped = ref 0 in
  let decode_record record =
    match decode record with
    | Some ev -> Some ev
    | None ->
        incr dropped;
        None
  in
  let snap_events, snap_seq =
    match (Journal.read (snapshot_path path)).Frame.records with
    | [] -> ([], 0)
    | first :: rest -> (
        match parse_header ~magic first with
        | None ->
            (* Unusable snapshot: fall back to the journal alone. *)
            dropped := !dropped + 1 + List.length rest;
            ([], 0)
        | Some seq -> (List.filter_map decode_record rest, seq))
  in
  let highest = ref snap_seq in
  let journal_events =
    List.filter_map
      (fun record ->
        match decode_record record with
        | Some (seq, _) when seq <= snap_seq ->
            incr dropped;
            None
        | Some ((seq, _) as ev) ->
            highest := max !highest seq;
            Some ev
        | None -> None)
      journal.Frame.records
  in
  (snap_events @ journal_events, !dropped, !highest)

(* The journal is read and scanned once: [open_file]'s scan is the one
   the events come from. *)
let reopen ?wrap ~magic ~decode ~compact_every path =
  let scan, journal = Journal.open_file ?wrap path in
  let events, dropped, seq = decode_log ~magic ~decode path scan in
  (make ~magic ~compact_every ~seq path journal, events, dropped)

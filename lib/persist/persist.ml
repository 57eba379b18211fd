type sink = {
  write : string -> unit;
  sync : unit -> unit;
  reset : unit -> unit;
  close : unit -> unit;
}

exception Crashed

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let written = Unix.write fd b off (n - off) in
      go (off + written)
  in
  go 0

let file_sink ?trim_to path =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  (match trim_to with None -> () | Some n -> Unix.ftruncate fd n);
  let closed = ref false in
  {
    write = (fun s -> write_all fd s);
    sync = (fun () -> Unix.fsync fd);
    reset = (fun () -> Unix.ftruncate fd 0);
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          Unix.close fd
        end);
  }

let buffer_sink buf =
  {
    write = (fun s -> Buffer.add_string buf s);
    sync = (fun () -> ());
    reset = (fun () -> Buffer.clear buf);
    close = (fun () -> ());
  }

let fault_sink ~limit_bytes sink =
  let written = ref 0 in
  let write s =
    let len = String.length s in
    if !written + len <= limit_bytes then begin
      written := !written + len;
      sink.write s
    end
    else begin
      let fits = limit_bytes - !written in
      if fits > 0 then sink.write (String.sub s 0 fits);
      written := limit_bytes;
      (* The torn bytes hit the medium before the "process" dies. *)
      sink.sync ();
      raise Crashed
    end
  in
  { sink with write }

(* Make a rename durable: fsync the containing directory.  Not every
   platform allows opening a directory for this; the rename itself is
   still atomic, so failures only widen the crash window. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

(* The parts go through a channel buffer (allocated outside the OCaml
   heap), so a large file is written in a few big writes without its
   contents ever being concatenated into one string. *)
let write_atomic ~path parts =
  let tmp = path ^ ".tmp" in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter (output_string oc) parts;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | exception (End_of_file | Sys_error _) -> None
          | s -> Some s)

let remove_if_exists path =
  match Sys.remove path with
  | () -> ()
  | exception Sys_error _ -> ()

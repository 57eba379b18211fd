(* CRC-32 (reflected, polynomial 0xEDB88320), table-driven.  Plain
   native ints masked to 32 bits — no Int32 boxing on the append
   path. *)

let mask = 0xFFFFFFFF

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* A plain loop, not [String.iter]: no closure and no boxed ref per
   call.  The table index is masked to a byte. *)
let crc32 s =
  let c = ref mask in
  for i = 0 to String.length s - 1 do
    let byte = Char.code (String.unsafe_get s i) in
    c := Array.unsafe_get crc_table ((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor mask land mask

let header_size = 8
let max_payload = 16 * 1024 * 1024


let encode payload =
  let len = String.length payload in
  if len > max_payload then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (header_size + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b header_size len;
  Bytes.unsafe_to_string b

type scan = {
  records : string list;
  boundaries : int list;
  valid_bytes : int;
  torn : bool;
}

(* Read a 32-bit LE unsigned field; the caller has bounds-checked. *)
let u32 s off = Int32.to_int (String.get_int32_le s off) land mask

let scan s =
  let n = String.length s in
  let rec go off rev_records rev_bounds =
    if off + header_size > n then finish off rev_records rev_bounds (off < n)
    else
      let len = u32 s off in
      if len > max_payload || off + header_size + len > n then
        finish off rev_records rev_bounds true
      else
        let payload = String.sub s (off + header_size) len in
        if crc32 payload <> u32 s (off + 4) then
          finish off rev_records rev_bounds true
        else
          let off' = off + header_size + len in
          go off' (payload :: rev_records) (off' :: rev_bounds)
  and finish off rev_records rev_bounds torn =
    {
      records = List.rev rev_records;
      boundaries = List.rev rev_bounds;
      valid_bytes = off;
      torn;
    }
  in
  go 0 [] []

(* [Printf]'s [%g]-family conversions end in this primitive, with the
   format rebuilt from the conversion's flags and precision (a bare
   [%g] has precision 6), so calling it with that format gives the same
   bytes by construction. *)
external format_float : string -> float -> string = "caml_format_float"

let float_17g f = format_float "%.17g" f
let float_g f = format_float "%.6g" f

(* Digits are counted and written on the non-positive side, so
   [min_int] needs no special case: [m mod 10] is in -9..0. *)
let int_length n =
  let rec digits m k = if m > -10 then k else digits (m / 10) (k + 1) in
  if n < 0 then digits n 2 else digits (-n) 1

let blit_int b pos n =
  let stop = pos + int_length n in
  let m = ref (if n < 0 then n else -n) in
  for i = stop - 1 downto if n < 0 then pos + 1 else pos do
    Bytes.set b i (Char.unsafe_chr (Char.code '0' - (!m mod 10)));
    m := !m / 10
  done;
  if n < 0 then Bytes.set b pos '-';
  stop

let blit_string b pos s =
  let len = String.length s in
  Bytes.blit_string s 0 b pos len;
  pos + len

let concat3 a b c =
  let buf = Bytes.create (String.length a + String.length b + String.length c) in
  ignore (blit_string buf (blit_string buf (blit_string buf 0 a) b) c : int);
  Bytes.unsafe_to_string buf

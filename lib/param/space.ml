module Rng = Harmony_numerics.Rng

type config = float array
type t = { params : Param.t array }

let create ps =
  if ps = [] then invalid_arg "Space.create: empty parameter list";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (p : Param.t) ->
      if Hashtbl.mem seen p.Param.name then
        invalid_arg ("Space.create: duplicate parameter " ^ p.Param.name);
      Hashtbl.add seen p.Param.name ())
    ps;
  { params = Array.of_list ps }

let params t = t.params
let dims t = Array.length t.params

let param t i =
  if i < 0 || i >= dims t then invalid_arg "Space.param: out of range";
  t.params.(i)

let index_of_name t name =
  let rec loop i =
    if i >= dims t then raise Not_found
    else if t.params.(i).Param.name = name then i
    else loop (i + 1)
  in
  loop 0

let defaults t = Array.map (fun (p : Param.t) -> p.Param.default) t.params
let mins t = Array.map (fun (p : Param.t) -> p.Param.min_value) t.params
let maxs t = Array.map (fun (p : Param.t) -> p.Param.max_value) t.params

let check_arity name t c =
  if Array.length c <> dims t then invalid_arg (name ^ ": arity mismatch")

let snap t c =
  check_arity "Space.snap" t c;
  let c = Array.copy c in
  Param.snap_in_place t.params c;
  c

let is_valid t c =
  Array.length c = dims t
  && begin
       let ok = ref true in
       Array.iteri (fun i v -> if not (Param.is_valid t.params.(i) v) then ok := false) c;
       !ok
     end

let normalize t c =
  check_arity "Space.normalize" t c;
  Array.mapi (fun i v -> Param.normalize t.params.(i) v) c

let denormalize t x =
  check_arity "Space.denormalize" t x;
  Array.mapi (fun i v -> Param.denormalize t.params.(i) v) x

let cardinality t =
  Array.fold_left
    (fun acc p -> acc *. float_of_int (Param.num_values p))
    1.0 t.params

let random rng t =
  Array.map
    (fun p -> Param.value_at p (Rng.int rng (Param.num_values p)))
    t.params

let neighbors t c =
  check_arity "Space.neighbors" t c;
  let out = ref [] in
  for i = dims t - 1 downto 0 do
    let p = t.params.(i) in
    let idx = Param.index_of p c.(i) in
    if idx + 1 < Param.num_values p then begin
      let c' = Array.copy c in
      c'.(i) <- Param.value_at p (idx + 1);
      out := c' :: !out
    end;
    if idx > 0 then begin
      let c' = Array.copy c in
      c'.(i) <- Param.value_at p (idx - 1);
      out := c' :: !out
    end
  done;
  !out

let enumerate t =
  let n = dims t in
  let sizes = Array.map Param.num_values t.params in
  (* State: index vector; None once exhausted. *)
  let rec next idxs () =
    match idxs with
    | None -> Seq.Nil
    | Some idxs ->
        let c = Array.mapi (fun i k -> Param.value_at t.params.(i) k) idxs in
        let succ = Array.copy idxs in
        let rec carry d =
          if d < 0 then None
          else if succ.(d) + 1 < sizes.(d) then begin
            succ.(d) <- succ.(d) + 1;
            Some succ
          end
          else begin
            succ.(d) <- 0;
            carry (d - 1)
          end
        in
        Seq.Cons (c, next (carry (n - 1)))
  in
  next (Some (Array.make n 0))

let distance t a b =
  Harmony_numerics.Stats.euclidean_distance (normalize t a) (normalize t b)

let config_key c =
  let b = Bytes.create (8 * Array.length c) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v)) c;
  Bytes.unsafe_to_string b

(* A loop that stops at the first coordinate more than 1e-9 apart.  A
   NaN difference is not more than 1e-9, so it counts as equal. *)
let config_equal a b =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && not (Float.abs (a.(!i) -. b.(!i)) > 1e-9) do
    incr i
  done;
  !i = n

let pp_config t ppf c =
  Format.fprintf ppf "@[<h>{";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%s=%g" t.params.(i).Param.name v)
    c;
  Format.fprintf ppf "}@]"

let config_to_string t c = Format.asprintf "%a" (pp_config t) c

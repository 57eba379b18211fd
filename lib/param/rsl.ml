module Rng = Harmony_numerics.Rng

type expr =
  | Const of int
  | Ref of string
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

type bundle = { name : string; lo : expr; hi : expr; step : expr }
type t = bundle list

exception Parse_error of string

let rec expr_refs = function
  | Const _ -> []
  | Ref n -> [ n ]
  | Neg e -> expr_refs e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) -> expr_refs a @ expr_refs b

let of_bundles bundles =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun b ->
      if Hashtbl.mem seen b.name then
        invalid_arg ("Rsl.of_bundles: duplicate bundle " ^ b.name);
      let refs = expr_refs b.lo @ expr_refs b.hi @ expr_refs b.step in
      List.iter
        (fun r ->
          if not (Hashtbl.mem seen r) then
            invalid_arg
              (Printf.sprintf "Rsl.of_bundles: bundle %s refers to %s which is not earlier"
                 b.name r))
        refs;
      Hashtbl.add seen b.name ())
    bundles;
  bundles

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

type token =
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Plus
  | Minus
  | Star
  | Slash
  | Int of int
  | Ident of string
  | Dollar

let tokenize s =
  let n = String.length s in
  let rec loop i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> loop (i + 1) acc
      | '{' -> loop (i + 1) (Lbrace :: acc)
      | '}' -> loop (i + 1) (Rbrace :: acc)
      | '(' -> loop (i + 1) (Lparen :: acc)
      | ')' -> loop (i + 1) (Rparen :: acc)
      | '+' -> loop (i + 1) (Plus :: acc)
      | '-' -> loop (i + 1) (Minus :: acc)
      | '*' -> loop (i + 1) (Star :: acc)
      | '/' -> loop (i + 1) (Slash :: acc)
      | '$' -> loop (i + 1) (Dollar :: acc)
      | '0' .. '9' ->
          let j = ref i in
          while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
            incr j
          done;
          loop !j (Int (int_of_string (String.sub s i (!j - i))) :: acc)
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          let is_ident c =
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c = '_'
          in
          let j = ref i in
          while !j < n && is_ident s.[!j] do
            incr j
          done;
          loop !j (Ident (String.sub s i (!j - i)) :: acc)
      | c -> raise (Parse_error (Printf.sprintf "unexpected character %C at offset %d" c i))
  in
  loop 0 []

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent)                                          *)

type state = { mutable toks : token list }

let peek st = match st.toks with [] -> None | t :: _ -> Some t

let advance st =
  match st.toks with
  | [] -> raise (Parse_error "unexpected end of input")
  | t :: rest ->
      st.toks <- rest;
      t

let expect st tok what =
  let t = advance st in
  if t <> tok then raise (Parse_error ("expected " ^ what))

let expect_ident st what =
  match advance st with
  | Ident s -> s
  | Lbrace | Rbrace | Lparen | Rparen | Plus | Minus | Star | Slash | Int _
  | Dollar ->
      raise (Parse_error ("expected identifier: " ^ what))

let expect_keyword st kw =
  match advance st with
  | Ident s when s = kw -> ()
  | Ident _ | Lbrace | Rbrace | Lparen | Rparen | Plus | Minus | Star | Slash
  | Int _ | Dollar ->
      raise (Parse_error ("expected keyword " ^ kw))

let rec parse_expr st =
  let lhs = parse_term st in
  parse_expr_rest st lhs

and parse_expr_rest st lhs =
  match peek st with
  | Some Plus ->
      ignore (advance st);
      parse_expr_rest st (Add (lhs, parse_term st))
  | Some Minus ->
      ignore (advance st);
      parse_expr_rest st (Sub (lhs, parse_term st))
  | Some (Lbrace | Rbrace | Lparen | Rparen | Star | Slash | Int _ | Ident _ | Dollar)
  | None ->
      lhs

and parse_term st =
  let lhs = parse_factor st in
  parse_term_rest st lhs

and parse_term_rest st lhs =
  match peek st with
  | Some Star ->
      ignore (advance st);
      parse_term_rest st (Mul (lhs, parse_factor st))
  | Some Slash ->
      ignore (advance st);
      parse_term_rest st (Div (lhs, parse_factor st))
  | Some (Lbrace | Rbrace | Lparen | Rparen | Plus | Minus | Int _ | Ident _ | Dollar)
  | None ->
      lhs

and parse_factor st =
  match advance st with
  | Int k -> Const k
  | Minus -> Neg (parse_factor st)
  | Dollar -> Ref (expect_ident st "after $")
  | Lparen ->
      let e = parse_expr st in
      expect st Rparen ")";
      e
  | Lbrace | Rbrace | Rparen | Plus | Star | Slash | Ident _ ->
      raise (Parse_error "expected expression")

let parse_bundle st =
  expect st Lbrace "{";
  expect_keyword st "harmonyBundle";
  let name = expect_ident st "bundle name" in
  expect st Lbrace "{";
  expect_keyword st "int";
  expect st Lbrace "{";
  let lo = parse_expr st in
  let hi = parse_expr st in
  let step = parse_expr st in
  expect st Rbrace "}";
  expect st Rbrace "}";
  expect st Rbrace "}";
  { name; lo; hi; step }

let parse s =
  let st = { toks = tokenize s } in
  let rec loop acc =
    match peek st with
    | None -> List.rev acc
    | Some _ -> loop (parse_bundle st :: acc)
  in
  let bundles = loop [] in
  if bundles = [] then raise (Parse_error "no bundles");
  try of_bundles bundles with Invalid_argument msg -> raise (Parse_error msg)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let rec expr_to_string = function
  | Const k -> string_of_int k
  | Ref n -> "$" ^ n
  | Neg e -> "-" ^ atom_to_string e
  | Add (a, b) -> expr_to_string a ^ "+" ^ term_to_string b
  | Sub (a, b) -> expr_to_string a ^ "-" ^ term_to_string b
  | Mul (a, b) -> term_to_string a ^ "*" ^ atom_to_string b
  | Div (a, b) -> term_to_string a ^ "/" ^ atom_to_string b

and term_to_string e =
  match e with
  | Add _ | Sub _ -> "(" ^ expr_to_string e ^ ")"
  | Const _ | Ref _ | Neg _ | Mul _ | Div _ -> expr_to_string e

and atom_to_string e =
  match e with
  | Add _ | Sub _ | Mul _ | Div _ -> "(" ^ expr_to_string e ^ ")"
  | Const _ | Ref _ | Neg _ -> expr_to_string e

(* The three bounds are space-separated, so a field that starts with a
   unary minus would be absorbed into the preceding expression when
   re-parsed ("1 -5" reads as 1-5); parenthesize those. *)
let field_to_string e =
  let s = expr_to_string e in
  if String.length s > 0 && s.[0] = '-' then "(" ^ s ^ ")" else s

let bundle_to_string b =
  Printf.sprintf "{ harmonyBundle %s { int {%s %s %s} }}" b.name
    (field_to_string b.lo) (field_to_string b.hi) (field_to_string b.step)

let to_string t = String.concat "\n" (List.map bundle_to_string t)
let names t = List.map (fun b -> b.name) t

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

let rec eval_expr lookup = function
  | Const k -> k
  | Ref n -> lookup n
  | Neg e -> -eval_expr lookup e
  | Add (a, b) -> eval_expr lookup a + eval_expr lookup b
  | Sub (a, b) -> eval_expr lookup a - eval_expr lookup b
  | Mul (a, b) -> eval_expr lookup a * eval_expr lookup b
  | Div (a, b) -> eval_expr lookup a / eval_expr lookup b

(* The position of bundle [name] in [t] ([of_bundles] guarantees it is
   there, and earlier than any bundle that refers to it). *)
let rec position name i = function
  | [] -> raise Not_found
  | b :: rest -> if String.equal b.name name then i else position name (i + 1) rest

(* [eval_expr] with every [$Name] read from [values] at the bundle's
   position: no lookup closure per bundle. *)
let rec eval_at t values = function
  | Const k -> k
  | Ref n -> values.(position n 0 t)
  | Neg e -> -eval_at t values e
  | Add (a, b) -> eval_at t values a + eval_at t values b
  | Sub (a, b) -> eval_at t values a - eval_at t values b
  | Mul (a, b) -> eval_at t values a * eval_at t values b
  | Div (a, b) -> eval_at t values a / eval_at t values b

let check_step b step =
  if step <= 0 then invalid_arg ("Rsl.bounds: non-positive step for " ^ b.name)

let bounds t values i =
  let b =
    match List.nth_opt t i with
    | Some b -> b
    | None -> invalid_arg "Rsl.bounds: index out of range"
  in
  let lo = eval_at t values b.lo in
  let hi = eval_at t values b.hi in
  let step = eval_at t values b.step in
  check_step b step;
  (lo, hi, step)

(* Interval arithmetic over bound expressions; division uses the
   four-corner rule and requires the divisor interval to exclude 0. *)
let rec eval_interval lookup = function
  | Const k -> (k, k)
  | Ref n -> lookup n
  | Neg e ->
      let lo, hi = eval_interval lookup e in
      (-hi, -lo)
  | Add (a, b) ->
      let alo, ahi = eval_interval lookup a and blo, bhi = eval_interval lookup b in
      (alo + blo, ahi + bhi)
  | Sub (a, b) ->
      let alo, ahi = eval_interval lookup a and blo, bhi = eval_interval lookup b in
      (alo - bhi, ahi - blo)
  | Mul (a, b) ->
      let alo, ahi = eval_interval lookup a and blo, bhi = eval_interval lookup b in
      let corners = [ alo * blo; alo * bhi; ahi * blo; ahi * bhi ] in
      (List.fold_left Int.min max_int corners, List.fold_left Int.max min_int corners)
  | Div (a, b) ->
      let alo, ahi = eval_interval lookup a and blo, bhi = eval_interval lookup b in
      if blo <= 0 && bhi >= 0 then
        invalid_arg "Rsl.static_bounds: division by an interval containing 0";
      let corners = [ alo / blo; alo / bhi; ahi / blo; ahi / bhi ] in
      (List.fold_left Int.min max_int corners, List.fold_left Int.max min_int corners)

let static_bounds t =
  let known = Hashtbl.create 8 in
  let lookup n =
    match Hashtbl.find_opt known n with
    | Some iv -> iv
    | None -> invalid_arg ("Rsl.static_bounds: unknown reference " ^ n)
  in
  let out =
    List.map
      (fun b ->
        let lo_lo, _lo_hi = eval_interval lookup b.lo in
        let _hi_lo, hi_hi = eval_interval lookup b.hi in
        if hi_hi < lo_lo then
          invalid_arg ("Rsl.static_bounds: bundle " ^ b.name ^ " is always empty");
        Hashtbl.add known b.name (lo_lo, hi_hi);
        (lo_lo, hi_hi))
      t
  in
  Array.of_list out

let to_space t =
  let boxes = static_bounds t in
  let midpoints = Hashtbl.create 8 in
  let params =
    List.mapi
      (fun i b ->
        let lo, hi = boxes.(i) in
        let step =
          eval_expr
            (fun n ->
              match Hashtbl.find_opt midpoints n with
              | Some v -> v
              | None -> invalid_arg ("Rsl.to_space: unknown reference " ^ n))
            b.step
        in
        let step = Int.max 1 step in
        Hashtbl.add midpoints b.name ((lo + hi) / 2);
        Param.make ~name:b.name ~min_value:(float_of_int lo)
          ~max_value:(float_of_int hi) ~step:(float_of_int step)
          ~default:(float_of_int ((lo + hi) / 2)))
      t
  in
  Space.create params

let is_feasible t values =
  List.length t = Array.length values
  && begin
       let ok = ref true in
       List.iteri
         (fun i _ ->
           if !ok then begin
             let lo, hi, step = bounds t values i in
             let v = values.(i) in
             if v < lo || v > hi || (v - lo) mod step <> 0 then ok := false
           end)
         t;
       !ok
     end

let feasible_count ?(limit = max_int) t =
  let n = List.length t in
  let values = Array.make n 0 in
  let count = ref 0 in
  let rec go i =
    if !count >= limit then ()
    else if i = n then incr count
    else begin
      let lo, hi, step = bounds t values i in
      let v = ref lo in
      while !v <= hi && !count < limit do
        values.(i) <- !v;
        go (i + 1);
        v := !v + step
      done
    end
  in
  go 0;
  Int.min !count limit

let enumerate t =
  let n = List.length t in
  (* Depth-first generation, made lazy with Seq.  The [values] array is
     copied at each leaf so emitted configurations are independent. *)
  let rec go i values () =
    if i = n then Seq.Cons (Array.copy values, Seq.empty)
    else begin
      let lo, hi, step = bounds t values i in
      let rec values_from v () =
        if v > hi then Seq.Nil
        else begin
          values.(i) <- v;
          Seq.append (go (i + 1) values) (values_from (v + step)) ()
        end
      in
      values_from lo ()
    end
  in
  fun () -> go 0 (Array.make n 0) ()

let sample rng t =
  let n = List.length t in
  let values = Array.make n 0 in
  let rec go i =
    if i = n then Some (Array.copy values)
    else begin
      let lo, hi, step = bounds t values i in
      if hi < lo then None
      else begin
        let choices = 1 + ((hi - lo) / step) in
        values.(i) <- lo + (step * Rng.int rng choices);
        go (i + 1)
      end
    end
  in
  go 0

(* One walk over the bundles, each bound read as [bounds] reads it. *)
let repair t c =
  let n = List.length t in
  if Array.length c <> n then invalid_arg "Rsl.repair: arity mismatch";
  let values = Array.make n 0 in
  let rec walk i = function
    | [] -> ()
    | b :: rest ->
        let lo = eval_at t values b.lo in
        let hi = eval_at t values b.hi in
        let step = eval_at t values b.step in
        check_step b step;
        (if hi < lo then values.(i) <- lo
         else begin
           let v = Float.min (float_of_int hi) (Float.max (float_of_int lo) c.(i)) in
           let k = Float.round ((v -. float_of_int lo) /. float_of_int step) in
           let kmax = (hi - lo) / step in
           values.(i) <- lo + (Int.max 0 (Int.min kmax (int_of_float k)) * step)
         end);
        walk (i + 1) rest
  in
  walk 0 t;
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do
    out.(i) <- float_of_int values.(i)
  done;
  out

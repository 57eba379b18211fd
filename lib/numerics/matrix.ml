type t = { nrows : int; ncols : int; data : float array }

let make nrows ncols x =
  if nrows <= 0 || ncols <= 0 then invalid_arg "Matrix.make: non-positive size";
  { nrows; ncols; data = Array.make (nrows * ncols) x }

let init nrows ncols f =
  if nrows <= 0 || ncols <= 0 then invalid_arg "Matrix.init: non-positive size";
  { nrows; ncols; data = Array.init (nrows * ncols) (fun k -> f (k / ncols) (k mod ncols)) }

let rows m = m.nrows
let cols m = m.ncols

let get m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Matrix.get: out of bounds";
  m.data.((i * m.ncols) + j)

let set m i j x =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Matrix.set: out of bounds";
  m.data.((i * m.ncols) + j) <- x

let of_rows arr =
  let nrows = Array.length arr in
  if nrows = 0 then invalid_arg "Matrix.of_rows: no rows";
  let ncols = Array.length arr.(0) in
  if ncols = 0 then invalid_arg "Matrix.of_rows: empty rows";
  Array.iter
    (fun r -> if Array.length r <> ncols then invalid_arg "Matrix.of_rows: ragged rows")
    arr;
  init nrows ncols (fun i j -> arr.(i).(j))

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)
let copy m = { m with data = Array.copy m.data }
let transpose m = init m.ncols m.nrows (fun i j -> get m j i)
let map f m = { m with data = Array.map f m.data }

let zip_with name f a b =
  if a.nrows <> b.nrows || a.ncols <> b.ncols then
    invalid_arg (name ^ ": dimension mismatch");
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = zip_with "Matrix.add" ( +. ) a b
let scale s m = map (fun x -> s *. x) m

let mul a b =
  if a.ncols <> b.nrows then invalid_arg "Matrix.mul: dimension mismatch";
  let c = make a.nrows b.ncols 0.0 in
  for i = 0 to a.nrows - 1 do
    for k = 0 to a.ncols - 1 do
      let aik = get a i k in
      if not (Float.equal aik 0.0) then
        for j = 0 to b.ncols - 1 do
          set c i j (get c i j +. (aik *. get b k j))
        done
    done
  done;
  c

let mul_vec a x =
  if a.ncols <> Array.length x then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init a.nrows (fun i ->
      let s = ref 0.0 in
      for j = 0 to a.ncols - 1 do
        s := !s +. (get a i j *. x.(j))
      done;
      !s)

let solve a b =
  let n = a.nrows in
  if a.ncols <> n then invalid_arg "Matrix.solve: matrix not square";
  if Array.length b <> n then invalid_arg "Matrix.solve: rhs size mismatch";
  let m = copy a in
  let x = Array.copy b in
  (* Gaussian elimination with partial pivoting. *)
  for k = 0 to n - 1 do
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (get m i k) > Float.abs (get m !pivot k) then pivot := i
    done;
    if Float.abs (get m !pivot k) < 1e-12 then failwith "Matrix.solve: singular matrix";
    if !pivot <> k then begin
      for j = 0 to n - 1 do
        let tmp = get m k j in
        set m k j (get m !pivot j);
        set m !pivot j tmp
      done;
      let tmp = x.(k) in
      x.(k) <- x.(!pivot);
      x.(!pivot) <- tmp
    end;
    for i = k + 1 to n - 1 do
      let factor = get m i k /. get m k k in
      if not (Float.equal factor 0.0) then begin
        for j = k to n - 1 do
          set m i j (get m i j -. (factor *. get m k j))
        done;
        x.(i) <- x.(i) -. (factor *. x.(k))
      end
    done
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (get m i j *. x.(j))
    done;
    x.(i) <- !s /. get m i i
  done;
  x

let equal ?(eps = 1e-9) a b =
  a.nrows = b.nrows && a.ncols = b.ncols
  && begin
       let ok = ref true in
       Array.iteri
         (fun k x -> if Float.abs (x -. b.data.(k)) > eps then ok := false)
         a.data;
       !ok
     end

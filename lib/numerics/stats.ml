let require_non_empty name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty array")

let mean a =
  require_non_empty "Stats.mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let m = mean a in
    let acc = Array.fold_left (fun s x -> s +. ((x -. m) *. (x -. m))) 0.0 a in
    acc /. float_of_int (n - 1)
  end

let stddev a = sqrt (variance a)

let min a =
  require_non_empty "Stats.min" a;
  Array.fold_left Float.min a.(0) a

let max a =
  require_non_empty "Stats.max" a;
  Array.fold_left Float.max a.(0) a

let sorted_copy a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

let percentile_sorted b p =
  require_non_empty "Stats.percentile_sorted" b;
  if p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile_sorted: p out of range";
  let n = Array.length b in
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = Int.min (lo + 1) (n - 1) in
  let frac = rank -. float_of_int lo in
  b.(lo) +. (frac *. (b.(hi) -. b.(lo)))

let percentile a p =
  require_non_empty "Stats.percentile" a;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  percentile_sorted (sorted_copy a) p

let median a = percentile a 50.0

(* In-place heapsort of the first [len] cells of a floatarray:
   allocation-free and deterministic (equal keys are interchangeable
   float values), for scratch buffers reused across evaluations. *)
let sort_floatarray ?len a =
  let n = match len with None -> Float.Array.length a | Some l -> l in
  if n < 0 || n > Float.Array.length a then
    invalid_arg "Stats.sort_floatarray: len out of range";
  let get = Float.Array.get a and set = Float.Array.set a in
  let swap i j =
    let t = get i in
    set i (get j);
    set j t
  in
  let rec sift_down i limit =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let largest = ref i in
    if l < limit && get l > get !largest then largest := l;
    if r < limit && get r > get !largest then largest := r;
    if !largest <> i then begin
      swap i !largest;
      sift_down !largest limit
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift_down i n
  done;
  for i = n - 1 downto 1 do
    swap 0 i;
    sift_down 0 i
  done

let percentile_sorted_floatarray ?len a p =
  let n = match len with None -> Float.Array.length a | Some l -> l in
  if n < 0 || n > Float.Array.length a then
    invalid_arg "Stats.percentile_sorted_floatarray: len out of range";
  if n = 0 then invalid_arg "Stats.percentile_sorted_floatarray: empty";
  if p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile_sorted_floatarray: p out of range";
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = Int.min (lo + 1) (n - 1) in
  let frac = rank -. float_of_int lo in
  let vlo = Float.Array.get a lo and vhi = Float.Array.get a hi in
  vlo +. (frac *. (vhi -. vlo))

let mad a =
  require_non_empty "Stats.mad" a;
  let m = median a in
  median (Array.map (fun x -> Float.abs (x -. m)) a)

let rescale ~lo ~hi a =
  require_non_empty "Stats.rescale" a;
  let amin = min a and amax = max a in
  let span = amax -. amin in
  if Float.equal span 0.0 then Array.map (fun _ -> lo) a
  else Array.map (fun x -> lo +. ((x -. amin) /. span *. (hi -. lo))) a

let histogram ~buckets ~lo ~hi a =
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets <= 0";
  if hi <= lo then invalid_arg "Stats.histogram: hi <= lo";
  let counts = Array.make buckets 0 in
  let width = (hi -. lo) /. float_of_int buckets in
  let bucket_of x =
    let i = int_of_float ((x -. lo) /. width) in
    Int.max 0 (Int.min (buckets - 1) i)
  in
  Array.iter (fun x -> counts.(bucket_of x) <- counts.(bucket_of x) + 1) a;
  counts

let histogram_fractions ~buckets ~lo ~hi a =
  let counts = histogram ~buckets ~lo ~hi a in
  let total = float_of_int (Array.length a) in
  if Float.equal total 0.0 then Array.make buckets 0.0
  else Array.map (fun c -> float_of_int c /. total) counts

let pearson xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Stats.pearson: length mismatch";
  if Array.length xs < 2 then 0.0
  else begin
    let mx = mean xs and my = mean ys in
    let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
    Array.iteri
      (fun i x ->
        let dx = x -. mx and dy = ys.(i) -. my in
        sxy := !sxy +. (dx *. dy);
        sxx := !sxx +. (dx *. dx);
        syy := !syy +. (dy *. dy))
      xs;
    if Float.equal !sxx 0.0 || Float.equal !syy 0.0 then 0.0
    else !sxy /. sqrt (!sxx *. !syy)
  end

let check_same_length name a b =
  if Array.length a <> Array.length b then invalid_arg (name ^ ": length mismatch")

(* The distance kernels run inside the simplex loop and the seed pick,
   so they are plain loops: a float accumulator captured by a closure
   (as in [Array.iteri (fun ... -> s := ...)]) is boxed on every
   update. *)
let chebyshev_distance a b =
  check_same_length "Stats.chebyshev_distance" a b;
  let d = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let x = Float.abs (a.(i) -. b.(i)) in
    (* [d := Float.max !d x] without the call: [x] is never negative,
       so a NaN is the only case that needs care, and as in
       [Float.max] the newest NaN wins. *)
    if Float.is_nan x || x > !d then d := x
  done;
  !d

let euclidean_distance a b =
  check_same_length "Stats.euclidean_distance" a b;
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    (* The square is the left operand: when both are NaN, x86-64
       keeps the left one's payload, and the tests pin NaN payloads to
       those of a closure-based reference, which compiles to this
       order. *)
    s := (d *. d) +. !s
  done;
  sqrt !s

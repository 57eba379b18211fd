let qr_solve a b =
  let m = Matrix.rows a and n = Matrix.cols a in
  if m < n then invalid_arg "Lstsq.qr_solve: fewer rows than columns";
  if Array.length b <> m then invalid_arg "Lstsq.qr_solve: rhs size mismatch";
  let r = Matrix.copy a in
  let y = Array.copy b in
  (* Householder reflections applied in place to [r] and [y]. *)
  for k = 0 to n - 1 do
    let norm = ref 0.0 in
    for i = k to m - 1 do
      let v = Matrix.get r i k in
      norm := !norm +. (v *. v)
    done;
    let norm = sqrt !norm in
    if norm > 1e-13 then begin
      let alpha = if Matrix.get r k k > 0.0 then -.norm else norm in
      let v = Array.make m 0.0 in
      v.(k) <- Matrix.get r k k -. alpha;
      for i = k + 1 to m - 1 do
        v.(i) <- Matrix.get r i k
      done;
      let vtv = ref 0.0 in
      for i = k to m - 1 do
        vtv := !vtv +. (v.(i) *. v.(i))
      done;
      if !vtv > 1e-26 then begin
        for j = k to n - 1 do
          let dot = ref 0.0 in
          for i = k to m - 1 do
            dot := !dot +. (v.(i) *. Matrix.get r i j)
          done;
          let f = 2.0 *. !dot /. !vtv in
          for i = k to m - 1 do
            Matrix.set r i j (Matrix.get r i j -. (f *. v.(i)))
          done
        done;
        let dot = ref 0.0 in
        for i = k to m - 1 do
          dot := !dot +. (v.(i) *. y.(i))
        done;
        let f = 2.0 *. !dot /. !vtv in
        for i = k to m - 1 do
          y.(i) <- y.(i) -. (f *. v.(i))
        done
      end
    end
  done;
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let s = ref y.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Matrix.get r i j *. x.(j))
    done;
    let d = Matrix.get r i i in
    if Float.abs d < 1e-12 then failwith "Lstsq.qr_solve: rank deficient";
    x.(i) <- !s /. d
  done;
  x

let minimum_norm a b =
  (* x = a^T (a a^T)^-1 b, with a ridge fallback if the Gram matrix is
     singular. *)
  let at = Matrix.transpose a in
  let gram = Matrix.mul a at in
  let z =
    try Matrix.solve gram b
    with Failure _ ->
      let n = Matrix.rows gram in
      let ridged = Matrix.add gram (Matrix.scale 1e-8 (Matrix.identity n)) in
      Matrix.solve ridged b
  in
  Matrix.mul_vec at z

let solve a b =
  let m = Matrix.rows a and n = Matrix.cols a in
  if Array.length b <> m then invalid_arg "Lstsq.solve: rhs size mismatch";
  if m >= n then
    try qr_solve a b
    with Failure _ ->
      (* Rank deficient: regularised normal equations. *)
      let at = Matrix.transpose a in
      let gram = Matrix.add (Matrix.mul at a) (Matrix.scale 1e-8 (Matrix.identity n)) in
      Matrix.solve gram (Matrix.mul_vec at b)
  else minimum_norm a b

let fit_hyperplane points values =
  let m = Array.length points in
  if m = 0 then invalid_arg "Lstsq.fit_hyperplane: no points";
  if Array.length values <> m then invalid_arg "Lstsq.fit_hyperplane: size mismatch";
  let k = Array.length points.(0) in
  let a = Matrix.init m (k + 1) (fun i j -> if j = k then 1.0 else points.(i).(j)) in
  solve a values

let predict_hyperplane coeffs point =
  let k = Array.length point in
  if Array.length coeffs <> k + 1 then
    invalid_arg "Lstsq.predict_hyperplane: coefficient size mismatch";
  let s = ref coeffs.(k) in
  for j = 0 to k - 1 do
    s := !s +. (coeffs.(j) *. point.(j))
  done;
  !s

open Harmony_param
open Harmony_objective

type hierarchy = {
  l1 : Cache.t;
  l2 : Cache.t;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
}

let default_hierarchy () =
  {
    l1 = Cache.create ~size_bytes:8192 ~line_bytes:64 ~associativity:2;
    l2 = Cache.create ~size_bytes:65536 ~line_bytes:64 ~associativity:4;
    l1_miss_cycles = 10;
    l2_miss_cycles = 60;
  }

type result = {
  cycles : float;
  l1_hit_rate : float;
  l2_hit_rate : float;
  flops : int;
}

let element_bytes = 8

let run ?hierarchy ~m ~n ~k ~mb ~nb ~kb () =
  if m <= 0 || n <= 0 || k <= 0 then invalid_arg "Matmul.run: non-positive dims";
  let h = match hierarchy with Some h -> h | None -> default_hierarchy () in
  Cache.reset h.l1;
  Cache.reset h.l2;
  let mb = Int.max 1 (Int.min mb m)
  and nb = Int.max 1 (Int.min nb n)
  and kb = Int.max 1 (Int.min kb k) in
  (* Array base addresses, padded apart. *)
  let a_base = 0 in
  let b_base = a_base + (m * k * element_bytes) in
  let c_base = b_base + (k * n * element_bytes) in
  let cycles = ref 0.0 in
  let touch address =
    if Cache.access h.l1 address then cycles := !cycles +. 1.0
    else if Cache.access h.l2 address then
      cycles := !cycles +. 1.0 +. float_of_int h.l1_miss_cycles
    else
      cycles :=
        !cycles +. 1.0 +. float_of_int h.l1_miss_cycles
        +. float_of_int h.l2_miss_cycles
  in
  let a i j = touch (a_base + (((i * k) + j) * element_bytes)) in
  let b i j = touch (b_base + (((i * n) + j) * element_bytes)) in
  let c i j = touch (c_base + (((i * n) + j) * element_bytes)) in
  (* Blocked i-k-j loop nest: for each (ib, kb, jb) block triple, the
     inner loops touch C[i][j], A[i][p], B[p][j]. *)
  let i0 = ref 0 in
  while !i0 < m do
    let imax = Int.min m (!i0 + mb) in
    let p0 = ref 0 in
    while !p0 < k do
      let pmax = Int.min k (!p0 + kb) in
      let j0 = ref 0 in
      while !j0 < n do
        let jmax = Int.min n (!j0 + nb) in
        for i = !i0 to imax - 1 do
          for p = !p0 to pmax - 1 do
            a i p;
            for j = !j0 to jmax - 1 do
              b p j;
              c i j
            done
          done
        done;
        j0 := jmax
      done;
      p0 := pmax
    done;
    i0 := imax
  done;
  let l1_missed = Cache.misses h.l1 in
  {
    cycles = !cycles;
    l1_hit_rate = Cache.hit_rate h.l1;
    l2_hit_rate =
      (if l1_missed = 0 then 0.0
       else float_of_int (Cache.hits h.l2) /. float_of_int l1_missed);
    flops = 2 * m * n * k;
  }

let space ~max_block =
  Space.create
    [
      Param.int_range ~name:"mb" ~lo:4 ~hi:max_block ~step:4 ~default:8 ();
      Param.int_range ~name:"nb" ~lo:4 ~hi:max_block ~step:4 ~default:8 ();
      Param.int_range ~name:"kb" ~lo:4 ~hi:max_block ~step:4 ~default:8 ();
    ]

let objective ?hierarchy ~m ~n ~k () =
  let max_block = Int.max 4 (Int.max m (Int.max n k)) in
  let h = match hierarchy with Some h -> h | None -> default_hierarchy () in
  Objective.create ~space:(space ~max_block)
    ~direction:Objective.Lower_is_better (fun conf ->
      let r =
        run ~hierarchy:h ~m ~n ~k ~mb:(int_of_float conf.(0))
          ~nb:(int_of_float conf.(1)) ~kb:(int_of_float conf.(2)) ()
      in
      r.cycles)

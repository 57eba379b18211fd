type t = Random.State.t

let create seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5bf03635 |]

(* [Random.State.make] hashes the seed words, as little-endian int64s
   followed by the byte 1 and then 2, into two MD5 digests d1 and d2,
   and seeds L64X128 with a = d1[0..8) lor 1, s = d1[8..16),
   x0 = d2[0..8) (1 if zero) and x1 = d2[8..16) (2 if zero).  The
   first output mixes only s + x0, and [float _ 1.0] maps it to
   (z lsr 11) * 2^-53 unless that is zero, when it draws again: that
   2^-53 case builds the state. *)
let seeded_float seed =
  let b = Bytes.create 25 in
  Bytes.set_int64_le b 0 (Int64.of_int seed);
  Bytes.set_int64_le b 8 (Int64.of_int 0x9e3779b9);
  Bytes.set_int64_le b 16 (Int64.of_int (seed lxor 0x5bf03635));
  Bytes.set b 24 '\x01';
  let d1 = Digest.bytes b in
  Bytes.set b 24 '\x02';
  let d2 = Digest.bytes b in
  let x0 = String.get_int64_le d2 0 in
  let x0 = if Int64.equal x0 0L then 1L else x0 in
  let z = Int64.add (String.get_int64_le d1 8) x0 in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 32)) 0xdaba0b6eb09322e3L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 32)) 0xdaba0b6eb09322e3L in
  let z = Int64.logxor z (Int64.shift_right_logical z 32) in
  let bits = Int64.shift_right_logical z 11 in
  if Int64.equal bits 0L then Random.State.float (create seed) 1.0
  else Int64.to_float bits *. 0x1.p-53

let split t =
  (* Draw a fresh seed from the parent stream; the child is then
     decoupled from subsequent parent draws. *)
  let seed = Random.State.bits t in
  Random.State.make [| seed; Random.State.bits t |]

let copy = Random.State.copy
let int t n = Random.State.int t n

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + Random.State.int t (hi - lo + 1)

let float t x = Random.State.float t x
let uniform t lo hi = lo +. Random.State.float t (hi -. lo)
let bool t = Random.State.bool t

let exponential t mean =
  let u = 1.0 -. Random.State.float t 1.0 in
  -.mean *. log u

let gaussian t mu sigma =
  let u1 = 1.0 -. Random.State.float t 1.0 in
  let u2 = Random.State.float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let perturb t p x = x *. uniform t (1.0 -. p) (1.0 +. p)

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  let pool = Array.init n (fun i -> i) in
  (* Partial Fisher-Yates: after k swaps the prefix is the sample. *)
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  Array.sub pool 0 k

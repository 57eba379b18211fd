(* The heap is flattened onto parallel arrays — unboxed float keys,
   int insertion sequences (FIFO tie-break), int payloads — so a push
   or pop allocates nothing: the per-entry record of the naive
   representation costs four words per event, and the event loop is
   the simulator's hottest path. *)
type t = {
  mutable keys : floatarray;
  mutable seqs : int array;
  mutable vals : int array;
  mutable len : int;
  mutable next_seq : int;
}

let create () =
  { keys = Float.Array.create 0; seqs = [||]; vals = [||]; len = 0; next_seq = 0 }

let size h = h.len
let is_empty h = h.len = 0

let less h i j =
  let ki = Float.Array.get h.keys i and kj = Float.Array.get h.keys j in
  ki < kj || (Float.equal ki kj && h.seqs.(i) < h.seqs.(j))

let swap h i j =
  let k = Float.Array.get h.keys i in
  Float.Array.set h.keys i (Float.Array.get h.keys j);
  Float.Array.set h.keys j k;
  let s = h.seqs.(i) in
  h.seqs.(i) <- h.seqs.(j);
  h.seqs.(j) <- s;
  let v = h.vals.(i) in
  h.vals.(i) <- h.vals.(j);
  h.vals.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && less h l !smallest then smallest := l;
  if r < h.len && less h r !smallest then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let grow h =
  let cap = Int.max 16 (2 * Float.Array.length h.keys) in
  let keys = Float.Array.make cap 0.0 in
  Float.Array.blit h.keys 0 keys 0 h.len;
  let seqs = Array.make cap 0 in
  Array.blit h.seqs 0 seqs 0 h.len;
  let vals = Array.make cap 0 in
  Array.blit h.vals 0 vals 0 h.len;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

let push h key value =
  let cap = Float.Array.length h.keys in
  if h.len = cap then grow h;
  Float.Array.set h.keys h.len key;
  h.seqs.(h.len) <- h.next_seq;
  h.vals.(h.len) <- value;
  h.next_seq <- h.next_seq + 1;
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let min_key h =
  if h.len = 0 then invalid_arg "Heap.min_key: empty heap";
  Float.Array.get h.keys 0

let pop_payload h =
  if h.len = 0 then invalid_arg "Heap.pop_payload: empty heap";
  let v = h.vals.(0) in
  h.len <- h.len - 1;
  if h.len > 0 then begin
    Float.Array.set h.keys 0 (Float.Array.get h.keys h.len);
    h.seqs.(0) <- h.seqs.(h.len);
    h.vals.(0) <- h.vals.(h.len);
    sift_down h 0
  end;
  v

let peek h =
  if h.len = 0 then None else Some (Float.Array.get h.keys 0, h.vals.(0))

let pop h =
  if h.len = 0 then None
  else begin
    let key = Float.Array.get h.keys 0 in
    Some (key, pop_payload h)
  end

let clear h =
  h.len <- 0;
  h.next_seq <- 0

type t = {
  size_bytes : int;
  line_bytes : int;
  associativity : int;
  sets : int;
  (* tags.(set * associativity + way): line tag, -1 when invalid.
     stamps mirror tags with the last-use counter for LRU. *)
  tags : int array;
  stamps : int array;
  mutable clock : int;
  mutable accesses : int;
  mutable hits : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~size_bytes ~line_bytes ~associativity =
  if size_bytes <= 0 || line_bytes <= 0 then
    invalid_arg "Cache.create: non-positive size";
  if associativity < 1 then invalid_arg "Cache.create: associativity < 1";
  if not (is_power_of_two line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  let lines = size_bytes / line_bytes in
  if lines = 0 || lines mod associativity <> 0 then
    invalid_arg "Cache.create: size/line/associativity mismatch";
  let sets = lines / associativity in
  if not (is_power_of_two sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  {
    size_bytes;
    line_bytes;
    associativity;
    sets;
    tags = Array.make lines (-1);
    stamps = Array.make lines 0;
    clock = 0;
    accesses = 0;
    hits = 0;
  }

let access t address =
  if address < 0 then invalid_arg "Cache.access: negative address";
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let line = address / t.line_bytes in
  let set = line mod t.sets in
  let tag = line / t.sets in
  let base = set * t.associativity in
  (* Look for the tag; remember the LRU way for a potential fill. *)
  let hit_way = ref (-1) in
  let lru_way = ref base in
  for way = base to base + t.associativity - 1 do
    if t.tags.(way) = tag then hit_way := way;
    if t.stamps.(way) < t.stamps.(!lru_way) then lru_way := way
  done;
  if !hit_way >= 0 then begin
    t.hits <- t.hits + 1;
    t.stamps.(!hit_way) <- t.clock;
    true
  end
  else begin
    t.tags.(!lru_way) <- tag;
    t.stamps.(!lru_way) <- t.clock;
    false
  end

let hits t = t.hits
let misses t = t.accesses - t.hits

let hit_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.hits /. float_of_int t.accesses

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  t.accesses <- 0;
  t.hits <- 0

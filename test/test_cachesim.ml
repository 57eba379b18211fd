open Harmony_cachesim

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let small () = Cache.create ~size_bytes:256 ~line_bytes:64 ~associativity:2
(* 4 lines, 2 sets of 2 ways. *)

let test_create_invalid () =
  Alcotest.check_raises "line not power of two"
    (Invalid_argument "Cache.create: line size must be a power of two") (fun () ->
      ignore (Cache.create ~size_bytes:256 ~line_bytes:48 ~associativity:1));
  Alcotest.check_raises "assoc" (Invalid_argument "Cache.create: associativity < 1")
    (fun () -> ignore (Cache.create ~size_bytes:256 ~line_bytes:64 ~associativity:0))

let test_cold_miss_then_hit () =
  let c = small () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit" true (Cache.access c 0);
  Alcotest.(check bool) "same line hit" true (Cache.access c 63);
  Alcotest.(check bool) "next line misses" false (Cache.access c 64);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_associativity_holds_two_ways () =
  let c = small () in
  (* Addresses 0 and 128 map to set 0 (2 sets, 64-byte lines); both
     fit in the 2 ways. *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 128);
  Alcotest.(check bool) "way 1 retained" true (Cache.access c 0);
  Alcotest.(check bool) "way 2 retained" true (Cache.access c 128)

let test_lru_eviction () =
  let c = small () in
  (* Three conflicting lines in a 2-way set: the least recently used
     one (line 0, after line 128 was re-touched) is evicted. *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 128);
  ignore (Cache.access c 128);
  ignore (Cache.access c 256);
  (* line 0 evicted *)
  Alcotest.(check bool) "recently used stays" true (Cache.access c 128);
  Alcotest.(check bool) "newcomer stays" true (Cache.access c 256);
  Alcotest.(check bool) "LRU victim gone" false (Cache.access c 0)

let test_direct_mapped_conflicts () =
  let dm = Cache.create ~size_bytes:128 ~line_bytes:64 ~associativity:1 in
  (* Two lines, direct-mapped: 0 and 128 collide in set 0. *)
  ignore (Cache.access dm 0);
  ignore (Cache.access dm 128);
  Alcotest.(check bool) "conflict evicts" false (Cache.access dm 0);
  (* The same pattern in a 2-way cache of the same size has no
     conflict. *)
  let sa = Cache.create ~size_bytes:128 ~line_bytes:64 ~associativity:2 in
  ignore (Cache.access sa 0);
  ignore (Cache.access sa 128);
  Alcotest.(check bool) "associativity absorbs" true (Cache.access sa 0)

let test_hit_rate_and_reset () =
  let c = small () in
  Alcotest.(check (float 1e-12)) "empty" 0.0 (Cache.hit_rate c);
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  Alcotest.(check (float 1e-12)) "half" 0.5 (Cache.hit_rate c);
  Cache.reset c;
  Alcotest.(check int) "reset counters" 0 (Cache.hits c + Cache.misses c);
  Alcotest.(check bool) "reset contents" false (Cache.access c 0)

(* Property: hits + misses count every access, and a working set that fits in
   one set's ways never misses after the cold pass. *)
let prop_counters_consistent =
  QCheck2.Test.make ~name:"cache counters consistent" ~count:100
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 4096))
    (fun addresses ->
      let c = Cache.create ~size_bytes:512 ~line_bytes:64 ~associativity:2 in
      List.iter (fun a -> ignore (Cache.access c a)) addresses;
      Cache.hits c + Cache.misses c = List.length addresses)

(* ------------------------------------------------------------------ *)
(* Matmul                                                              *)

let test_run_access_count () =
  (* The i-k-j blocked nest touches A once per (i,p) in each j-block,
     and B and C once per inner iteration: with full-size blocks,
     m*k + 2*m*n*k element accesses. *)
  let r = Matmul.run ~m:8 ~n:8 ~k:8 ~mb:8 ~nb:8 ~kb:8 () in
  Alcotest.(check int) "flops" (2 * 8 * 8 * 8) r.Matmul.flops;
  Alcotest.(check bool) "cycles at least one per access" true
    (r.Matmul.cycles >= float_of_int ((8 * 8) + (2 * 8 * 8 * 8)))

let test_tiny_matrices_cache_resident () =
  (* An 8x8 triple fits entirely in L1: hit rate near 1 after cold
     misses. *)
  let r = Matmul.run ~m:8 ~n:8 ~k:8 ~mb:8 ~nb:8 ~kb:8 () in
  Alcotest.(check bool) "nearly all hits" true (r.Matmul.l1_hit_rate > 0.95)

let test_blocking_beats_unblocked () =
  (* 64x64 doubles = 32 KB per matrix: far beyond the 8 KB L1.
     Sensible blocks should beat full-size (unblocked) loops. *)
  let unblocked = Matmul.run ~m:64 ~n:64 ~k:64 ~mb:64 ~nb:64 ~kb:64 () in
  let blocked = Matmul.run ~m:64 ~n:64 ~k:64 ~mb:16 ~nb:16 ~kb:16 () in
  Alcotest.(check bool) "blocking reduces cycles" true
    (blocked.Matmul.cycles < unblocked.Matmul.cycles);
  Alcotest.(check bool) "blocking improves L1 hit rate" true
    (blocked.Matmul.l1_hit_rate > unblocked.Matmul.l1_hit_rate)

let test_run_clamps_blocks () =
  let a = Matmul.run ~m:8 ~n:8 ~k:8 ~mb:999 ~nb:999 ~kb:999 () in
  let b = Matmul.run ~m:8 ~n:8 ~k:8 ~mb:8 ~nb:8 ~kb:8 () in
  Alcotest.(check (float 1e-9)) "clamped to dims" b.Matmul.cycles a.Matmul.cycles

let test_run_invalid () =
  Alcotest.check_raises "dims" (Invalid_argument "Matmul.run: non-positive dims")
    (fun () -> ignore (Matmul.run ~m:0 ~n:1 ~k:1 ~mb:1 ~nb:1 ~kb:1 ()))

let test_run_deterministic () =
  let a = Matmul.run ~m:24 ~n:24 ~k:24 ~mb:8 ~nb:12 ~kb:4 () in
  let b = Matmul.run ~m:24 ~n:24 ~k:24 ~mb:8 ~nb:12 ~kb:4 () in
  Alcotest.(check (float 1e-9)) "same cycles" a.Matmul.cycles b.Matmul.cycles

let test_objective_tunes () =
  (* End to end: Active Harmony finds block sizes at least as good as
     the unblocked baseline, typically much better. *)
  let obj = Matmul.objective ~m:48 ~n:48 ~k:48 () in
  let unblocked = (Matmul.run ~m:48 ~n:48 ~k:48 ~mb:48 ~nb:48 ~kb:48 ()).Matmul.cycles in
  let outcome =
    Harmony.Tuner.tune
      ~options:{ Harmony.Tuner.default_options with Harmony.Tuner.max_evaluations = 60 }
      obj
  in
  Alcotest.(check bool) "tuned beats unblocked" true
    (outcome.Harmony.Tuner.best_performance < unblocked)

let suite =
  [
    Alcotest.test_case "create invalid" `Quick test_create_invalid;
    Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
    Alcotest.test_case "associativity" `Quick test_associativity_holds_two_ways;
    Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
    Alcotest.test_case "direct mapped conflicts" `Quick test_direct_mapped_conflicts;
    Alcotest.test_case "hit rate and reset" `Quick test_hit_rate_and_reset;
    Alcotest.test_case "matmul access count" `Quick test_run_access_count;
    Alcotest.test_case "matmul cache resident" `Quick test_tiny_matrices_cache_resident;
    Alcotest.test_case "blocking beats unblocked" `Slow test_blocking_beats_unblocked;
    Alcotest.test_case "matmul clamps blocks" `Quick test_run_clamps_blocks;
    Alcotest.test_case "matmul invalid" `Quick test_run_invalid;
    Alcotest.test_case "matmul deterministic" `Quick test_run_deterministic;
    Alcotest.test_case "objective tunes" `Slow test_objective_tunes;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_counters_consistent ]

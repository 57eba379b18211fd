module Tpcw = Harmony_webservice.Tpcw
module Rng = Harmony_numerics.Rng

(* A mix's normalized weights in {!Tpcw.all} order: the frequency
   vector the data analyzer characterizes a workload by. *)
let frequency_vector mix =
  Array.map
    (fun i ->
      Array.fold_left
        (fun acc (j, w) -> if j = i then acc +. w else acc)
        0.0 mix.Tpcw.weights)
    Tpcw.all

(* Total weight of the interactions the proxy can cache. *)
let cacheable_fraction mix =
  Array.fold_left
    (fun acc (i, w) -> if (Tpcw.demand i).Tpcw.cacheable then acc +. w else acc)
    0.0 mix.Tpcw.weights

let test_fourteen_interactions () =
  Alcotest.(check int) "count" 14 (Array.length Tpcw.all)

let test_names_distinct () =
  let names = Array.to_list (Array.map Tpcw.name Tpcw.all) in
  Alcotest.(check int) "distinct" 14 (List.length (List.sort_uniq compare names))

let test_categories () =
  Alcotest.(check bool) "home browses" true (Tpcw.category Tpcw.Home = Tpcw.Browse);
  Alcotest.(check bool) "buy orders" true (Tpcw.category Tpcw.Buy_confirm = Tpcw.Order);
  let browse =
    Array.to_list Tpcw.all |> List.filter (fun i -> Tpcw.category i = Tpcw.Browse)
  in
  Alcotest.(check int) "six browse interactions" 6 (List.length browse)

let mixes = [ Tpcw.browsing; Tpcw.shopping; Tpcw.ordering ]

let test_mix_weights_normalized () =
  List.iter
    (fun mix ->
      let total = Array.fold_left (fun acc w -> acc +. w) 0.0 (frequency_vector mix) in
      Alcotest.(check (float 1e-9)) (mix.Tpcw.label ^ " sums to 1") 1.0 total)
    mixes

let test_browse_fractions_ordering () =
  (* The defining property of the three mixes: browsing ~95%,
     shopping ~80%, ordering ~50% browse-category weight. *)
  let b = Tpcw.browse_fraction Tpcw.browsing in
  let s = Tpcw.browse_fraction Tpcw.shopping in
  let o = Tpcw.browse_fraction Tpcw.ordering in
  Alcotest.(check bool) "browsing ~0.95" true (Float.abs (b -. 0.95) < 0.01);
  Alcotest.(check bool) "shopping ~0.80" true (Float.abs (s -. 0.80) < 0.01);
  Alcotest.(check bool) "ordering ~0.50" true (Float.abs (o -. 0.50) < 0.01)

let test_mix_of_label () =
  Alcotest.(check string) "roundtrip" "shopping" (Tpcw.mix_of_label "shopping").Tpcw.label;
  Alcotest.check_raises "unknown" (Invalid_argument "Tpcw.mix_of_label: unknown mix nope")
    (fun () -> ignore (Tpcw.mix_of_label "nope"))

let test_sample_follows_weights () =
  let rng = Rng.create 8 in
  let n = 50_000 in
  let home = ref 0 in
  for _ = 1 to n do
    if Tpcw.sample rng Tpcw.shopping = Tpcw.Home then incr home
  done;
  let freq = float_of_int !home /. float_of_int n in
  Alcotest.(check bool) "home ~16%" true (Float.abs (freq -. 0.16) < 0.01)

let test_observed_frequencies () =
  let rng = Rng.create 9 in
  let obs = Tpcw.observed_frequencies rng Tpcw.ordering ~samples:50_000 in
  let expected = frequency_vector Tpcw.ordering in
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) "close to mix" true (Float.abs (obs.(i) -. e) < 0.01))
    expected;
  Alcotest.(check (float 1e-9))
    "sums to 1" 1.0
    (Array.fold_left ( +. ) 0.0 obs)

let test_observed_invalid () =
  Alcotest.check_raises "no samples"
    (Invalid_argument "Tpcw.observed_frequencies: samples <= 0") (fun () ->
      ignore (Tpcw.observed_frequencies (Rng.create 1) Tpcw.shopping ~samples:0))

let test_sample_next_stationary () =
  (* The category-persistent chain must keep the mix's stationary
     distribution exactly (by construction). *)
  let rng = Rng.create 21 in
  let n = 60_000 in
  let counts = Hashtbl.create 16 in
  let prev = ref None in
  for _ = 1 to n do
    let i = Tpcw.sample_next rng Tpcw.shopping ~persistence:0.7 ~previous:!prev in
    prev := Some i;
    Hashtbl.replace counts i (1 + Option.value ~default:0 (Hashtbl.find_opt counts i))
  done;
  Array.iteri
    (fun idx i ->
      let freq =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts i))
        /. float_of_int n
      in
      let expected = (frequency_vector Tpcw.shopping).(idx) in
      Alcotest.(check bool)
        (Tpcw.name i ^ " stationary")
        true
        (Float.abs (freq -. expected) < 0.015))
    Tpcw.all

let test_sample_next_persists_categories () =
  (* Consecutive interactions share a category far more often under
     persistence than under independent draws. *)
  let same_category_rate persistence seed =
    let rng = Rng.create seed in
    let prev = ref None in
    let same = ref 0 and total = ref 0 in
    for _ = 1 to 20_000 do
      let i = Tpcw.sample_next rng Tpcw.ordering ~persistence ~previous:!prev in
      (match !prev with
      | Some p when Tpcw.category p = Tpcw.category i -> incr same
      | Some _ -> ()
      | None -> decr total);
      incr total;
      prev := Some i
    done;
    float_of_int !same /. float_of_int !total
  in
  Alcotest.(check bool) "persistence raises category runs" true
    (same_category_rate 0.8 3 > same_category_rate 0.0 4 +. 0.2)

let test_sample_next_invalid () =
  Alcotest.check_raises "persistence range"
    (Invalid_argument "Tpcw.sample_next: persistence must be in [0, 1)") (fun () ->
      ignore
        (Tpcw.sample_next (Rng.create 1) Tpcw.shopping ~persistence:1.0 ~previous:None))

let test_demands_positive () =
  Array.iter
    (fun i ->
      let d = Tpcw.demand i in
      Alcotest.(check bool) "app time positive" true (d.Tpcw.app_ms > 0.0);
      Alcotest.(check bool) "response positive" true (d.Tpcw.response_kb > 0.0);
      Alcotest.(check bool) "db nonneg" true (d.Tpcw.db_ms >= 0.0))
    Tpcw.all

let test_writes_are_order_side () =
  Array.iter
    (fun i ->
      let d = Tpcw.demand i in
      if d.Tpcw.db_write_ms > 0.0 then
        Alcotest.(check bool) "writers are Order category" true
          (Tpcw.category i = Tpcw.Order))
    Tpcw.all

let test_fraction_monotonicity () =
  (* Ordering mixes write more and cache less. *)
  Alcotest.(check bool) "write fraction grows" true
    (Tpcw.write_fraction Tpcw.ordering > Tpcw.write_fraction Tpcw.shopping);
  Alcotest.(check bool) "cacheable fraction falls" true
    (cacheable_fraction Tpcw.ordering < cacheable_fraction Tpcw.shopping)

let suite =
  [
    Alcotest.test_case "fourteen interactions" `Quick test_fourteen_interactions;
    Alcotest.test_case "names distinct" `Quick test_names_distinct;
    Alcotest.test_case "categories" `Quick test_categories;
    Alcotest.test_case "mix weights normalized" `Quick test_mix_weights_normalized;
    Alcotest.test_case "browse fractions" `Quick test_browse_fractions_ordering;
    Alcotest.test_case "mix of label" `Quick test_mix_of_label;
    Alcotest.test_case "sample follows weights" `Slow test_sample_follows_weights;
    Alcotest.test_case "observed frequencies" `Slow test_observed_frequencies;
    Alcotest.test_case "observed invalid" `Quick test_observed_invalid;
    Alcotest.test_case "sample_next stationary" `Slow test_sample_next_stationary;
    Alcotest.test_case "sample_next persists" `Slow test_sample_next_persists_categories;
    Alcotest.test_case "sample_next invalid" `Quick test_sample_next_invalid;
    Alcotest.test_case "demands positive" `Quick test_demands_positive;
    Alcotest.test_case "writers are order-side" `Quick test_writes_are_order_side;
    Alcotest.test_case "fraction monotonicity" `Quick test_fraction_monotonicity;
  ]

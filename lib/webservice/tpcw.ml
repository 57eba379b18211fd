module Rng = Harmony_numerics.Rng

type interaction =
  | Home
  | New_products
  | Best_sellers
  | Product_detail
  | Search_request
  | Search_results
  | Shopping_cart
  | Customer_registration
  | Buy_request
  | Buy_confirm
  | Order_inquiry
  | Order_display
  | Admin_request
  | Admin_confirm

type category = Browse | Order

let all =
  [|
    Home; New_products; Best_sellers; Product_detail; Search_request;
    Search_results; Shopping_cart; Customer_registration; Buy_request;
    Buy_confirm; Order_inquiry; Order_display; Admin_request; Admin_confirm;
  |]

let name = function
  | Home -> "Home"
  | New_products -> "NewProducts"
  | Best_sellers -> "BestSellers"
  | Product_detail -> "ProductDetail"
  | Search_request -> "SearchRequest"
  | Search_results -> "SearchResults"
  | Shopping_cart -> "ShoppingCart"
  | Customer_registration -> "CustomerRegistration"
  | Buy_request -> "BuyRequest"
  | Buy_confirm -> "BuyConfirm"
  | Order_inquiry -> "OrderInquiry"
  | Order_display -> "OrderDisplay"
  | Admin_request -> "AdminRequest"
  | Admin_confirm -> "AdminConfirm"

let category = function
  | Home | New_products | Best_sellers | Product_detail | Search_request
  | Search_results ->
      Browse
  | Shopping_cart | Customer_registration | Buy_request | Buy_confirm
  | Order_inquiry | Order_display | Admin_request | Admin_confirm ->
      Order

type mix = { label : string; weights : (interaction * float) array }

let normalize_weights weights =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights in
  if total <= 0.0 then invalid_arg "Tpcw: non-positive mix total";
  Array.map (fun (i, w) -> (i, w /. total)) weights

let make_mix label weights = { label; weights = normalize_weights weights }

(* Interaction percentages follow the TPC-W specification's three
   standard mixes (WIPSb / WIPS / WIPSo). *)
let browsing =
  make_mix "browsing"
    [|
      (Home, 29.00); (New_products, 11.00); (Best_sellers, 11.00);
      (Product_detail, 21.00); (Search_request, 12.00); (Search_results, 11.00);
      (Shopping_cart, 2.00); (Customer_registration, 0.82); (Buy_request, 0.75);
      (Buy_confirm, 0.69); (Order_inquiry, 0.30); (Order_display, 0.25);
      (Admin_request, 0.10); (Admin_confirm, 0.09);
    |]

let shopping =
  make_mix "shopping"
    [|
      (Home, 16.00); (New_products, 5.00); (Best_sellers, 5.00);
      (Product_detail, 17.00); (Search_request, 20.00); (Search_results, 17.00);
      (Shopping_cart, 11.60); (Customer_registration, 3.00); (Buy_request, 2.60);
      (Buy_confirm, 1.20); (Order_inquiry, 0.75); (Order_display, 0.66);
      (Admin_request, 0.10); (Admin_confirm, 0.09);
    |]

let ordering =
  make_mix "ordering"
    [|
      (Home, 9.12); (New_products, 0.46); (Best_sellers, 0.46);
      (Product_detail, 12.35); (Search_request, 14.53); (Search_results, 13.08);
      (Shopping_cart, 13.53); (Customer_registration, 12.86); (Buy_request, 12.73);
      (Buy_confirm, 10.18); (Order_inquiry, 0.25); (Order_display, 0.22);
      (Admin_request, 0.12); (Admin_confirm, 0.11);
    |]

let mix_of_label = function
  | "browsing" -> browsing
  | "shopping" -> shopping
  | "ordering" -> ordering
  | other -> invalid_arg ("Tpcw.mix_of_label: unknown mix " ^ other)

let browse_fraction mix =
  Array.fold_left
    (fun acc (i, w) -> if category i = Browse then acc +. w else acc)
    0.0 mix.weights

let sample rng mix =
  let u = Rng.float rng 1.0 in
  let acc = ref 0.0 in
  let chosen = ref None in
  Array.iter
    (fun (i, w) ->
      acc := !acc +. w;
      if !chosen = None && u < !acc then chosen := Some i)
    mix.weights;
  match !chosen with Some i -> i | None -> fst mix.weights.(Array.length mix.weights - 1)

(* Draw within one category, proportional to the mix weights there. *)
let sample_in_category rng mix cat =
  let total =
    Array.fold_left
      (fun acc (i, w) -> if category i = cat then acc +. w else acc)
      0.0 mix.weights
  in
  if total <= 0.0 then sample rng mix
  else begin
    let u = Rng.float rng total in
    let acc = ref 0.0 in
    let chosen = ref None in
    Array.iter
      (fun (i, w) ->
        if category i = cat then begin
          acc := !acc +. w;
          if !chosen = None && u < !acc then chosen := Some i
        end)
      mix.weights;
    match !chosen with Some i -> i | None -> sample rng mix
  end

let sample_next rng mix ~persistence ~previous =
  if persistence < 0.0 || persistence >= 1.0 then
    invalid_arg "Tpcw.sample_next: persistence must be in [0, 1)";
  match previous with
  | Some prev when Rng.float rng 1.0 < persistence ->
      sample_in_category rng mix (category prev)
  | Some _ | None -> sample rng mix

let observed_frequencies rng mix ~samples =
  if samples <= 0 then invalid_arg "Tpcw.observed_frequencies: samples <= 0";
  let counts = Array.make (Array.length all) 0 in
  let index_of i =
    let rec find k = if all.(k) = i then k else find (k + 1) in
    find 0
  in
  for _ = 1 to samples do
    let i = sample rng mix in
    let k = index_of i in
    counts.(k) <- counts.(k) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int samples) counts

type demand = {
  app_ms : float;
  db_ms : float;
  db_write_ms : float;
  response_kb : float;
  db_result_kb : float;
  cacheable : bool;
}

(* Service demands in milliseconds on 2004-class hardware (dual Athlon
   1.67 GHz, MySQL 3.23 without a query cache): dynamic pages cost
   50-150 ms of application CPU and database queries 30-320 ms, with
   Best Sellers and Buy Confirm the notorious heavyweights. *)
let demand = function
  | Home ->
      { app_ms = 70.0; db_ms = 30.0; db_write_ms = 0.0; response_kb = 24.0;
        db_result_kb = 2.0; cacheable = true }
  | New_products ->
      { app_ms = 100.0; db_ms = 160.0; db_write_ms = 0.0; response_kb = 32.0;
        db_result_kb = 12.0; cacheable = true }
  | Best_sellers ->
      { app_ms = 100.0; db_ms = 320.0; db_write_ms = 0.0; response_kb = 32.0;
        db_result_kb = 14.0; cacheable = true }
  | Product_detail ->
      { app_ms = 80.0; db_ms = 60.0; db_write_ms = 0.0; response_kb = 40.0;
        db_result_kb = 4.0; cacheable = true }
  | Search_request ->
      { app_ms = 50.0; db_ms = 0.0; db_write_ms = 0.0; response_kb = 16.0;
        db_result_kb = 0.0; cacheable = true }
  | Search_results ->
      { app_ms = 130.0; db_ms = 220.0; db_write_ms = 0.0; response_kb = 36.0;
        db_result_kb = 16.0; cacheable = false }
  | Shopping_cart ->
      { app_ms = 110.0; db_ms = 100.0; db_write_ms = 40.0; response_kb = 28.0;
        db_result_kb = 6.0; cacheable = false }
  | Customer_registration ->
      { app_ms = 90.0; db_ms = 60.0; db_write_ms = 0.0; response_kb = 20.0;
        db_result_kb = 2.0; cacheable = false }
  | Buy_request ->
      { app_ms = 130.0; db_ms = 130.0; db_write_ms = 70.0; response_kb = 28.0;
        db_result_kb = 8.0; cacheable = false }
  | Buy_confirm ->
      { app_ms = 150.0; db_ms = 160.0; db_write_ms = 160.0; response_kb = 24.0;
        db_result_kb = 10.0; cacheable = false }
  | Order_inquiry ->
      { app_ms = 50.0; db_ms = 30.0; db_write_ms = 0.0; response_kb = 16.0;
        db_result_kb = 2.0; cacheable = false }
  | Order_display ->
      { app_ms = 90.0; db_ms = 130.0; db_write_ms = 0.0; response_kb = 28.0;
        db_result_kb = 10.0; cacheable = false }
  | Admin_request ->
      { app_ms = 70.0; db_ms = 60.0; db_write_ms = 0.0; response_kb = 20.0;
        db_result_kb = 4.0; cacheable = false }
  | Admin_confirm ->
      { app_ms = 110.0; db_ms = 130.0; db_write_ms = 110.0; response_kb = 20.0;
        db_result_kb = 6.0; cacheable = false }

let write_fraction mix =
  Array.fold_left
    (fun acc (i, w) -> if (demand i).db_write_ms > 0.0 then acc +. w else acc)
    0.0 mix.weights

open Harmony_webservice
module Space = Harmony_param.Space
module Rng = Harmony_numerics.Rng

(* ------------------------------------------------------------------ *)
(* Wsconfig                                                            *)

let test_space_shape () =
  Alcotest.(check int) "ten parameters" 10 (Space.dims Wsconfig.space);
  Alcotest.(check int) "names" 10 (Array.length Wsconfig.param_names);
  Array.iteri
    (fun i name ->
      Alcotest.(check string) "order matches" name
        (Space.param Wsconfig.space i).Harmony_param.Param.name)
    Wsconfig.param_names

let test_config_roundtrip () =
  let c = Wsconfig.to_config Wsconfig.default in
  Alcotest.(check bool) "valid" true (Space.is_valid Wsconfig.space c);
  let back = Wsconfig.of_config c in
  Alcotest.(check bool) "roundtrip" true (back = Wsconfig.default)

let test_of_config_snaps () =
  let c = Wsconfig.to_config Wsconfig.default in
  c.(1) <- c.(1) +. 0.4;
  let cfg = Wsconfig.of_config c in
  Alcotest.(check int) "snapped to grid" Wsconfig.default.Wsconfig.ajp_max_processors
    cfg.Wsconfig.ajp_max_processors

(* ------------------------------------------------------------------ *)
(* Effects                                                             *)

let fx mix = Effects.derive Wsconfig.default ~mix

let test_cache_hit_only_cacheable () =
  let fx = fx Tpcw.shopping in
  Alcotest.(check (float 1e-12)) "buy confirm never cached" 0.0
    (Effects.cache_hit_probability fx Tpcw.Buy_confirm);
  Alcotest.(check bool) "home cacheable" true
    (Effects.cache_hit_probability fx Tpcw.Home > 0.0)

let test_cache_grows_with_memory () =
  let small = Effects.derive { Wsconfig.default with Wsconfig.proxy_cache_mem_mb = 8 } ~mix:Tpcw.shopping in
  let large = Effects.derive { Wsconfig.default with Wsconfig.proxy_cache_mem_mb = 400 } ~mix:Tpcw.shopping in
  Alcotest.(check bool) "more memory, more hits" true
    (Effects.mean_cache_hit large > Effects.mean_cache_hit small)

let test_min_object_narrows_window () =
  let narrow = Effects.derive { Wsconfig.default with Wsconfig.proxy_min_object_kb = 60 } ~mix:Tpcw.shopping in
  let wide = Effects.derive Wsconfig.default ~mix:Tpcw.shopping in
  Alcotest.(check bool) "raising min object loses hits" true
    (Effects.mean_cache_hit narrow < Effects.mean_cache_hit wide)

let test_small_buffer_costs_app_time () =
  let tiny = Effects.derive { Wsconfig.default with Wsconfig.http_buffer_kb = 1 } ~mix:Tpcw.shopping in
  let big = Effects.derive { Wsconfig.default with Wsconfig.http_buffer_kb = 64 } ~mix:Tpcw.shopping in
  Alcotest.(check bool) "packetization overhead" true
    (Effects.app_service_ms tiny Tpcw.Home > Effects.app_service_ms big Tpcw.Home)

let test_net_buffer_costs_db_time () =
  let tiny = Effects.derive { Wsconfig.default with Wsconfig.mysql_net_buffer_kb = 1 } ~mix:Tpcw.ordering in
  let big = Effects.derive { Wsconfig.default with Wsconfig.mysql_net_buffer_kb = 64 } ~mix:Tpcw.ordering in
  Alcotest.(check bool) "result transfer overhead" true
    (Effects.db_service_ms tiny Tpcw.Best_sellers > Effects.db_service_ms big Tpcw.Best_sellers)

let test_delayed_queue_discounts_writes () =
  let small = Effects.derive { Wsconfig.default with Wsconfig.mysql_delayed_queue = 100 } ~mix:Tpcw.ordering in
  let large = Effects.derive { Wsconfig.default with Wsconfig.mysql_delayed_queue = 8000 } ~mix:Tpcw.ordering in
  Alcotest.(check bool) "longer queue, cheaper writes" true
    (Effects.db_service_ms large Tpcw.Buy_confirm < Effects.db_service_ms small Tpcw.Buy_confirm)

let test_search_request_skips_db () =
  let fx = fx Tpcw.shopping in
  Alcotest.(check (float 1e-12)) "no db work" 0.0
    (Effects.db_service_ms fx Tpcw.Search_request)

let test_thrashing_inflates_app () =
  let sane = Effects.derive Wsconfig.default ~mix:Tpcw.shopping in
  let hog =
    Effects.derive
      { Wsconfig.default with Wsconfig.ajp_max_processors = 128; http_buffer_kb = 128 }
      ~mix:Tpcw.shopping
  in
  Alcotest.(check bool) "over-provisioning thrashes" true
    (Effects.app_service_ms hog Tpcw.Home > 2.0 *. Effects.app_service_ms sane Tpcw.Home)

let test_pool_ceilings () =
  let fx =
    Effects.derive
      { Wsconfig.default with Wsconfig.ajp_max_processors = 128; mysql_max_connections = 128 }
      ~mix:Tpcw.shopping
  in
  Alcotest.(check bool) "app CPU ceiling" true (Effects.app_servers fx <= 16);
  Alcotest.(check bool) "db parallelism ceiling" true (Effects.db_servers fx <= 16);
  let small = Effects.derive { Wsconfig.default with Wsconfig.ajp_max_processors = 4 } ~mix:Tpcw.shopping in
  Alcotest.(check int) "few processes bind" 4 (Effects.app_servers small)

let test_queue_limits_follow_accept_counts () =
  let fx =
    Effects.derive
      { Wsconfig.default with Wsconfig.ajp_accept_count = 24; http_accept_count = 48 }
      ~mix:Tpcw.shopping
  in
  Alcotest.(check int) "app queue" 24 (Effects.app_queue_limit fx);
  Alcotest.(check int) "proxy queue" 48 (Effects.proxy_queue_limit fx)

let test_mean_demands_positive () =
  List.iter
    (fun mix ->
      let fx = Effects.derive Wsconfig.default ~mix in
      Alcotest.(check bool) "proxy" true (Effects.mean_proxy_ms fx > 0.0);
      Alcotest.(check bool) "app" true (Effects.mean_app_ms fx > 0.0);
      Alcotest.(check bool) "db" true (Effects.mean_db_ms fx > 0.0);
      let h = Effects.mean_cache_hit fx in
      Alcotest.(check bool) "hit in [0,1)" true (h >= 0.0 && h < 1.0))
    [ Tpcw.browsing; Tpcw.shopping; Tpcw.ordering ]

(* ------------------------------------------------------------------ *)
(* Model                                                               *)

let test_model_wips_plausible () =
  List.iter
    (fun mix ->
      let r = Model.evaluate Wsconfig.default ~mix in
      Alcotest.(check bool)
        (mix.Tpcw.label ^ " WIPS plausible")
        true
        (r.Model.wips > 20.0 && r.Model.wips < 130.0))
    [ Tpcw.browsing; Tpcw.shopping; Tpcw.ordering ]

let test_model_ordering_slowest () =
  let w mix = Model.wips Wsconfig.default ~mix in
  Alcotest.(check bool) "browsing fastest" true (w Tpcw.browsing > w Tpcw.ordering)

let test_model_deterministic () =
  Alcotest.(check (float 1e-12))
    "repeatable"
    (Model.wips Wsconfig.default ~mix:Tpcw.shopping)
    (Model.wips Wsconfig.default ~mix:Tpcw.shopping)

let test_model_starved_pool_hurts () =
  let starved = { Wsconfig.default with Wsconfig.ajp_max_processors = 2 } in
  Alcotest.(check bool) "two processes crawl" true
    (Model.wips starved ~mix:Tpcw.shopping
    < 0.5 *. Model.wips Wsconfig.default ~mix:Tpcw.shopping)

let test_model_thrashing_hurts () =
  let hog =
    { Wsconfig.default with
      Wsconfig.ajp_max_processors = 128; http_buffer_kb = 128;
      mysql_max_connections = 128; mysql_net_buffer_kb = 128 }
  in
  Alcotest.(check bool) "extremes are poor" true
    (Model.wips hog ~mix:Tpcw.shopping < Model.wips Wsconfig.default ~mix:Tpcw.shopping)

let test_model_more_clients_saturates () =
  let few = Model.wips ~options:{ Model.clients = 20; think_ms = 1000.0 } Wsconfig.default ~mix:Tpcw.shopping in
  let many = Model.wips ~options:{ Model.clients = 120; think_ms = 1000.0 } Wsconfig.default ~mix:Tpcw.shopping in
  Alcotest.(check bool) "throughput grows with load" true (many > few);
  Alcotest.(check bool) "bounded by think-time ceiling" true (few <= 20.0 +. 1e-6)

let test_model_utilization_bounds () =
  let r = Model.evaluate Wsconfig.default ~mix:Tpcw.ordering in
  let a, b, c = r.Model.utilization in
  List.iter
    (fun u -> Alcotest.(check bool) "utilization in [0,1]" true (u >= 0.0 && u <= 1.0))
    [ a; b; c ];
  Alcotest.(check bool) "bottleneck named" true
    (List.mem r.Model.bottleneck [ "proxy"; "app"; "db" ])

let test_model_invalid_clients () =
  Alcotest.check_raises "clients" (Invalid_argument "Model.evaluate: clients < 1")
    (fun () ->
      ignore
        (Model.evaluate ~options:{ Model.clients = 0; think_ms = 1.0 } Wsconfig.default
           ~mix:Tpcw.shopping))

let test_model_objective () =
  let obj = Model.objective ~mix:Tpcw.shopping () in
  Alcotest.(check (float 1e-9))
    "objective evaluates the model"
    (Model.wips Wsconfig.default ~mix:Tpcw.shopping)
    (obj.Harmony_objective.Objective.eval (Wsconfig.to_config Wsconfig.default))

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)

let quick_options =
  { Simulation.default_options with
    Simulation.warmup_ms = 5_000.0; horizon_ms = 30_000.0 }

let test_sim_deterministic () =
  let a = Simulation.run ~options:quick_options Wsconfig.default ~mix:Tpcw.shopping in
  let b = Simulation.run ~options:quick_options Wsconfig.default ~mix:Tpcw.shopping in
  Alcotest.(check (float 1e-9)) "same seed same WIPS" a.Simulation.wips b.Simulation.wips

let test_sim_seed_changes_result () =
  let a = Simulation.run ~options:quick_options Wsconfig.default ~mix:Tpcw.shopping in
  let b =
    Simulation.run ~options:{ quick_options with Simulation.seed = 2 } Wsconfig.default
      ~mix:Tpcw.shopping
  in
  Alcotest.(check bool) "different seed differs" true
    (a.Simulation.wips <> b.Simulation.wips)

let test_sim_agrees_with_model () =
  List.iter
    (fun mix ->
      let m = Model.wips Wsconfig.default ~mix in
      let s = (Simulation.run ~options:quick_options Wsconfig.default ~mix).Simulation.wips in
      Alcotest.(check bool)
        (Printf.sprintf "%s: sim %.1f within 20%% of model %.1f" mix.Tpcw.label s m)
        true
        (Float.abs (s -. m) /. m < 0.20))
    [ Tpcw.browsing; Tpcw.shopping; Tpcw.ordering ]

let test_sim_category_split () =
  let r = Simulation.run ~options:quick_options Wsconfig.default ~mix:Tpcw.ordering in
  Alcotest.(check (float 1e-9))
    "wipsb + wipso = wips" r.Simulation.wips
    (r.Simulation.wipsb +. r.Simulation.wipso);
  (* Ordering mix: roughly half the interactions are order-side. *)
  let frac = r.Simulation.wipso /. r.Simulation.wips in
  Alcotest.(check bool) "order fraction ~0.5" true (Float.abs (frac -. 0.5) < 0.07)

let test_sim_small_accept_queue_rejects () =
  let tight =
    { Wsconfig.default with Wsconfig.ajp_accept_count = 8; ajp_max_processors = 6 }
  in
  let r =
    Simulation.run
      ~options:{ quick_options with Simulation.clients = 200 }
      tight ~mix:Tpcw.shopping
  in
  Alcotest.(check bool) "overload rejects" true (r.Simulation.rejections > 0)

let test_sim_cache_hits_counted () =
  let r = Simulation.run ~options:quick_options Wsconfig.default ~mix:Tpcw.browsing in
  Alcotest.(check bool) "some hits" true (r.Simulation.cache_hits > 0);
  Alcotest.(check bool) "response time positive" true (r.Simulation.mean_response_ms > 0.0)

let test_sim_percentiles () =
  let r = Simulation.run ~options:quick_options Wsconfig.default ~mix:Tpcw.shopping in
  Alcotest.(check bool) "p50 positive" true (r.Simulation.p50_response_ms > 0.0);
  Alcotest.(check bool) "p50 <= p95" true
    (r.Simulation.p50_response_ms <= r.Simulation.p95_response_ms);
  (* The mean sits between the median and the tail for these
     right-skewed distributions. *)
  Alcotest.(check bool) "mean below p95" true
    (r.Simulation.mean_response_ms < r.Simulation.p95_response_ms)

let test_sim_utilization_matches_model () =
  let sim_r = Simulation.run ~options:quick_options Wsconfig.default ~mix:Tpcw.ordering in
  let model_r = Model.evaluate Wsconfig.default ~mix:Tpcw.ordering in
  let (sp, sa, sd) = sim_r.Simulation.utilization in
  let (_mp, ma, md) = model_r.Model.utilization in
  List.iter
    (fun u -> Alcotest.(check bool) "in [0,1]" true (u >= 0.0 && u <= 1.0))
    [ sp; sa; sd ];
  (* The app and db utilizations of the two evaluators agree within
     0.15 absolute; the proxy is near-idle in both. *)
  Alcotest.(check bool) "app agrees" true (Float.abs (sa -. ma) < 0.15);
  Alcotest.(check bool) "db agrees" true (Float.abs (sd -. md) < 0.15);
  Alcotest.(check bool) "db busiest in sim too" true (sd >= sa && sd >= sp)

let test_sim_session_persistence () =
  (* Bursty sessions must preserve the WIPS ballpark (stationary mix is
     unchanged) while still being a different trace. *)
  let bursty =
    Simulation.run
      ~options:{ quick_options with Simulation.session_persistence = 0.7 }
      Wsconfig.default ~mix:Tpcw.shopping
  in
  let iid = Simulation.run ~options:quick_options Wsconfig.default ~mix:Tpcw.shopping in
  Alcotest.(check bool) "different trace" true
    (bursty.Simulation.wips <> iid.Simulation.wips);
  Alcotest.(check bool) "same WIPS ballpark" true
    (Float.abs (bursty.Simulation.wips -. iid.Simulation.wips) /. iid.Simulation.wips
    < 0.10);
  (* Category split stays near the mix's browse fraction. *)
  let frac = bursty.Simulation.wipsb /. bursty.Simulation.wips in
  Alcotest.(check bool) "browse fraction preserved" true
    (Float.abs (frac -. Tpcw.browse_fraction Tpcw.shopping) < 0.05)

let test_sim_invalid () =
  Alcotest.check_raises "horizon" (Invalid_argument "Simulation.run: horizon <= 0")
    (fun () ->
      ignore
        (Simulation.run
           ~options:{ quick_options with Simulation.horizon_ms = 0.0 }
           Wsconfig.default ~mix:Tpcw.shopping))

(* ------------------------------------------------------------------ *)
(* Properties over random configurations                               *)

let config_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 1_000_000 in
    let rng = Rng.create seed in
    return (Wsconfig.of_config (Space.random rng Wsconfig.space)))

let prop_model_wips_bounded =
  QCheck2.Test.make ~name:"model WIPS within physical bounds" ~count:200 config_gen
    (fun config ->
      List.for_all
        (fun mix ->
          let r = Model.evaluate config ~mix in
          (* Positive, and below the zero-wait ceiling N/Z. *)
          r.Model.wips > 0.0 && r.Model.wips <= 120.0 +. 1e-6)
        [ Tpcw.browsing; Tpcw.shopping; Tpcw.ordering ])

let prop_model_utilization_bounded =
  QCheck2.Test.make ~name:"model utilizations in [0,1]" ~count:200 config_gen
    (fun config ->
      let r = Model.evaluate config ~mix:Tpcw.shopping in
      let a, b, c = r.Model.utilization in
      List.for_all (fun u -> u >= 0.0 && u <= 1.0) [ a; b; c ]
      && r.Model.reject_fraction >= 0.0
      && r.Model.reject_fraction <= 0.9)

let prop_effects_sane =
  QCheck2.Test.make ~name:"effects: probabilities and times sane" ~count:200
    config_gen (fun config ->
      let fx = Effects.derive config ~mix:Tpcw.ordering in
      Array.for_all
        (fun i ->
          let h = Effects.cache_hit_probability fx i in
          h >= 0.0 && h < 1.0
          && Effects.app_service_ms fx i > 0.0
          && Effects.db_service_ms fx i >= 0.0
          && Effects.proxy_hit_ms fx i > 0.0)
        Tpcw.all
      && Effects.app_servers fx >= 1
      && Effects.db_servers fx >= 1)

let prop_cache_hit_monotone_in_memory =
  QCheck2.Test.make ~name:"cache hit monotone in cache memory" ~count:100
    config_gen (fun config ->
      let at mem =
        Effects.mean_cache_hit
          (Effects.derive { config with Wsconfig.proxy_cache_mem_mb = mem }
             ~mix:Tpcw.shopping)
      in
      at 8 <= at 64 +. 1e-9 && at 64 <= at 256 +. 1e-9 && at 256 <= at 512 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* AMVA solver hot path                                                *)

let fbits = Int64.bits_of_float

let check_fbits msg expected got =
  Alcotest.(check int64) msg (fbits expected) (fbits got)

let amva_scenarios =
  [
    ("3-tier default", 120, 1000.0, [| 2.0; 5.0; 3.0 |], [| 2; 8; 4 |]);
    ("saturated", 300, 700.0, [| 1.5; 9.0; 6.5 |], [| 2; 6; 4 |]);
    ("single server", 40, 500.0, [| 4.0; 4.0; 4.0 |], [| 1; 1; 1 |]);
    ("light load", 8, 2000.0, [| 0.5; 1.25; 0.75 |], [| 4; 16; 8 |]);
  ]

let test_amva_early_exit_identity () =
  (* The early exit fires only at the exact bitwise fixed point, so
     its answer must equal a fixed 200-iteration solve bit for bit on
     every scenario. *)
  List.iter
    (fun (label, clients, think_ms, demands_ms, servers) ->
      let fixed =
        Test_model_ref.amva_solve ~early_exit:false ~clients ~think_ms
          ~demands_ms ~servers ()
      in
      let early =
        Model.Amva.solve ~clients ~think_ms ~demands_ms ~servers ()
      in
      check_fbits label fixed early)
    amva_scenarios

let test_amva_queue_lengths () =
  let s = Model.Amva.scratch () in
  let _x =
    Model.Amva.solve ~scratch:s ~clients:120 ~think_ms:1000.0
      ~demands_ms:[| 2.0; 5.0; 3.0 |] ~servers:[| 2; 8; 4 |] ()
  in
  let q = Model.Amva.queue_lengths s in
  Alcotest.(check int) "three stations" 3 (Array.length q);
  Array.iter
    (fun qi -> Alcotest.(check bool) "non-negative" true (qi >= 0.0))
    q;
  (* Queue lengths + thinkers account for every client. *)
  let total = Array.fold_left ( +. ) 0.0 q in
  Alcotest.(check bool) "at most the population" true (total <= 120.0)

let test_amva_invalid () =
  Alcotest.check_raises "no stations"
    (Invalid_argument "Amva.solve: no stations") (fun () ->
      ignore
        (Model.Amva.solve ~clients:10 ~think_ms:100.0 ~demands_ms:[||]
           ~servers:[||] ()));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Amva.solve: length mismatch") (fun () ->
      ignore
        (Model.Amva.solve ~clients:10 ~think_ms:100.0 ~demands_ms:[| 1.0 |]
           ~servers:[| 1; 2 |] ()));
  (* Let through, each of these would solve to nan or to a negative
     or zero throughput. *)
  let raises label msg ?(clients = 120) ?(think_ms = 1000.0)
      ?(demands_ms = [| 2.0; 5.0; 3.0 |]) ?(servers = [| 2; 8; 4 |]) () =
    Alcotest.check_raises label (Invalid_argument ("Amva.solve: " ^ msg))
      (fun () ->
        ignore (Model.Amva.solve ~clients ~think_ms ~demands_ms ~servers ()))
  in
  raises "no clients" "clients < 1" ~clients:0 ();
  raises "negative clients" "clients < 1" ~clients:(-5) ();
  raises "no servers" "servers.(1) < 1" ~servers:[| 2; 0; 4 |] ();
  let think = "think_ms must be finite and non-negative" in
  raises "negative think time" think ~think_ms:(-1.0) ();
  raises "nan think time" think ~think_ms:Float.nan ();
  raises "infinite think time" think ~think_ms:Float.infinity ();
  raises "negative demand" "demands_ms.(2) must be finite and non-negative"
    ~demands_ms:[| 2.0; 5.0; -3.0 |] ();
  raises "nan demand" "demands_ms.(0) must be finite and non-negative"
    ~demands_ms:[| Float.nan; 5.0; 3.0 |] ()

let test_model_invalid_inputs () =
  let raises label msg ?(options = Model.default_options)
      ?(config = Wsconfig.default) () =
    Alcotest.check_raises label (Invalid_argument ("Model.evaluate: " ^ msg))
      (fun () -> ignore (Model.wips ~options config ~mix:Tpcw.shopping))
  in
  let think = "think_ms must be finite and non-negative" in
  raises "negative think time" think
    ~options:{ Model.clients = 120; think_ms = -1000.0 } ();
  raises "nan think time" think
    ~options:{ Model.clients = 120; think_ms = Float.nan } ();
  raises "no app servers" "servers.(1) < 1"
    ~config:{ Wsconfig.default with Wsconfig.ajp_max_processors = 0 } ();
  raises "no db servers" "servers.(2) < 1"
    ~config:{ Wsconfig.default with Wsconfig.mysql_max_connections = 0 } ();
  (* A zero think time is a valid (saturated) workload. *)
  let w =
    Model.wips ~options:{ Model.clients = 120; think_ms = 0.0 } Wsconfig.default
      ~mix:Tpcw.shopping
  in
  Alcotest.(check bool) "zero think time solves" true (Float.is_finite w && w > 0.0)

(* ------------------------------------------------------------------ *)
(* Continuity goldens and arena reuse                                  *)

let test_model_golden () =
  (* Bitwise outputs captured before the allocation-free rewrite of
     the solver; any drift here means the hot path changed the math. *)
  let r = Model.evaluate Wsconfig.default ~mix:Tpcw.shopping in
  check_fbits "wips" 99.838290894453706 r.Model.wips;
  check_fbits "reject fraction" 3.6581497272453554e-11 r.Model.reject_fraction;
  check_fbits "cache hit" 0.3618970647688724 r.Model.cache_hit;
  let r300 =
    Model.evaluate
      ~options:{ Model.clients = 300; think_ms = 700.0 }
      Wsconfig.default ~mix:Tpcw.browsing
  in
  check_fbits "300 clients browsing" 172.16486955556275 r300.Model.wips

let golden_sim_options =
  { Simulation.default_options with
    Simulation.warmup_ms = 1_000.0; horizon_ms = 5_000.0; seed = 7 }

let test_sim_golden () =
  (* Same continuity contract for the simulator: buffers moved into
     the arena and the heap was flattened, but not one event may
     reorder. *)
  let r = Simulation.run ~options:golden_sim_options Wsconfig.default ~mix:Tpcw.ordering in
  check_fbits "wips" 86.599999999999994 r.Simulation.wips;
  Alcotest.(check int) "completions" 433 r.Simulation.completions;
  check_fbits "p50" 461.56186417364279 r.Simulation.p50_response_ms;
  check_fbits "p95" 1080.2172626104048 r.Simulation.p95_response_ms

let test_sim_arena_reuse () =
  (* One caller-owned arena across repeated runs (including a
     different workload in between) changes nothing. *)
  let fresh =
    Simulation.run ~options:golden_sim_options Wsconfig.default ~mix:Tpcw.ordering
  in
  let arena = Simulation.Arena.create ~capacity:8 () in
  let first =
    Simulation.run ~options:golden_sim_options ~arena Wsconfig.default
      ~mix:Tpcw.ordering
  in
  ignore
    (Simulation.run ~options:golden_sim_options ~arena Wsconfig.default
       ~mix:Tpcw.shopping
      : Simulation.result)
  ;
  let again =
    Simulation.run ~options:golden_sim_options ~arena Wsconfig.default
      ~mix:Tpcw.ordering
  in
  List.iter
    (fun (label, r) ->
      check_fbits (label ^ " wips") fresh.Simulation.wips r.Simulation.wips;
      check_fbits (label ^ " p95") fresh.Simulation.p95_response_ms
        r.Simulation.p95_response_ms;
      Alcotest.(check int)
        (label ^ " completions")
        fresh.Simulation.completions r.Simulation.completions)
    [ ("first borrow", first); ("reused arena", again) ]

let suite =
  [
    Alcotest.test_case "space shape" `Quick test_space_shape;
    Alcotest.test_case "config roundtrip" `Quick test_config_roundtrip;
    Alcotest.test_case "of_config snaps" `Quick test_of_config_snaps;
    Alcotest.test_case "cache hit only cacheable" `Quick test_cache_hit_only_cacheable;
    Alcotest.test_case "cache grows with memory" `Quick test_cache_grows_with_memory;
    Alcotest.test_case "min object narrows window" `Quick test_min_object_narrows_window;
    Alcotest.test_case "small buffer costs app time" `Quick test_small_buffer_costs_app_time;
    Alcotest.test_case "net buffer costs db time" `Quick test_net_buffer_costs_db_time;
    Alcotest.test_case "delayed queue discounts writes" `Quick test_delayed_queue_discounts_writes;
    Alcotest.test_case "search request skips db" `Quick test_search_request_skips_db;
    Alcotest.test_case "thrashing inflates app" `Quick test_thrashing_inflates_app;
    Alcotest.test_case "pool ceilings" `Quick test_pool_ceilings;
    Alcotest.test_case "queue limits follow accept counts" `Quick test_queue_limits_follow_accept_counts;
    Alcotest.test_case "mean demands positive" `Quick test_mean_demands_positive;
    Alcotest.test_case "model wips plausible" `Quick test_model_wips_plausible;
    Alcotest.test_case "model ordering slowest" `Quick test_model_ordering_slowest;
    Alcotest.test_case "model deterministic" `Quick test_model_deterministic;
    Alcotest.test_case "model starved pool" `Quick test_model_starved_pool_hurts;
    Alcotest.test_case "model thrashing" `Quick test_model_thrashing_hurts;
    Alcotest.test_case "model client scaling" `Quick test_model_more_clients_saturates;
    Alcotest.test_case "model utilization bounds" `Quick test_model_utilization_bounds;
    Alcotest.test_case "model invalid clients" `Quick test_model_invalid_clients;
    Alcotest.test_case "model invalid inputs" `Quick test_model_invalid_inputs;
    Alcotest.test_case "model objective" `Quick test_model_objective;
    Alcotest.test_case "sim deterministic" `Slow test_sim_deterministic;
    Alcotest.test_case "sim seed changes result" `Slow test_sim_seed_changes_result;
    Alcotest.test_case "sim agrees with model" `Slow test_sim_agrees_with_model;
    Alcotest.test_case "sim category split" `Slow test_sim_category_split;
    Alcotest.test_case "sim accept queue rejects" `Slow test_sim_small_accept_queue_rejects;
    Alcotest.test_case "sim cache hits counted" `Slow test_sim_cache_hits_counted;
    Alcotest.test_case "sim percentiles" `Slow test_sim_percentiles;
    Alcotest.test_case "sim session persistence" `Slow test_sim_session_persistence;
    Alcotest.test_case "sim utilization matches model" `Slow test_sim_utilization_matches_model;
    Alcotest.test_case "sim invalid" `Quick test_sim_invalid;
    Alcotest.test_case "amva early exit identity" `Quick
      test_amva_early_exit_identity;
    Alcotest.test_case "amva queue lengths" `Quick test_amva_queue_lengths;
    Alcotest.test_case "amva invalid" `Quick test_amva_invalid;
    Alcotest.test_case "model golden" `Quick test_model_golden;
    Alcotest.test_case "sim golden" `Slow test_sim_golden;
    Alcotest.test_case "sim arena reuse" `Slow test_sim_arena_reuse;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_model_wips_bounded; prop_model_utilization_bounded;
        prop_effects_sane; prop_cache_hit_monotone_in_memory;
      ]

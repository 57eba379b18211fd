type t = {
  config : Wsconfig.t;
  mix : Tpcw.mix;
  hit_window : float;     (* fraction of cacheable objects inside [min,max] *)
  hit_in_window : float;  (* hit probability for an in-window object *)
  proxy_inflation : float;
  app_inflation : float;
  db_inflation : float;
  delayed_write_factor : float;
}

let node_ram_mb = 1000.0

(* Object sizes are modelled exponential with this mean (KB). *)
let mean_object_kb = 12.0

(* Working set of distinct cacheable objects (TPC-W scale factor
   10,000 items plus static content). *)
let working_set_objects = 4000.0

(* Per-packet costs on 100 Mbps Ethernet with 2004 syscall overheads:
   each buffered write at the app tier and each result packet from the
   database costs a round of syscalls and wire turnarounds. *)
let syscall_ms = 1.0
let db_packet_ms = 3.0

(* CPU/disk parallelism ceilings: worker processes beyond the app
   tier's CPU contexts add no capacity, and database connections
   beyond the disk/CPU queue depth only add contention.  Extra
   processes still consume memory (thrashing). *)
let app_cpu_contexts = 10
let db_parallelism = 12

let thrash demand_mb =
  (* Quadratic slowdown once memory demand passes RAM; capped — a
     paging system is roughly an order of magnitude slower, not
     arbitrarily slow. *)
  let ratio = demand_mb /. (0.9 *. node_ram_mb) in
  if ratio <= 1.0 then 1.0
  else Float.min 10.0 (1.0 +. (8.0 *. (ratio -. 1.0) *. (ratio -. 1.0)))

let derive (config : Wsconfig.t) ~mix =
  let mink = float_of_int config.proxy_min_object_kb in
  let maxk = float_of_int config.proxy_max_object_kb in
  let hit_window =
    Float.max 0.0 (exp (-.mink /. mean_object_kb) -. exp (-.maxk /. mean_object_kb))
  in
  (* Average size of a cached object: conditional mean of the
     exponential over the window, approximated by min + mean. *)
  let avg_cached_kb = mink +. mean_object_kb in
  let capacity_objects =
    float_of_int config.proxy_cache_mem_mb *. 1024.0 /. avg_cached_kb
  in
  let hit_in_window = capacity_objects /. (capacity_objects +. working_set_objects) in
  (* Squid shares its node with the OS: a cache close to node RAM
     pages. *)
  let proxy_mem = (float_of_int config.proxy_cache_mem_mb *. 1.25) +. 150.0 in
  let proxy_inflation = thrash proxy_mem in
  (* Each worker process costs a base footprint plus its transfer
     buffers; backlog slots pin socket buffers too. *)
  let app_mem =
    (float_of_int config.ajp_max_processors
    *. (6.0 +. (0.05 *. float_of_int config.http_buffer_kb)))
    +. (0.05 *. float_of_int (config.ajp_accept_count + config.http_accept_count))
  in
  let app_inflation =
    thrash app_mem +. (0.004 *. float_of_int config.ajp_max_processors)
  in
  let db_mem =
    (float_of_int config.mysql_max_connections
    *. (3.0 +. (0.08 *. float_of_int config.mysql_net_buffer_kb)))
    +. (0.04 *. float_of_int config.mysql_delayed_queue)
  in
  let write_frac = Tpcw.write_fraction mix in
  let lock_contention =
    let c = float_of_int config.mysql_max_connections /. 96.0 in
    1.0 +. (0.6 *. write_frac *. (c ** 1.5))
  in
  let db_inflation =
    (thrash db_mem *. lock_contention)
    +. (0.002 *. float_of_int config.mysql_max_connections)
  in
  (* Delayed-insert batching: a longer queue absorbs more write cost,
     with saturating returns. *)
  let q = float_of_int config.mysql_delayed_queue in
  let delayed_write_factor = 1.0 -. (0.45 *. (q /. (q +. 1500.0))) in
  { config; mix; hit_window; hit_in_window; proxy_inflation; app_inflation;
    db_inflation; delayed_write_factor }

(* The per-interaction formulas, over an interaction's demand record.
   Inlined into both the per-interaction functions below and the
   one-pass means, so the physics is written once and the means loop
   boxes no intermediate float. *)
let[@inline] cache_hit_of t (d : Tpcw.demand) =
  if d.Tpcw.cacheable then t.hit_window *. t.hit_in_window else 0.0

let[@inline] proxy_hit_of t (d : Tpcw.demand) =
  (0.8 +. (0.008 *. d.Tpcw.response_kb)) *. t.proxy_inflation

let[@inline] proxy_forward_of t (d : Tpcw.demand) =
  (0.4 +. (0.012 *. d.Tpcw.response_kb)) *. t.proxy_inflation

let[@inline] app_service_of t (d : Tpcw.demand) =
  let packets = ceil (d.Tpcw.response_kb /. float_of_int t.config.Wsconfig.http_buffer_kb) in
  (d.Tpcw.app_ms +. (syscall_ms *. packets)) *. t.app_inflation

let[@inline] db_service_of t (d : Tpcw.demand) =
  if
    Float.equal d.Tpcw.db_ms 0.0
    && Float.equal d.Tpcw.db_write_ms 0.0
    && Float.equal d.Tpcw.db_result_kb 0.0
  then
    0.0
  else begin
    let packets =
      ceil (d.Tpcw.db_result_kb /. float_of_int t.config.Wsconfig.mysql_net_buffer_kb)
    in
    (d.Tpcw.db_ms
    +. (d.Tpcw.db_write_ms *. t.delayed_write_factor)
    +. (db_packet_ms *. packets))
    *. t.db_inflation
  end

let cache_hit_probability t i = cache_hit_of t (Tpcw.demand i)
let proxy_hit_ms t i = proxy_hit_of t (Tpcw.demand i)
let proxy_forward_ms t i = proxy_forward_of t (Tpcw.demand i)
let app_service_ms t i = app_service_of t (Tpcw.demand i)
let db_service_ms t i = db_service_of t (Tpcw.demand i)

let proxy_servers _ = 16
let proxy_queue_limit t = t.config.Wsconfig.http_accept_count
let app_servers t = Int.min t.config.Wsconfig.ajp_max_processors app_cpu_contexts
let app_queue_limit t = t.config.Wsconfig.ajp_accept_count
let db_servers t = Int.min t.config.Wsconfig.mysql_max_connections db_parallelism
let db_queue_limit _ = 512

(* The four mix-weighted means in one pass over the mix.  Each
   accumulator adds its terms in mix order from 0.0, exactly as a
   separate fold per mean would, so the results are the folds' bits. *)
let means_into t out =
  let weights = t.mix.Tpcw.weights in
  let hit = ref 0.0 and proxy = ref 0.0 and app = ref 0.0 and db = ref 0.0 in
  for j = 0 to Array.length weights - 1 do
    let i, w = weights.(j) in
    let d = Tpcw.demand i in
    let h = cache_hit_of t d in
    hit := !hit +. (w *. h);
    proxy :=
      !proxy +. (w *. ((h *. proxy_hit_of t d) +. ((1.0 -. h) *. proxy_forward_of t d)));
    app := !app +. (w *. ((1.0 -. h) *. app_service_of t d));
    db := !db +. (w *. ((1.0 -. h) *. db_service_of t d))
  done;
  Float.Array.set out 0 !hit;
  Float.Array.set out 1 !proxy;
  Float.Array.set out 2 !app;
  Float.Array.set out 3 !db

let mean t cell =
  let out = Float.Array.make 4 0.0 in
  means_into t out;
  Float.Array.get out cell

let mean_cache_hit t = mean t 0
let mean_proxy_ms t = mean t 1
let mean_app_ms t = mean t 2
let mean_db_ms t = mean t 3

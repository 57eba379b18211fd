open Harmony_objective
module Rng = Harmony_numerics.Rng
module Sim = Harmony_des.Sim
module Resource = Harmony_des.Resource

type options = {
  clients : int;
  think_ms : float;
  warmup_ms : float;
  horizon_ms : float;
  backoff_ms : float;
  seed : int;
  session_persistence : float;
}

let default_options =
  { clients = 120; think_ms = 1000.0; warmup_ms = 20_000.0; horizon_ms = 120_000.0;
    backoff_ms = 800.0; seed = 1; session_persistence = 0.0 }

type result = {
  wips : float;
  wipsb : float;
  wipso : float;
  completions : int;
  rejections : int;
  cache_hits : int;
  mean_response_ms : float;
  p50_response_ms : float;
  p95_response_ms : float;
  utilization : float * float * float;
}

(* Response times accumulate in a growable floatarray owned by an
   arena, not a cons list: a 120-client run completes ~12k
   interactions, and list cells plus the Array.of_list + sort copies
   at percentile time dominated the simulation's allocations.  The
   running total also lives in the arena ([totals]) because a mutable
   float field in a mixed record boxes on every store. *)
module Arena = struct
  type t = {
    mutable response_times : floatarray;
    mutable count : int;
    totals : floatarray;
  }

  let create ?(capacity = 4096) () =
    {
      response_times = Float.Array.create (Int.max 16 capacity);
      count = 0;
      totals = Float.Array.make 1 0.0;
    }

  let reset a =
    a.count <- 0;
    Float.Array.set a.totals 0 0.0

  let push a v =
    let cap = Float.Array.length a.response_times in
    if a.count = cap then begin
      let bigger = Float.Array.create (2 * cap) in
      Float.Array.blit a.response_times 0 bigger 0 a.count;
      a.response_times <- bigger
    end;
    Float.Array.set a.response_times a.count v;
    a.count <- a.count + 1;
    Float.Array.set a.totals 0 (Float.Array.get a.totals 0 +. v)
end

type counters = {
  mutable completions : int;
  mutable browse : int;
  mutable order : int;
  mutable rejections : int;
  mutable cache_hits : int;
}

(* The default arena is per-domain: a domain runs one simulation at a
   time, each run resets it, and its capacity persists across
   evaluations — so the steady-state hot path never grows it. *)
let arena_key = Domain.DLS.new_key (fun () -> Arena.create ())

let run ?(options = default_options) ?arena config ~mix =
  if options.clients < 1 then invalid_arg "Simulation.run: clients < 1";
  if options.horizon_ms <= 0.0 then invalid_arg "Simulation.run: horizon <= 0";
  let fx = Effects.derive config ~mix in
  let rng = Rng.create options.seed in
  let sim = Sim.create () in
  let proxy =
    Resource.create ~capacity:(Effects.proxy_servers fx)
      ~queue_limit:(Effects.proxy_queue_limit fx) ()
  in
  let app =
    Resource.create ~capacity:(Effects.app_servers fx)
      ~queue_limit:(Effects.app_queue_limit fx) ()
  in
  let db =
    Resource.create ~capacity:(Effects.db_servers fx)
      ~queue_limit:(Effects.db_queue_limit fx) ()
  in
  let arena =
    match arena with Some a -> a | None -> Domain.DLS.get arena_key
  in
  Arena.reset arena;
  let k = { completions = 0; browse = 0; order = 0; rejections = 0; cache_hits = 0 } in
  let measure_start = options.warmup_ms in
  let measure_end = options.warmup_ms +. options.horizon_ms in
  let in_window sim =
    let t = Sim.now sim in
    t >= measure_start && t < measure_end
  in
  let record_completion sim interaction started =
    if in_window sim then begin
      k.completions <- k.completions + 1;
      (match Tpcw.category interaction with
      | Tpcw.Browse -> k.browse <- k.browse + 1
      | Tpcw.Order -> k.order <- k.order + 1);
      Arena.push arena (Sim.now sim -. started)
    end
  in
  (* One emulated browser's endless think/request cycle.  Each browser
     remembers its previous interaction so sessions can persist within
     a Browse/Order category; a rejection retries the same
     interaction after a backoff. *)
  let rec think previous sim =
    Sim.schedule sim ~delay:(Rng.exponential rng options.think_ms) (issue previous)
  and issue previous sim =
    let interaction =
      if Float.equal options.session_persistence 0.0 then Tpcw.sample rng mix
      else
        Tpcw.sample_next rng mix ~persistence:options.session_persistence ~previous
    in
    run_interaction interaction sim
  and run_interaction interaction sim =
    let think sim = think (Some interaction) sim in
    let started = Sim.now sim in
    let reject sim =
      if in_window sim then k.rejections <- k.rejections + 1;
      Sim.schedule sim ~delay:(Rng.exponential rng options.backoff_ms)
        (run_interaction interaction)
    in
    let finish_db sim =
      record_completion sim interaction started;
      think sim
    in
    let after_app sim =
      let db_ms = Effects.db_service_ms fx interaction in
      if db_ms <= 0.0 then begin
        record_completion sim interaction started;
        think sim
      end
      else
        Resource.submit sim db
          ~service_time:(Rng.exponential rng db_ms)
          ~on_complete:finish_db ~on_reject:reject
    in
    let after_proxy sim =
      let hit = Rng.float rng 1.0 < Effects.cache_hit_probability fx interaction in
      if hit then begin
        if in_window sim then k.cache_hits <- k.cache_hits + 1;
        (* Served from cache: the hit cost was charged at the proxy
           via the service-time sample below, which uses the blended
           expectation; charge the small residual here as zero. *)
        record_completion sim interaction started;
        think sim
      end
      else
        Resource.submit sim app
          ~service_time:(Rng.exponential rng (Effects.app_service_ms fx interaction))
          ~on_complete:after_app ~on_reject:reject
    in
    let proxy_ms =
      let h = Effects.cache_hit_probability fx interaction in
      (h *. Effects.proxy_hit_ms fx interaction)
      +. ((1.0 -. h) *. Effects.proxy_forward_ms fx interaction)
    in
    Resource.submit sim proxy
      ~service_time:(Rng.exponential rng (Float.max 1e-6 proxy_ms))
      ~on_complete:after_proxy ~on_reject:reject
  in
  for _ = 1 to options.clients do
    (* Stagger initial arrivals across one think time. *)
    Sim.schedule sim ~delay:(Rng.float rng options.think_ms) (issue None)
  done;
  Sim.run ~until:measure_end sim;
  let seconds = options.horizon_ms /. 1000.0 in
  let utilization_of resource =
    Harmony_des.Resource.utilization_time resource
    /. (measure_end *. float_of_int (Harmony_des.Resource.capacity resource))
  in
  (* One in-place sort of the arena buffer serves both percentiles —
     no list-to-array copy, no per-percentile sorted copy. *)
  let p50, p95 =
    if k.completions = 0 then (0.0, 0.0)
    else begin
      Harmony_numerics.Stats.sort_floatarray ~len:arena.Arena.count
        arena.Arena.response_times;
      ( Harmony_numerics.Stats.percentile_sorted_floatarray
          ~len:arena.Arena.count arena.Arena.response_times 50.0,
        Harmony_numerics.Stats.percentile_sorted_floatarray
          ~len:arena.Arena.count arena.Arena.response_times 95.0 )
    end
  in
  {
    wips = float_of_int k.completions /. seconds;
    wipsb = float_of_int k.browse /. seconds;
    wipso = float_of_int k.order /. seconds;
    completions = k.completions;
    rejections = k.rejections;
    cache_hits = k.cache_hits;
    mean_response_ms =
      (if k.completions = 0 then 0.0
       else Float.Array.get arena.Arena.totals 0 /. float_of_int k.completions);
    p50_response_ms = p50;
    p95_response_ms = p95;
    utilization = (utilization_of proxy, utilization_of app, utilization_of db);
  }

let wips ?options config ~mix = (run ?options config ~mix).wips

let objective ?options ~mix () =
  Objective.create ~space:Wsconfig.space ~direction:Objective.Higher_is_better
    (fun c -> wips ?options (Wsconfig.of_config c) ~mix)

open Harmony_objective

type options = { clients : int; think_ms : float }

let default_options = { clients = 120; think_ms = 1000.0 }

type result = {
  wips : float;
  cache_hit : float;
  utilization : float * float * float;
  bottleneck : string;
  reject_fraction : float;
}

(* Schweitzer AMVA with Seidmann's multi-server approximation: a
   c-server station with demand D becomes a queueing station with
   demand D/c plus a pure delay of D*(c-1)/c. *)
module Amva = struct
  (* The per-station inputs and iterates live in floatarrays that a
     scratch owns and that grow on demand; a solve allocates nothing.
     The loop's scalar state (the running residence-time sum and the
     previous iteration's throughput) lives in local float refs, which
     ocamlopt keeps unboxed: a floatarray cell on that loop-carried
     chain costs a store and a reload per iteration. *)
  type scratch = {
    mutable demands : floatarray;
    mutable servers : int array;
    mutable q_demand : floatarray;
    mutable q : floatarray;
    mutable r : floatarray;
    mutable stations : int;  (* of the last solve *)
  }

  let scratch () =
    {
      demands = Float.Array.create 0;
      servers = [||];
      q_demand = Float.Array.create 0;
      q = Float.Array.create 0;
      r = Float.Array.create 0;
      stations = 0;
    }

  let ensure s k =
    if Float.Array.length s.q < k then begin
      s.demands <- Float.Array.make k 0.0;
      s.servers <- Array.make k 0;
      s.q_demand <- Float.Array.make k 0.0;
      s.q <- Float.Array.make k 0.0;
      s.r <- Float.Array.make k 0.0
    end

  (* Inputs on which the fixed point means nothing: they solve to nan
     or to a negative or zero throughput. *)
  let check who s ~k ~clients ~think_ms =
    let fail what = invalid_arg (who ^ ": " ^ what) in
    if clients < 1 then fail "clients < 1";
    if not (Float.is_finite think_ms && think_ms >= 0.0) then
      fail "think_ms must be finite and non-negative";
    for i = 0 to k - 1 do
      if s.servers.(i) < 1 then fail (Printf.sprintf "servers.(%d) < 1" i);
      let d = Float.Array.get s.demands i in
      if not (Float.is_finite d && d >= 0.0) then
        fail (Printf.sprintf "demands_ms.(%d) must be finite and non-negative" i)
    done

  let max_iterations = 200

  (* The fixed point over the first [k] stations of the scratch's
     inputs, which [check] has vetted.  [ensure] sized every array to
     at least [k], so the loops index without bounds checks.

     The loop stops early only at the exact fixed point: once the
     throughput and every queue length repeat bitwise, the remaining
     iterations are the identity, so the result equals the full
     200-iteration solve.  A tolerance would return an earlier iterate
     and move result bits; jumping ahead along a repeated state would
     be exact, but few capped solves ever repeat one (DESIGN.md
     §12). *)
  let fixed_point s ~k ~clients ~think_ms =
    let n = float_of_int clients in
    let n1 = n -. 1.0 in
    let demands = s.demands and servers = s.servers in
    let qd = s.q_demand and q = s.q and r = s.r in
    let fixed_delay = ref 0.0 in
    for i = 0 to k - 1 do
      let d = Float.Array.unsafe_get demands i in
      let c = Array.unsafe_get servers i in
      Float.Array.unsafe_set qd i (d /. float_of_int c);
      fixed_delay :=
        !fixed_delay +. (d *. float_of_int (c - 1) /. float_of_int c)
    done;
    let delay = think_ms +. !fixed_delay in
    let q0 = n /. float_of_int k in
    for i = 0 to k - 1 do
      Float.Array.unsafe_set q i q0
    done;
    let x_prev = ref 0.0 in
    let iters = ref 0 in
    let running = ref true in
    while !running && !iters < max_iterations do
      incr iters;
      let sum = ref 0.0 in
      for i = 0 to k - 1 do
        let ri =
          Float.Array.unsafe_get qd i
          *. (1.0 +. (Float.Array.unsafe_get q i *. n1 /. n))
        in
        Float.Array.unsafe_set r i ri;
        sum := !sum +. ri
      done;
      let x = n /. (delay +. !sum) in
      let changed = ref false in
      for i = 0 to k - 1 do
        let qi = x *. Float.Array.unsafe_get r i in
        if not (Float.equal qi (Float.Array.unsafe_get q i)) then changed := true;
        Float.Array.unsafe_set q i qi
      done;
      if (not !changed) && Float.equal x !x_prev then running := false;
      x_prev := x
    done;
    s.stations <- k;
    !x_prev

  let solve ?scratch:sc ~clients ~think_ms ~demands_ms ~servers () =
    let k = Array.length demands_ms in
    if k = 0 then invalid_arg "Amva.solve: no stations";
    if Array.length servers <> k then invalid_arg "Amva.solve: length mismatch";
    let s = match sc with Some s -> s | None -> scratch () in
    ensure s k;
    for i = 0 to k - 1 do
      Float.Array.set s.demands i demands_ms.(i);
      s.servers.(i) <- servers.(i)
    done;
    check "Amva.solve" s ~k ~clients ~think_ms;
    fixed_point s ~k ~clients ~think_ms

  let queue_lengths s = Array.init s.stations (fun i -> Float.Array.get s.q i)
end

(* M/M/c/K blocking probability (Erlang loss with waiting room):
   computed from the birth-death chain with a running normalization so
   large K never overflows. [offered] is in Erlangs (arrival rate x
   mean service time).  The running terms are local float refs, kept
   unboxed; past the first [servers] states every step divides by the
   same [c], so that rate is computed once. *)
let mmck_blocking ~servers ~queue ~offered =
  if offered <= 0.0 then 0.0
  else begin
    let k = servers + queue in
    let saturated = offered /. float_of_int servers in
    (* p = p_n relative to p_0, total = running sum. *)
    let p = ref 1.0 and total = ref 1.0 in
    for n = 0 to k - 1 do
      let rate =
        if n + 1 < servers then offered /. float_of_int (n + 1) else saturated
      in
      let rel = !p *. rate in
      (* Guard against runaway growth in deeply saturated systems. *)
      if rel > 1e12 then begin
        total := (!total /. rel) +. 1.0;
        p := 1.0
      end
      else begin
        p := rel;
        total := !total +. rel
      end
    done;
    !p /. !total
  end

(* Per-domain scratch: each evaluation overwrites every input and
   iterate it reads, so evaluations stay order-independent and
   byte-identical at any domain count.  [means] receives the four
   mix-weighted means of {!Effects.means_into}. *)
type scratch = { amva : Amva.scratch; means : floatarray }

let scratch_key =
  Domain.DLS.new_key (fun () ->
      let amva = Amva.scratch () in
      Amva.ensure amva 3;
      { amva; means = Float.Array.make 4 0.0 })

let evaluate ?(options = default_options) config ~mix =
  let fx = Effects.derive config ~mix in
  let { amva; means } = Domain.DLS.get scratch_key in
  Effects.means_into fx means;
  (* Stations 0, 1, 2: proxy, app, db. *)
  let d0 = Float.max 1e-6 (Float.Array.get means 1) in
  let d1 = Float.max 1e-6 (Float.Array.get means 2) in
  let d2 = Float.max 1e-6 (Float.Array.get means 3) in
  let c0 = Effects.proxy_servers fx in
  let c1 = Effects.app_servers fx in
  let c2 = Effects.db_servers fx in
  Float.Array.set amva.Amva.demands 0 d0;
  Float.Array.set amva.Amva.demands 1 d1;
  Float.Array.set amva.Amva.demands 2 d2;
  amva.Amva.servers.(0) <- c0;
  amva.Amva.servers.(1) <- c1;
  amva.Amva.servers.(2) <- c2;
  let clients = options.clients and think_ms = options.think_ms in
  Amva.check "Model.evaluate" amva ~k:3 ~clients ~think_ms;
  let x = Amva.fixed_point amva ~k:3 ~clients ~think_ms in
  (* Accept-queue overflow at the proxy and app tiers: requests that
     find the backlog full are rejected and retried after a client
     backoff, costing throughput. *)
  let over_proxy =
    mmck_blocking ~servers:c0 ~queue:(Effects.proxy_queue_limit fx)
      ~offered:(x *. d0)
  in
  let over_app =
    mmck_blocking ~servers:c1 ~queue:(Effects.app_queue_limit fx)
      ~offered:(x *. d1)
  in
  let reject_fraction = Float.min 0.9 (over_proxy +. over_app) in
  let x = x *. (1.0 -. (0.5 *. reject_fraction)) in
  let u0 = Float.min 1.0 (x *. d0 /. float_of_int c0) in
  let u1 = Float.min 1.0 (x *. d1 /. float_of_int c1) in
  let u2 = Float.min 1.0 (x *. d2 /. float_of_int c2) in
  let bottleneck =
    if u1 >= u0 && u1 >= u2 then "app" else if u2 >= u0 then "db" else "proxy"
  in
  {
    wips = x *. 1000.0;
    cache_hit = Float.Array.get means 0;
    utilization = (u0, u1, u2);
    bottleneck;
    reject_fraction;
  }

let wips ?options config ~mix = (evaluate ?options config ~mix).wips

let objective ?options ~mix () =
  Objective.create ~space:Wsconfig.space ~direction:Objective.Higher_is_better
    (fun c -> wips ?options (Wsconfig.of_config c) ~mix)

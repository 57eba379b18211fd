type waiting = { service_time : float; on_complete : Sim.t -> unit }

type t = {
  capacity : int;
  queue_limit : int option;
  queue : waiting Queue.t;
  mutable busy : int;
  mutable busy_integral : float;
  mutable last_change : float;
}

let create ~capacity ?queue_limit () =
  if capacity < 1 then invalid_arg "Resource.create: capacity < 1";
  (match queue_limit with
  | Some q when q < 0 -> invalid_arg "Resource.create: negative queue_limit"
  | Some _ | None -> ());
  {
    capacity;
    queue_limit;
    queue = Queue.create ();
    busy = 0;
    busy_integral = 0.0;
    last_change = 0.0;
  }

let capacity t = t.capacity

let account t now =
  t.busy_integral <- t.busy_integral +. (float_of_int t.busy *. (now -. t.last_change));
  t.last_change <- now

let utilization_time t = t.busy_integral

let rec start sim t w =
  account t (Sim.now sim);
  t.busy <- t.busy + 1;
  Sim.schedule sim ~delay:w.service_time (fun sim -> finish sim t w)

and finish sim t w =
  account t (Sim.now sim);
  t.busy <- t.busy - 1;
  w.on_complete sim;
  (* The freed server picks up the next queued request, if any. *)
  if t.busy < t.capacity then
    match Queue.take_opt t.queue with
    | Some w -> start sim t w
    | None -> ()

let submit sim t ~service_time ~on_complete ~on_reject =
  if service_time < 0.0 then invalid_arg "Resource.submit: negative service time";
  let w = { service_time; on_complete } in
  if t.busy < t.capacity then start sim t w
  else begin
    let full =
      match t.queue_limit with
      | None -> false
      | Some q -> Queue.length t.queue >= q
    in
    if full then on_reject sim else Queue.push w t.queue
  end

module Telemetry = Harmony_telemetry.Telemetry

(* A cooperative-cancellation token: one atomic flag, checked at task
   boundaries.  [none] is represented as [None] so that cancelling a
   caller's own token can never affect callers that passed no token. *)
module Cancel = struct
  type t = bool Atomic.t option

  let none : t = None
  let create () = Some (Atomic.make false)
  let cancel = function None -> () | Some flag -> Atomic.set flag true
  let cancelled = function None -> false | Some flag -> Atomic.get flag
end

exception Cancelled

type t = {
  size : int;
  mutex : Mutex.t;
  work : Condition.t;  (* new tasks queued, or the pool is closing *)
  queue : (unit -> unit) Queue.t;
  telemetry : Telemetry.t;
  tasks : Telemetry.counter;  (* pool.tasks *)
  domain_tasks : Telemetry.counter array;  (* pool.domain.<i>.tasks *)
  batch_size : Telemetry.histogram;  (* pool.batch_size *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let default_domains () = Domain.recommended_domain_count ()

(* Registry names.  Per-domain task counters attribute work to the
   domain that ran it: index 0 is the submitting domain (which helps
   drain the queue), workers are 1..size-1.  Scheduling decides which
   domain takes which task, so these counters are utilization
   observations, not deterministic quantities — the task *results*
   stay input-ordered regardless. *)
let c_tasks = "pool.tasks"
let g_queue_depth = "pool.queue_depth.max"
let h_batch_size = "pool.batch_size"
let batch_size_bounds = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. |]
let domain_counter i = Printf.sprintf "pool.domain.%d.tasks" i

(* Worker domains block on [work] until a task (or shutdown) arrives.
   Tasks never raise: submission wraps them in per-task capture. *)
let worker_loop t index =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.work t.mutex
    done;
    match Queue.take_opt t.queue with
    | Some task ->
        Mutex.unlock t.mutex;
        Telemetry.add t.domain_tasks.(index) 1;
        task ();
        loop ()
    | None ->
        (* closed and drained *)
        Mutex.unlock t.mutex
  in
  loop ()

let create ?(telemetry = Telemetry.off) ~domains () =
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  let t =
    {
      size = domains;
      mutex = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      telemetry;
      tasks = Telemetry.counter telemetry c_tasks;
      domain_tasks =
        Array.init domains (fun i ->
            Telemetry.counter telemetry (domain_counter i));
      batch_size =
        Telemetry.histogram telemetry ~bounds:batch_size_bounds h_batch_size;
      closed = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (domains - 1)
      (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let size t = t.size

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let with_pool ?telemetry ~domains f =
  let t = create ?telemetry ~domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Every task slot checks the token once, immediately before running:
   a cancelled batch still returns one result per input (Error
   Cancelled in the slots that never ran), so callers can tell shed
   work from finished work deterministically. *)
let run_one cancel f x =
  if Cancel.cancelled cancel then Error Cancelled
  else try Ok (f x) with e -> Error e

let sequential_try cancel f a = Array.map (run_one cancel f) a

let try_map_array ?(cancel = Cancel.none) t f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    Telemetry.add t.tasks n;
    (* Fan-out width per batch, observed on the submitting domain: the
       trace analyzer joins a parent span's cross-domain children
       through the batch boundary, and this histogram is its view of
       how wide those boundaries are.  Deterministic — batches are
       submitted in program order regardless of scheduling. *)
    Telemetry.observe_into t.batch_size (float_of_int n);
    if t.size = 1 || n = 1 then begin
      Telemetry.add t.domain_tasks.(0) n;
      sequential_try cancel f a
    end
    else begin
      (* Results land by input index, so ordering is independent of
         scheduling.  [pending] and [results] are only touched under the
         pool mutex; the submitting domain helps drain the queue (which
         also makes nested submissions from inside tasks deadlock-free)
         and sleeps on [finished] only when all its tasks are already
         running elsewhere. *)
      let results = Array.make n None in
      let pending = ref n in
      let finished = Condition.create () in
      let task i () =
        let r = run_one cancel f a.(i) in
        Mutex.protect t.mutex (fun () ->
            results.(i) <- Some r;
            decr pending;
            if !pending = 0 then Condition.broadcast finished)
      in
      Mutex.lock t.mutex;
      for i = 0 to n - 1 do
        Queue.push (task i) t.queue
      done;
      let depth = Queue.length t.queue in
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      (* High-water mark of the queue, taken outside the pool mutex:
         lock order is pool mutex before telemetry lock, never both. *)
      Telemetry.gauge_max t.telemetry g_queue_depth (float_of_int depth);
      Mutex.lock t.mutex;
      while !pending > 0 do
        match Queue.take_opt t.queue with
        | Some job ->
            Mutex.unlock t.mutex;
            Telemetry.add t.domain_tasks.(0) 1;
            job ();
            Mutex.lock t.mutex
        | None -> Condition.wait finished t.mutex
      done;
      Mutex.unlock t.mutex;
      Array.map (function Some r -> r | None -> assert false) results
    end
  end

let map_array ?cancel t f a =
  let results = try_map_array ?cancel t f a in
  Array.iter (function Error e -> raise e | Ok _ -> ()) results;
  Array.map (function Ok v -> v | Error _ -> assert false) results

let map ?cancel t f xs =
  Array.to_list (map_array ?cancel t f (Array.of_list xs))

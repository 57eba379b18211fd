module Heap = Harmony_des.Heap
module Sim = Harmony_des.Sim
module Resource = Harmony_des.Resource
module Rng = Harmony_numerics.Rng

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)

(* Remove and return the smallest key with its payload. *)
let pop h =
  if Heap.is_empty h then None
  else
    let key = Heap.min_key h in
    Some (key, Heap.pop_payload h)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let out = ref [] in
  let rec drain () =
    match pop h with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h 1.0 1;
  Heap.push h 1.0 2;
  Heap.push h 1.0 3;
  let next () = match pop h with Some (_, v) -> v | None -> -1 in
  let first = next () in
  let second = next () in
  let third = next () in
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3 ]
    [ first; second; third ]

let test_heap_peek () =
  let h = Heap.create () in
  Alcotest.check_raises "empty peek" (Invalid_argument "Heap.min_key: empty heap")
    (fun () -> ignore (Heap.min_key h));
  Heap.push h 2.0 20;
  Heap.push h 1.0 10;
  Alcotest.(check (float 1e-12)) "key" 1.0 (Heap.min_key h);
  Alcotest.(check int) "value" 10 (Heap.pop_payload h);
  Alcotest.(check int) "peek does not pop" 20 (Heap.pop_payload h)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 0;
  Heap.clear h;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_pop_payload () =
  let h = Heap.create () in
  Heap.push h 3.0 30;
  Heap.push h 1.0 10;
  Heap.push h 2.0 20;
  Alcotest.(check int) "first" 10 (Heap.pop_payload h);
  Alcotest.(check int) "second" 20 (Heap.pop_payload h);
  Alcotest.(check int) "third" 30 (Heap.pop_payload h);
  Alcotest.check_raises "empty" (Invalid_argument "Heap.pop_payload: empty heap")
    (fun () -> ignore (Heap.pop_payload h))

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap drains keys in order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 100) (float_range (-1e3) 1e3))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let rec drain acc =
        match pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare keys)

(* Differential reference for the flat heap: a sorted association
   list ordered by (key, insertion sequence) — the semantics of the
   previous boxed-entry heap.  Interleaved pushes and pops must
   dequeue identical (key, payload) sequences. *)
module Ref_heap = struct
  type t = { mutable entries : (float * int * int) list; mutable next_seq : int }

  let create () = { entries = []; next_seq = 0 }

  let push t key value =
    let rec insert = function
      | [] -> [ (key, t.next_seq, value) ]
      | (k, s, v) :: rest when k < key || (Float.equal k key && s < t.next_seq)
        ->
          (k, s, v) :: insert rest
      | rest -> (key, t.next_seq, value) :: rest
    in
    t.entries <- insert t.entries;
    t.next_seq <- t.next_seq + 1

  let pop t =
    match t.entries with
    | [] -> None
    | (k, _, v) :: rest ->
        t.entries <- rest;
        Some (k, v)
end

let prop_heap_matches_reference =
  (* Operation stream: [Some key] pushes (payload = op index), [None]
     pops from both and compares. *)
  QCheck2.Test.make ~name:"flat heap dequeues like the reference" ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 200) (option (float_range 0.0 10.0)))
    (fun ops ->
      let h = Heap.create () in
      let r = Ref_heap.create () in
      let ok = ref true in
      List.iteri
        (fun i op ->
          match op with
          | Some key ->
              Heap.push h key i;
              Ref_heap.push r key i
          | None ->
              let a = pop h in
              let b = Ref_heap.pop r in
              if a <> b then ok := false)
        ops;
      (* Drain the rest. *)
      let rec drain () =
        match (pop h, Ref_heap.pop r) with
        | None, None -> ()
        | a, b ->
            if a <> b then ok := false
            else drain ()
      in
      drain ();
      !ok)

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)

let test_sim_fires_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:2.0 (fun _ -> log := "b" :: !log);
  Sim.schedule sim ~delay:1.0 (fun _ -> log := "a" :: !log);
  Sim.schedule sim ~delay:3.0 (fun _ -> log := "c" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-12)) "clock at last event" 3.0 (Sim.now sim)

let test_sim_handlers_can_schedule () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick s =
    incr count;
    if !count < 5 then Sim.schedule s ~delay:1.0 tick
  in
  Sim.schedule sim ~delay:1.0 tick;
  Sim.run sim;
  Alcotest.(check int) "chain of events" 5 !count;
  Alcotest.(check (float 1e-12)) "clock" 5.0 (Sim.now sim)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(float_of_int i) (fun _ -> incr fired)
  done;
  Sim.run ~until:4.5 sim;
  Alcotest.(check int) "only early events" 4 !fired;
  Alcotest.(check (float 1e-12)) "clock parked at horizon" 4.5 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "rest still queued" 10 !fired

let test_sim_negative_delay () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Sim.schedule: negative delay")
    (fun () -> Sim.schedule sim ~delay:(-1.0) (fun _ -> ()))

let test_sim_schedule_past () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:5.0 (fun _ -> ());
  Sim.run sim;
  Alcotest.check_raises "past" (Invalid_argument "Sim.schedule_at: time in the past")
    (fun () -> Sim.schedule_at sim ~time:1.0 (fun _ -> ()))

let test_sim_step () =
  let sim = Sim.create () in
  Sim.run sim;
  Alcotest.(check (float 1e-12)) "empty run" 0.0 (Sim.now sim);
  let fired = ref 0 in
  Sim.schedule sim ~delay:1.0 (fun _ -> incr fired);
  Sim.run sim;
  Alcotest.(check int) "one event" 1 !fired;
  Sim.run sim;
  Alcotest.(check int) "drained" 1 !fired

(* ------------------------------------------------------------------ *)
(* Resource                                                            *)

let test_resource_serves_within_capacity () =
  let sim = Sim.create () in
  let r = Resource.create ~capacity:2 () in
  let done_count = ref 0 in
  for _ = 1 to 2 do
    Resource.submit sim r ~service_time:1.0
      ~on_complete:(fun _ -> incr done_count)
      ~on_reject:(fun _ -> Alcotest.fail "unexpected rejection")
  done;
  Sim.run sim;
  Alcotest.(check int) "both completed" 2 !done_count;
  Alcotest.(check (float 1e-12)) "both in service at once" 1.0 (Sim.now sim)

let test_resource_queues_fifo () =
  let sim = Sim.create () in
  let r = Resource.create ~capacity:1 () in
  let order = ref [] in
  let submit name service_time =
    Resource.submit sim r ~service_time
      ~on_complete:(fun _ -> order := name :: !order)
      ~on_reject:(fun _ -> ())
  in
  submit "first" 5.0;
  submit "second" 1.0;
  submit "third" 1.0;
  Sim.run sim;
  Alcotest.(check (list string)) "FIFO" [ "first"; "second"; "third" ] (List.rev !order)

let test_resource_rejects_when_full () =
  let sim = Sim.create () in
  let r = Resource.create ~capacity:1 ~queue_limit:1 () in
  let rejected = ref 0 and completed = ref 0 in
  for _ = 1 to 3 do
    Resource.submit sim r ~service_time:1.0
      ~on_complete:(fun _ -> incr completed)
      ~on_reject:(fun _ -> incr rejected)
  done;
  (* 1 in service, 1 queued, 1 rejected. *)
  Alcotest.(check int) "one rejection" 1 !rejected;
  Sim.run sim;
  Alcotest.(check int) "two served" 2 !completed

let test_resource_zero_queue () =
  let sim = Sim.create () in
  let r = Resource.create ~capacity:1 ~queue_limit:0 () in
  let rejected = ref 0 in
  Resource.submit sim r ~service_time:1.0 ~on_complete:(fun _ -> ()) ~on_reject:(fun _ -> ());
  Resource.submit sim r ~service_time:1.0 ~on_complete:(fun _ -> ()) ~on_reject:(fun _ -> incr rejected);
  Alcotest.(check int) "no waiting room" 1 !rejected

let test_resource_utilization () =
  let sim = Sim.create () in
  let r = Resource.create ~capacity:1 () in
  Resource.submit sim r ~service_time:4.0 ~on_complete:(fun _ -> ()) ~on_reject:(fun _ -> ());
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "busy integral" 4.0 (Resource.utilization_time r)

let test_resource_invalid () =
  Alcotest.check_raises "capacity" (Invalid_argument "Resource.create: capacity < 1")
    (fun () -> ignore (Resource.create ~capacity:0 ()));
  Alcotest.check_raises "queue" (Invalid_argument "Resource.create: negative queue_limit")
    (fun () -> ignore (Resource.create ~capacity:1 ~queue_limit:(-1) ()))

(* Little's-law style check: an M/M/1 queue's simulated throughput
   matches the offered rate when utilization < 1. *)
let test_mm1_throughput () =
  let sim = Sim.create () in
  let rng = Rng.create 4 in
  let r = Resource.create ~capacity:1 () in
  let completed = ref 0 in
  let horizon = 50_000.0 in
  let rec arrive s =
    Resource.submit s r
      ~service_time:(Rng.exponential rng 0.5)
      ~on_complete:(fun _ -> incr completed)
      ~on_reject:(fun _ -> ());
    if Sim.now s < horizon then Sim.schedule s ~delay:(Rng.exponential rng 1.0) arrive
  in
  Sim.schedule sim ~delay:0.0 arrive;
  Sim.run sim;
  let rate = float_of_int !completed /. Sim.now sim in
  Alcotest.(check bool) "throughput ~= arrival rate" true (Float.abs (rate -. 1.0) < 0.05)

(* Property: events always fire in nondecreasing time order, whatever
   the scheduling pattern. *)
let prop_sim_monotonic_time =
  QCheck2.Test.make ~name:"events fire in time order" ~count:100
    QCheck2.Gen.(list_size (int_range 1 50) (float_range 0.0 100.0))
    (fun delays ->
      let sim = Sim.create () in
      let times = ref [] in
      List.iter
        (fun d -> Sim.schedule sim ~delay:d (fun s -> times := Sim.now s :: !times))
        delays;
      Sim.run sim;
      let fired = List.rev !times in
      List.for_all2 ( <= ) (List.filteri (fun i _ -> i < List.length fired - 1) fired)
        (List.tl fired))

(* Property: resource accounting conserves requests. *)
let prop_resource_conserves =
  QCheck2.Test.make ~name:"resource conserves requests" ~count:100
    QCheck2.Gen.(
      pair (int_range 1 4)
        (list_size (int_range 1 60) (float_range 0.1 5.0)))
    (fun (capacity, services) ->
      let sim = Sim.create () in
      let r = Resource.create ~capacity ~queue_limit:2 () in
      let rejected = ref 0 and completed = ref 0 in
      List.iter
        (fun service_time ->
          Resource.submit sim r ~service_time
            ~on_complete:(fun _ -> incr completed)
            ~on_reject:(fun _ -> incr rejected))
        services;
      Sim.run sim;
      !completed + !rejected = List.length services)

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap peek" `Quick test_heap_peek;
    Alcotest.test_case "heap clear" `Quick test_heap_clear;
    Alcotest.test_case "sim fires in order" `Quick test_sim_fires_in_order;
    Alcotest.test_case "sim handlers schedule" `Quick test_sim_handlers_can_schedule;
    Alcotest.test_case "sim until" `Quick test_sim_until;
    Alcotest.test_case "sim negative delay" `Quick test_sim_negative_delay;
    Alcotest.test_case "sim schedule past" `Quick test_sim_schedule_past;
    Alcotest.test_case "sim step" `Quick test_sim_step;
    Alcotest.test_case "resource capacity" `Quick test_resource_serves_within_capacity;
    Alcotest.test_case "resource fifo" `Quick test_resource_queues_fifo;
    Alcotest.test_case "resource rejects" `Quick test_resource_rejects_when_full;
    Alcotest.test_case "resource zero queue" `Quick test_resource_zero_queue;
    Alcotest.test_case "resource utilization" `Quick test_resource_utilization;
    Alcotest.test_case "resource invalid" `Quick test_resource_invalid;
    Alcotest.test_case "mm1 throughput" `Slow test_mm1_throughput;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_heap_sorts; prop_sim_monotonic_time; prop_resource_conserves ]

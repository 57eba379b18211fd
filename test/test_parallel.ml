module Pool = Harmony_parallel.Pool
module Registry = Harmony_experiments.Registry
module Report = Harmony_experiments.Report

exception Boom of int

let test_create_invalid () =
  Alcotest.check_raises "domains < 1" (Invalid_argument "Pool.create: domains < 1")
    (fun () -> Pool.with_pool ~domains:0 ignore)

let test_size_one_matches_list_map () =
  Pool.with_pool ~domains:1 (fun pool ->
      let xs = List.init 50 Fun.id in
      Alcotest.(check (list int))
        "same as List.map" (List.map succ xs) (Pool.map pool succ xs))

let test_ordering_matches_input () =
  (* Uneven task costs shuffle the completion order; results must
     still come back in input order. *)
  Pool.with_pool ~domains:4 (fun pool ->
      let n = 64 in
      let f i =
        let spin = (n - i) * 500 in
        let acc = ref 0 in
        for k = 1 to spin do acc := !acc + k done;
        ignore !acc;
        i * i
      in
      let got = Pool.map_array pool f (Array.init n Fun.id) in
      Alcotest.(check (array int)) "input order" (Array.init n (fun i -> i * i)) got)

let test_exception_keeps_others () =
  Pool.with_pool ~domains:4 (fun pool ->
      let f i = if i = 3 then raise (Boom i) else i * 10 in
      let results = Pool.try_map_array pool f (Array.init 8 Fun.id) in
      Alcotest.(check int) "all slots filled" 8 (Array.length results);
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) "survivor" (i * 10) v
          | Error (Boom 3) -> Alcotest.(check int) "failure slot" 3 i
          | Error e -> raise e)
        results)

let test_map_reraises_first_by_index () =
  Pool.with_pool ~domains:4 (fun pool ->
      let f i = if i >= 5 then raise (Boom i) else i in
      match Pool.map pool f (List.init 10 Fun.id) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "first failing index" 5 i)

let test_nested_map () =
  (* A task may fan out on the same pool (the registry does this when
     an experiment runs a pooled sensitivity analysis). *)
  Pool.with_pool ~domains:3 (fun pool ->
      let inner i = Pool.map pool (fun j -> i + j) [ 1; 2; 3 ] in
      let got = Pool.map pool inner [ 10; 20; 30 ] in
      Alcotest.(check (list (list int)))
        "nested results"
        [ [ 11; 12; 13 ]; [ 21; 22; 23 ]; [ 31; 32; 33 ] ]
        got)

let test_empty_input () =
  Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map_array pool succ [||]))

let test_shutdown_idempotent_and_degrades () =
  let pool = Pool.with_pool ~domains:3 Fun.id in
  (* After shutdown the submitting domain runs everything itself. *)
  Alcotest.(check (list int)) "still completes" [ 2; 3 ] (Pool.map pool succ [ 1; 2 ])

let test_registry_determinism () =
  (* The acceptance bar: `experiment all --jobs 1` and `--jobs 4`
     emit byte-identical tables. *)
  let sequential = Registry.tables () in
  let parallel =
    Pool.with_pool ~domains:4 (fun pool -> Registry.tables ~pool ())
  in
  Alcotest.(check int) "same count" (List.length sequential) (List.length parallel);
  List.iter2
    (fun (id_s, table_s) (id_p, table_p) ->
      Alcotest.(check string) "paper order" id_s id_p;
      Alcotest.(check string)
        ("table " ^ id_s ^ " byte-identical")
        (Format.asprintf "%a" Report.print table_s) (Format.asprintf "%a" Report.print table_p))
    sequential parallel

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation                                            *)

let count_cancelled results =
  Array.fold_left
    (fun n -> function Error Pool.Cancelled -> n + 1 | Error _ | Ok _ -> n)
    0 results

let test_cancel_before_submit () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let cancel = Pool.Cancel.create () in
          Pool.Cancel.cancel cancel;
          let results =
            Pool.try_map_array ~cancel pool succ (Array.init 20 Fun.id)
          in
          Alcotest.(check int)
            (Printf.sprintf "all slots shed at %d domains" domains)
            20 (count_cancelled results)))
    [ 1; 4 ]

let test_cancel_none_is_inert () =
  Pool.with_pool ~domains:2 (fun pool ->
      (* Cancelling the shared [none] token must not affect anyone. *)
      Pool.Cancel.cancel Pool.Cancel.none;
      Alcotest.(check bool) "none never reads cancelled" false
        (Pool.Cancel.cancelled Pool.Cancel.none);
      let results =
        Pool.try_map_array ~cancel:Pool.Cancel.none pool succ
          (Array.init 10 Fun.id)
      in
      Alcotest.(check int) "nothing shed" 0 (count_cancelled results))

let test_cancel_mid_run_sequential () =
  (* At one domain the pool runs tasks in input order in the caller, so
     a task that fires the token makes every later slot shed
     deterministically. *)
  Pool.with_pool ~domains:1 (fun pool ->
      let cancel = Pool.Cancel.create () in
      let f i =
        if i = 2 then Pool.Cancel.cancel cancel;
        i * 10
      in
      let results = Pool.try_map_array ~cancel pool f (Array.init 6 Fun.id) in
      Array.iteri
        (fun i r ->
          if i <= 2 then
            Alcotest.(check bool)
              (Printf.sprintf "slot %d ran" i)
              true
              (match r with Ok v -> v = i * 10 | Error _ -> false)
          else
            Alcotest.(check bool)
              (Printf.sprintf "slot %d shed" i)
              true
              (match r with Error Pool.Cancelled -> true | _ -> false))
        results)

let test_cancel_raises_through_map () =
  Pool.with_pool ~domains:2 (fun pool ->
      let cancel = Pool.Cancel.create () in
      Pool.Cancel.cancel cancel;
      Alcotest.check_raises "map_array re-raises Cancelled" Pool.Cancelled
        (fun () ->
          ignore (Pool.map_array ~cancel pool succ (Array.init 5 Fun.id))))

let suite =
  [
    Alcotest.test_case "create invalid" `Quick test_create_invalid;
    Alcotest.test_case "size 1 = List.map" `Quick test_size_one_matches_list_map;
    Alcotest.test_case "ordering matches input" `Quick test_ordering_matches_input;
    Alcotest.test_case "exception keeps others" `Quick test_exception_keeps_others;
    Alcotest.test_case "map re-raises first" `Quick test_map_reraises_first_by_index;
    Alcotest.test_case "nested map" `Quick test_nested_map;
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent_and_degrades;
    Alcotest.test_case "cancel before submit" `Quick test_cancel_before_submit;
    Alcotest.test_case "cancel none is inert" `Quick test_cancel_none_is_inert;
    Alcotest.test_case "cancel mid-run sequential" `Quick
      test_cancel_mid_run_sequential;
    Alcotest.test_case "cancel raises through map" `Quick
      test_cancel_raises_through_map;
    Alcotest.test_case "registry determinism jobs 1 = jobs 4" `Slow
      test_registry_determinism;
  ]

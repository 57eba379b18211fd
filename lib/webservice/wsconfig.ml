open Harmony_param

type t = {
  ajp_accept_count : int;
  ajp_max_processors : int;
  http_buffer_kb : int;
  http_accept_count : int;
  mysql_max_connections : int;
  mysql_delayed_queue : int;
  mysql_net_buffer_kb : int;
  proxy_max_object_kb : int;
  proxy_min_object_kb : int;
  proxy_cache_mem_mb : int;
}

let param_names =
  [|
    "AJPAcceptCount"; "AJPMaxProcessors"; "HTTPBufferSize"; "HTTPAcceptCount";
    "MYSQLMaxConnections"; "MYSQLDelayedQueue"; "MYSQLNetBuffer";
    "PROXYMaxObjectInMemory"; "PROXYMinObject"; "PROXYCacheMem";
  |]

let space =
  Space.create
    [
      Param.int_range ~name:"AJPAcceptCount" ~lo:8 ~hi:512 ~step:8 ~default:64 ();
      Param.int_range ~name:"AJPMaxProcessors" ~lo:2 ~hi:128 ~step:2 ~default:24 ();
      Param.int_range ~name:"HTTPBufferSize" ~lo:1 ~hi:128 ~step:1 ~default:8 ();
      Param.int_range ~name:"HTTPAcceptCount" ~lo:8 ~hi:512 ~step:8 ~default:64 ();
      Param.int_range ~name:"MYSQLMaxConnections" ~lo:2 ~hi:128 ~step:2 ~default:32 ();
      Param.int_range ~name:"MYSQLDelayedQueue" ~lo:100 ~hi:10000 ~step:100
        ~default:1000 ();
      Param.int_range ~name:"MYSQLNetBuffer" ~lo:1 ~hi:128 ~step:1 ~default:8 ();
      Param.int_range ~name:"PROXYMaxObjectInMemory" ~lo:8 ~hi:1024 ~step:8
        ~default:64 ();
      Param.int_range ~name:"PROXYMinObject" ~lo:0 ~hi:64 ~step:1 ~default:0 ();
      Param.int_range ~name:"PROXYCacheMem" ~lo:8 ~hi:512 ~step:8 ~default:64 ();
    ]

let default =
  {
    ajp_accept_count = 64;
    ajp_max_processors = 24;
    http_buffer_kb = 8;
    http_accept_count = 64;
    mysql_max_connections = 32;
    mysql_delayed_queue = 1000;
    mysql_net_buffer_kb = 8;
    proxy_max_object_kb = 64;
    proxy_min_object_kb = 0;
    proxy_cache_mem_mb = 64;
  }

(* Coordinate [i] of [c], snapped onto its parameter's grid. *)
let snapped c i = int_of_float (Param.snap (Space.param space i) c.(i))

let of_config c =
  if Array.length c <> Space.dims space then
    invalid_arg "Wsconfig.of_config: arity mismatch";
  {
    ajp_accept_count = snapped c 0;
    ajp_max_processors = snapped c 1;
    http_buffer_kb = snapped c 2;
    http_accept_count = snapped c 3;
    mysql_max_connections = snapped c 4;
    mysql_delayed_queue = snapped c 5;
    mysql_net_buffer_kb = snapped c 6;
    proxy_max_object_kb = snapped c 7;
    proxy_min_object_kb = snapped c 8;
    proxy_cache_mem_mb = snapped c 9;
  }

let to_config t =
  [|
    float_of_int t.ajp_accept_count;
    float_of_int t.ajp_max_processors;
    float_of_int t.http_buffer_kb;
    float_of_int t.http_accept_count;
    float_of_int t.mysql_max_connections;
    float_of_int t.mysql_delayed_queue;
    float_of_int t.mysql_net_buffer_kb;
    float_of_int t.proxy_max_object_kb;
    float_of_int t.proxy_min_object_kb;
    float_of_int t.proxy_cache_mem_mb;
  |]

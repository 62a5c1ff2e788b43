(* Worker threads, nested RPCs and the request handle's lifetime (paper
   §3.1-3.2). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let short_req = 1
let long_req = 2
let front_req = 3

let run fabric ms =
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms ms))

let connect fabric client ~remote_host =
  let sess = Erpc.Rpc.create_session client ~remote_host ~remote_rpc_id:0 () in
  run fabric 1.0;
  sess

(* A worker-mode handler burning 100 us must not block dispatch-mode
   handlers on the same Rpc (§3.2). *)
let test_long_handler_does_not_block_dispatch () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 ~num_workers:1 () in
  Erpc.Nexus.register_handler nx1 ~req_type:short_req ~mode:Erpc.Nexus.Dispatch (fun h ->
      Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:4));
  Erpc.Nexus.register_handler nx1 ~req_type:long_req ~mode:Erpc.Nexus.Worker (fun h ->
      Erpc.Req_handle.charge h 100_000;
      Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:4));
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = connect fabric client ~remote_host:1 in
  let order = ref [] in
  let issue req_type tag =
    let req = Erpc.Msgbuf.alloc ~max_size:4 in
    let resp = Erpc.Msgbuf.alloc ~max_size:4 in
    Erpc.Rpc.enqueue_request client sess ~req_type ~req ~resp ~cont:(fun _ ->
        order := tag :: !order)
  in
  issue long_req `Long;
  issue short_req `Short;
  run fabric 10.0;
  Alcotest.(check bool) "short overtakes long worker RPC" true
    (List.rev !order = [ `Short; `Long ])

(* Worker-mode handler latency includes the two-way dispatch<->worker
   handoff (~400 ns, §3.2). *)
let test_worker_handoff_adds_latency () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 ~num_workers:1 () in
  (* Same zero-cost handler registered in both modes. *)
  Erpc.Nexus.register_handler nx1 ~req_type:short_req ~mode:Erpc.Nexus.Dispatch (fun h ->
      Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:4));
  Erpc.Nexus.register_handler nx1 ~req_type:long_req ~mode:Erpc.Nexus.Worker (fun h ->
      Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:4));
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = connect fabric client ~remote_host:1 in
  let engine = Erpc.Fabric.engine fabric in
  let measure req_type =
    let req = Erpc.Msgbuf.alloc ~max_size:4 in
    let resp = Erpc.Msgbuf.alloc ~max_size:4 in
    let t0 = Sim.Engine.now engine in
    let dt = ref 0 in
    Erpc.Rpc.enqueue_request client sess ~req_type ~req ~resp ~cont:(fun _ ->
        dt := Sim.Time.sub (Sim.Engine.now engine) t0);
    run fabric 5.0;
    !dt
  in
  let dispatch_lat = measure short_req in
  let worker_lat = measure long_req in
  check_bool
    (Printf.sprintf "worker latency %d > dispatch latency %d + 150ns" worker_lat dispatch_lat)
    true
    (worker_lat > dispatch_lat + 150)

(* Jobs on one worker are serialized; two workers run in parallel. *)
let test_worker_parallelism () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 ~num_workers:2 () in
  Erpc.Nexus.register_handler nx1 ~req_type:long_req ~mode:Erpc.Nexus.Worker (fun h ->
      Erpc.Req_handle.charge h 1_000_000 (* 1 ms *);
      Erpc.Req_handle.enqueue_response h (Erpc.Req_handle.init_response h ~size:4));
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = connect fabric client ~remote_host:1 in
  let engine = Erpc.Fabric.engine fabric in
  let t0 = Sim.Engine.now engine in
  let finished = ref 0 in
  let finish_time = ref 0 in
  for _ = 1 to 2 do
    let req = Erpc.Msgbuf.alloc ~max_size:4 in
    let resp = Erpc.Msgbuf.alloc ~max_size:4 in
    Erpc.Rpc.enqueue_request client sess ~req_type:long_req ~req ~resp ~cont:(fun _ ->
        incr finished;
        finish_time := Sim.Time.sub (Sim.Engine.now engine) t0)
  done;
  run fabric 20.0;
  check_int "both done" 2 !finished;
  (* Two 1 ms jobs on two workers: ~1 ms total, not ~2 ms. *)
  check_bool (Printf.sprintf "parallel (total %d ns)" !finish_time) true (!finish_time < 1_800_000)

(* Nested RPCs: a dispatch handler on host 1 issues its own RPC to host 2
   before responding (§3.1: the handler "need not enqueue a response
   before returning"). *)
let test_nested_rpc () =
  let cluster = Transport.Cluster.cx5 ~nodes:3 () in
  let fabric = Erpc.Fabric.create cluster in
  let nexuses = Array.init 3 (fun host -> Erpc.Nexus.create fabric ~host ()) in
  (* Backend on host 2. *)
  Erpc.Nexus.register_handler nexuses.(2) ~req_type:short_req ~mode:Erpc.Nexus.Dispatch
    (fun h ->
      let resp = Erpc.Req_handle.init_response h ~size:4 in
      Erpc.Msgbuf.set_u32 resp ~off:0 41;
      Erpc.Req_handle.enqueue_response h resp);
  let rpcs = Array.map (fun nx -> Erpc.Rpc.create nx ~rpc_id:0) nexuses in
  (* Frontend on host 1 forwards to the backend, adds one, then responds. *)
  let backend_sess = ref None in
  Erpc.Nexus.register_handler nexuses.(1) ~req_type:front_req ~mode:Erpc.Nexus.Dispatch
    (fun h ->
      let nested_req = Erpc.Msgbuf.alloc ~max_size:4 in
      let nested_resp = Erpc.Msgbuf.alloc ~max_size:4 in
      match !backend_sess with
      | None -> Alcotest.fail "backend session missing"
      | Some sess ->
          Erpc.Rpc.enqueue_request rpcs.(1) sess ~req_type:short_req ~req:nested_req
            ~resp:nested_resp
            ~cont:(fun _ ->
              let resp = Erpc.Req_handle.init_response h ~size:4 in
              Erpc.Msgbuf.set_u32 resp ~off:0 (Erpc.Msgbuf.get_u32 nested_resp ~off:0 + 1);
              Erpc.Req_handle.enqueue_response h resp));
  backend_sess := Some (Erpc.Rpc.create_session rpcs.(1) ~remote_host:2 ~remote_rpc_id:0 ());
  let sess = Erpc.Rpc.create_session rpcs.(0) ~remote_host:1 ~remote_rpc_id:0 () in
  run fabric 1.0;
  let req = Erpc.Msgbuf.alloc ~max_size:4 in
  let resp = Erpc.Msgbuf.alloc ~max_size:4 in
  let answer = ref 0 in
  Erpc.Rpc.enqueue_request rpcs.(0) sess ~req_type:front_req ~req ~resp ~cont:(fun _ ->
      answer := Erpc.Msgbuf.get_u32 resp ~off:0);
  run fabric 10.0;
  check_int "nested chain answered" 42 !answer

(* {2 Request-handle lifetime}

   Each server slot owns one handle, rebound to every request on the slot.
   The tests below drive one client slot (each request is issued after
   the previous one completes), so every request lands on server slot 0. *)

type pair = {
  fabric : Erpc.Fabric.t;
  nx : Erpc.Nexus.t;  (** the server's *)
  client : Erpc.Rpc.t;
  server : Erpc.Rpc.t;
  sess : Erpc.Session.session;
}

let pair () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx = Erpc.Nexus.create fabric ~host:1 ~num_workers:1 () in
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let server = Erpc.Rpc.create nx ~rpc_id:0 in
  let sess = connect fabric client ~remote_host:1 in
  { fabric; nx; client; server; sess }

(* Issue [req_type] carrying [v]; [got] receives the response's first word,
   or -1 on error. *)
let issue p ~req_type v got =
  let req = Erpc.Msgbuf.alloc ~max_size:4 in
  let resp = Erpc.Msgbuf.alloc ~max_size:4 in
  Erpc.Msgbuf.set_u32 req ~off:0 v;
  Erpc.Rpc.enqueue_request p.client p.sess ~req_type ~req ~resp ~cont:(function
    | Ok () -> got := Erpc.Msgbuf.get_u32 resp ~off:0
    | Error _ -> got := -1)

let respond_u32 h v =
  let resp = Erpc.Req_handle.init_response h ~size:4 in
  Erpc.Msgbuf.set_u32 resp ~off:0 v;
  Erpc.Req_handle.enqueue_response h resp

let invalid_arg_message f =
  match f () with () -> None | exception Invalid_argument m -> Some m

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A second [enqueue_response] on one request raises; the client sees the
   first response only. *)
let test_handle_double_response () =
  let p = pair () in
  let second = ref None in
  Erpc.Nexus.register_handler p.nx ~req_type:short_req ~mode:Erpc.Nexus.Dispatch (fun h ->
      respond_u32 h 7;
      second :=
        invalid_arg_message (fun () ->
            Erpc.Req_handle.enqueue_response h (Erpc.Msgbuf.alloc ~max_size:4)));
  let got = ref 0 in
  issue p ~req_type:short_req 0 got;
  run p.fabric 1.0;
  check_int "first response delivered" 7 !got;
  match !second with
  | Some m -> check_bool ("already responded: " ^ m) true (contains ~sub:"already responded" m)
  | None -> Alcotest.fail "second enqueue_response did not raise"

(* A handle kept past its response must not answer the slot's next
   request. Request 2 has no registered handler, so the slot moves on to it
   but no handler rebinds the handle: responding through the kept handle
   raises, and request 2 gets no response. *)
let test_handle_stale_after_slot_moves_on () =
  let p = pair () in
  let kept = ref None in
  Erpc.Nexus.register_handler p.nx ~req_type:short_req ~mode:Erpc.Nexus.Dispatch (fun h ->
      kept := Some h;
      respond_u32 h 1);
  let got1 = ref 0 and got2 = ref 0 in
  issue p ~req_type:short_req 0 got1;
  run p.fabric 1.0;
  check_int "request 1 answered" 1 !got1;
  let unregistered = 99 in
  issue p ~req_type:unregistered 0 got2;
  run p.fabric 0.1;
  let h = Option.get !kept in
  (match invalid_arg_message (fun () -> respond_u32 h 2) with
  | Some m -> check_bool ("stale handle: " ^ m) true (contains ~sub:"stale handle" m)
  | None -> Alcotest.fail "stale handle responded");
  run p.fabric 1.0;
  check_int "request 2 got no response from the stale handle" 0 !got2

(* A deferred response: the handler keeps its handle across events, as
   [Replica] does with a pending PUT, and responds 20 us later. The
   reused handle then serves the slot's next request the same way. *)
let test_handle_deferred_response () =
  let p = pair () in
  let engine = Erpc.Fabric.engine p.fabric in
  let handles = ref [] in
  Erpc.Nexus.register_handler p.nx ~req_type:short_req ~mode:Erpc.Nexus.Dispatch (fun h ->
      handles := h :: !handles;
      (* Read the request now: a zero-copy request view is valid only
         while the handler runs. *)
      let v = Erpc.Msgbuf.get_u32 (Erpc.Req_handle.get_request h) ~off:0 in
      Sim.Engine.schedule_after engine 20_000 (fun () -> respond_u32 h (v + 1)));
  let got = ref 0 in
  issue p ~req_type:short_req 41 got;
  run p.fabric 0.015;
  check_int "no response before the handler responds" 0 !got;
  run p.fabric 1.0;
  check_int "deferred response delivered" 42 !got;
  let got2 = ref 0 in
  issue p ~req_type:short_req 99 got2;
  run p.fabric 1.0;
  check_int "next request on the slot" 100 !got2;
  match !handles with
  | [ h2; h1 ] -> check_bool "one handle per slot, reused" true (h1 == h2)
  | _ -> Alcotest.fail "expected two handler invocations"

(* Worker, Dispatch, Worker on one server slot: each handler's charge lands
   on its own thread's timeline, and the mode of one request does not leak
   into the next through the reused handle. *)
let test_worker_dispatch_same_slot () =
  let p = pair () in
  let worker_ns = 700_000 and dispatch_ns = 300_000 in
  let handles = ref [] in
  Erpc.Nexus.register_handler p.nx ~req_type:long_req ~mode:Erpc.Nexus.Worker (fun h ->
      handles := h :: !handles;
      Erpc.Req_handle.charge h worker_ns;
      respond_u32 h 1);
  Erpc.Nexus.register_handler p.nx ~req_type:short_req ~mode:Erpc.Nexus.Dispatch (fun h ->
      handles := h :: !handles;
      Erpc.Req_handle.charge h dispatch_ns;
      respond_u32 h 2);
  let wcpu = Erpc.Nexus.worker_cpu p.nx 0 and dcpu = Erpc.Rpc.cpu p.server in
  (* Busy time each timeline gains while one request runs to completion. *)
  let busy_deltas req_type want =
    let w0 = Sim.Cpu.busy_ns wcpu and d0 = Sim.Cpu.busy_ns dcpu in
    let got = ref 0 in
    issue p ~req_type 0 got;
    run p.fabric 5.0;
    check_int "response" want !got;
    (Sim.Cpu.busy_ns wcpu - w0, Sim.Cpu.busy_ns dcpu - d0)
  in
  let check_worker_request () =
    let w, d = busy_deltas long_req 1 in
    check_bool (Printf.sprintf "worker request charges the worker (%d ns)" w) true
      (w >= worker_ns / 2);
    check_bool (Printf.sprintf "and not dispatch (%d ns)" d) true (d < worker_ns / 10)
  in
  check_worker_request ();
  let w, d = busy_deltas short_req 2 in
  check_int "dispatch request leaves the worker idle" 0 w;
  check_bool (Printf.sprintf "dispatch request charges dispatch (%d ns)" d) true
    (d >= dispatch_ns / 2);
  check_worker_request ();
  match !handles with
  | [ h3; h2; h1 ] -> check_bool "one slot, one handle" true (h1 == h2 && h2 == h3)
  | _ -> Alcotest.fail "expected three handler invocations"

let suite =
  [
    Alcotest.test_case "worker does not block dispatch" `Quick
      test_long_handler_does_not_block_dispatch;
    Alcotest.test_case "worker handoff latency" `Quick test_worker_handoff_adds_latency;
    Alcotest.test_case "worker parallelism" `Quick test_worker_parallelism;
    Alcotest.test_case "nested RPC" `Quick test_nested_rpc;
    Alcotest.test_case "handle: double response raises" `Quick test_handle_double_response;
    Alcotest.test_case "handle: stale after slot moves on" `Quick
      test_handle_stale_after_slot_moves_on;
    Alcotest.test_case "handle: deferred response" `Quick test_handle_deferred_response;
    Alcotest.test_case "worker then dispatch on one slot" `Quick test_worker_dispatch_same_slot;
  ]

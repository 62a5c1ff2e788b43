type deployment = {
  fabric : Erpc.Fabric.t;
  cluster : Transport.Cluster.t;
  nexuses : Erpc.Nexus.t array;
  rpcs : Erpc.Rpc.t array array;
}

let deploy ?seed ?config ?cost ?trace ?(workers_per_host = 1) ?(register = fun _ -> ())
    (cluster : Transport.Cluster.t) ~threads_per_host =
  let fabric = Erpc.Fabric.create ?seed ?config ?cost ?trace cluster in
  let nexuses =
    Array.init cluster.num_hosts (fun host ->
        let nx = Erpc.Nexus.create fabric ~host ~num_workers:workers_per_host () in
        register nx;
        nx)
  in
  let rpcs =
    Array.map
      (fun nx -> Array.init threads_per_host (fun i -> Erpc.Rpc.create nx ~rpc_id:i))
      nexuses
  in
  { fabric; cluster; nexuses; rpcs }

let run_ms d ms =
  let engine = Erpc.Fabric.engine d.fabric in
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms ms))

let run_us d us =
  let engine = Erpc.Fabric.engine d.fabric in
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.us us))

let now d = Sim.Engine.now (Erpc.Fabric.engine d.fabric)

let echo_req_type = 1

let register_echo ?(req_type = echo_req_type) ?resp_size nx =
  Erpc.Nexus.register_handler nx ~req_type ~mode:Erpc.Nexus.Dispatch (fun h ->
      let req = Erpc.Req_handle.get_request h in
      let n = match resp_size with Some n -> n | None -> Erpc.Msgbuf.size req in
      let resp = Erpc.Req_handle.init_response h ~size:n in
      (* Echo back as much request data as fits, so tests can check
         integrity. *)
      let copy = min n (Erpc.Msgbuf.size req) in
      if copy > 0 then
        Erpc.Msgbuf.blit ~src:req ~src_off:0 ~dst:resp ~dst_off:0 ~len:copy;
      Erpc.Req_handle.enqueue_response h resp)

let connect d rpc ~remote_host ~remote_rpc_id =
  let status = ref None in
  let sess =
    Erpc.Rpc.create_session rpc ~remote_host ~remote_rpc_id
      ~on_connect:(fun r -> status := Some r)
      ()
  in
  (* The handshake is two SM messages; run a little beyond that. *)
  let rec wait tries =
    if !status = None && tries > 0 then begin
      run_us d 100.;
      wait (tries - 1)
    end
  in
  wait 100;
  (match !status with
  | Some (Ok ()) -> ()
  | Some (Error e) -> failwith ("Harness.connect: " ^ Erpc.Err.to_string e)
  | None -> failwith "Harness.connect: handshake did not complete");
  sess

type driver = {
  req_type : int;
  rng : Sim.Rng.t;
  rpc : Erpc.Rpc.t;
  sessions : Erpc.Session.session array;
  window : int;
  batch : int;
  req_size : int;
  per_batch_cost_ns : int;
  latencies : Stats.Hist.t option;
  bufs : (Erpc.Msgbuf.t * Erpc.Msgbuf.t) array;
  engine : Sim.Engine.t;
  mutable ready : int list;  (** free buffer-pair indexes awaiting a batch *)
  mutable completed : int;
}

let make_driver ?latencies ?(req_size = 32) ?(resp_size = 32) ?(batch = 1)
    ?(per_batch_cost_ns = 0) ?(req_type = echo_req_type) ~rng ~rpc ~sessions ~window () =
  assert (window > 0 && batch > 0 && Array.length sessions > 0);
  {
    req_type;
    rng;
    rpc;
    sessions;
    window;
    batch;
    req_size;
    per_batch_cost_ns;
    latencies;
    bufs =
      Array.init window (fun _ ->
          ( Erpc.Msgbuf.alloc ~max_size:(max 1 req_size),
            Erpc.Msgbuf.alloc ~max_size:(max 1 resp_size) ));
    engine = Erpc.Fabric.engine (Erpc.Rpc.nexus rpc |> Erpc.Nexus.fabric);
    ready = List.init window Fun.id;
    completed = 0;
  }

let rec issue_ready t =
  (* Issue in batches of [batch]: wait until a full batch of buffer pairs
     is free (the tail end of the run issues partial batches never — they
     stay pending, which only matters at shutdown). *)
  while List.length t.ready >= t.batch do
    let rec take n acc rest =
      if n = 0 then (acc, rest)
      else match rest with [] -> (acc, []) | x :: tl -> take (n - 1) (x :: acc) tl
    in
    let batch_idx, rest = take t.batch [] t.ready in
    t.ready <- rest;
    (* Per-batch fixed cost (doorbell batching in specialized systems). *)
    if t.per_batch_cost_ns > 0 then
      ignore (Sim.Cpu.charge (Erpc.Rpc.cpu t.rpc) t.per_batch_cost_ns);
    List.iter (fun idx -> issue_one t idx) batch_idx
  done

and issue_one t idx =
  let req, resp = t.bufs.(idx) in
  Erpc.Msgbuf.resize req t.req_size;
  let sess = t.sessions.(Sim.Rng.int t.rng (Array.length t.sessions)) in
  let t0 = Sim.Engine.now t.engine in
  Erpc.Rpc.enqueue_request t.rpc sess ~req_type:t.req_type ~req ~resp ~cont:(fun r ->
      (match r with
      | Ok () -> (
          t.completed <- t.completed + 1;
          match t.latencies with
          | Some h -> Stats.Hist.record h (Sim.Time.sub (Sim.Engine.now t.engine) t0)
          | None -> ())
      | Error _ -> ());
      t.ready <- idx :: t.ready;
      issue_ready t)

let start_driver t = issue_ready t
let driver_completed t = t.completed

(* {2 Typed workloads}

   Schema-driven counterparts of the echo workload, exercising the codec
   end-to-end: the server decodes the request and re-encodes it as the
   response, charging modeled (de)serialization cost. *)

let typed_echo_req_type = 2

(* The benchmark schema: all fixed-width, 24 wire bytes in 3 leaves. *)
let schema_fixed : ((int * int) * string) Codec.t =
  Codec.(pair (pair u32 u32) (fixed_string 16))

let value_fixed = ((7, 42), "0123456789abcdef")

let register_typed_echo (type a) (codec : a Codec.t) nx =
  Erpc.Nexus.register_handler nx ~req_type:typed_echo_req_type ~mode:Erpc.Nexus.Dispatch
    (fun h ->
      let v = Erpc.Typed.read_request h codec in
      Erpc.Typed.respond h codec v)

type typed_driver = unit -> unit

let make_typed_driver (type a) ?(batch = 1) ~(codec : a Codec.t) ~(value : a) ~rng ~rpc
    ~sessions ~window () =
  assert (window > 0 && batch > 0 && Array.length sessions > 0);
  let max_size = Codec.size codec value in
  let bufs =
    Array.init window (fun _ ->
        (Erpc.Msgbuf.alloc ~max_size, Erpc.Msgbuf.alloc ~max_size))
  in
  let ready = ref (List.init window Fun.id) in
  let rec issue_ready () =
    while List.length !ready >= batch do
      let rec take n acc rest =
        if n = 0 then (acc, rest)
        else match rest with [] -> (acc, []) | x :: tl -> take (n - 1) (x :: acc) tl
      in
      let batch_idx, rest = take batch [] !ready in
      ready := rest;
      List.iter issue_one batch_idx
    done
  and issue_one idx =
    let req_buf, resp_buf = bufs.(idx) in
    let sess = sessions.(Sim.Rng.int rng (Array.length sessions)) in
    Erpc.Typed.enqueue_request rpc sess ~req_type:typed_echo_req_type ~req_codec:codec
      ~resp_codec:codec ~req_buf ~resp_buf value ~cont:(fun _ ->
        ready := idx :: !ready;
        issue_ready ())
  in
  issue_ready

let start_typed_driver t = t ()

let total_completed d =
  Array.fold_left
    (fun acc per_host ->
      Array.fold_left (fun acc rpc -> acc + (Erpc.Rpc.stats rpc).Erpc.Rpc_stats.completed) acc per_host)
    0 d.rpcs

let fingerprint d =
  let sum f =
    Array.fold_left
      (Array.fold_left (fun acc rpc -> acc + f (Erpc.Rpc.stats rpc)))
      0 d.rpcs
  in
  let engine = Erpc.Fabric.engine d.fabric in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "now=%d events=%d handled=%d retx=%d resets=%d corrupt=%d lat=%d"
          (Sim.Engine.now engine)
          (Sim.Engine.events_processed engine)
          (sum (fun s -> s.Erpc.Rpc_stats.handled))
          (sum (fun s -> s.Erpc.Rpc_stats.retransmits))
          (sum (fun s -> s.Erpc.Rpc_stats.session_resets))
          (sum (fun s -> s.Erpc.Rpc_stats.rx_corrupt))
          (sum (fun s -> s.Erpc.Rpc_stats.latency_ns_sum))))

let rerun ~digest run =
  let r = run () in
  let d = digest r and d2 = digest (run ()) in
  (r, if d2 = d then [] else [ Printf.sprintf "nondeterministic: rerun digest %s <> %s" d2 d ])

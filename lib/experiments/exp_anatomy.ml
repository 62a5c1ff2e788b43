type result = {
  breakdowns : Obs.Anatomy.breakdown list;
  trace : Obs.Trace.t;
  predicted_wire_ns : int -> int;
}

let predictor (cluster : Transport.Cluster.t) =
  let cfg = cluster.net_config in
  fun size ->
    let ser = Sim.Time.of_bytes_at_gbps size cfg.link_gbps in
    (2 * (ser + cfg.cable_ns)) + cfg.switch_latency_ns

let run ?seed ?trace ?(samples = 32) ?(req_size = 32) ?(typed = false) ?(transport = `Raw_eth)
    () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let cluster =
    match transport with
    | `Shm -> Transport.Cluster.colocate cluster [ [ 0; 1 ] ]
    | `Raw_eth | `Rdma_rc -> cluster
  in
  let trace =
    match trace with Some tr -> tr | None -> Obs.Trace.create ~capacity:(1 lsl 16) ()
  in
  let config =
    let config = Erpc.Config.of_cluster cluster in
    match transport with
    | `Raw_eth -> config
    | `Rdma_rc -> { config with Erpc.Config.transport = Erpc.Config.Rdma_rc }
    | `Shm -> { config with Erpc.Config.shm_enabled = true }
  in
  let register nx =
    if typed then Harness.register_typed_echo Harness.schema_fixed nx
    else Harness.register_echo ~resp_size:32 nx
  in
  let d = Harness.deploy ?seed ~config ~trace cluster ~threads_per_host:1 ~register in
  let client = d.rpcs.(0).(0) in
  let sess = Harness.connect d client ~remote_host:1 ~remote_rpc_id:0 in
  let req = Erpc.Msgbuf.alloc ~max_size:req_size in
  let resp = Erpc.Msgbuf.alloc ~max_size:(max 32 req_size) in
  (* Strictly sequential: one request outstanding, the next issued only
     after the previous completes, so the network is quiet and every
     sampled latency decomposes against an idle fabric. *)
  let remaining = ref samples in
  let rec issue () =
    if !remaining > 0 then begin
      decr remaining;
      if typed then
        let codec = Harness.schema_fixed in
        Erpc.Typed.enqueue_request client sess ~req_type:Harness.typed_echo_req_type
          ~req_codec:codec ~resp_codec:codec Harness.value_fixed ~cont:(fun _ -> issue ())
      else
        Erpc.Rpc.enqueue_request client sess ~req_type:Harness.echo_req_type ~req ~resp
          ~cont:(fun _ -> issue ())
    end
  in
  issue ();
  Harness.run_ms d (1.0 +. (0.05 *. float_of_int samples));
  let predicted_wire_ns = predictor cluster in
  let breakdowns = Obs.Anatomy.analyze ~wire_ns:predicted_wire_ns (Obs.Trace.events trace) in
  { breakdowns; trace; predicted_wire_ns }

(* incast-probe: the paper's Table 5 setup with a latency probe. CX4
   profile; 20 hosts each keep one 8 MB request outstanding to one victim
   with Timely on, while 3 other hosts send 32 B echo RPCs to the same
   victim with one outstanding each. Closed loop.

   Sessions get 8 credits. With more (the profile's BDP-derived 19, or
   the 32 of the Table 5 experiment), Timely can keep the victim's queue
   alternating between empty and about 50 us on a few-millisecond period,
   so a window's probe median depends on which phase dominated it; with 8
   the senders are credit-bound and the queue holds steady. *)

let victim = 0
let degree = 20
let probes = 3
let nodes = 1 + degree + probes
let big = 8 * 1024 * 1024
let small = 32
let slices = 20
let credits = 8

let setup ~window_ns ~warmup_ns ~seed ~trace ~spans ~phase =
  let cluster = Transport.Cluster.cx4 ~nodes () in
  let config =
    let base = Erpc.Config.of_cluster ~credits cluster in
    { base with opts = { base.opts with congestion_control = true } }
  in
  let d = ref None in
  phase "deploy" (fun () ->
      d :=
        Some
          (Experiments.Harness.deploy ~seed:(Wl.sim_seed seed) ?trace ~config cluster
             ~threads_per_host:1
             ~register:(Experiments.Harness.register_echo ~resp_size:small)));
  let d = Option.get !d in
  let client_hosts = List.init (degree + probes) (fun i -> i + 1) in
  let sessions = ref [] in
  phase "connect" (fun () ->
      sessions :=
        List.map
          (fun h ->
            Erpc.Rpc.create_session d.rpcs.(h).(0) ~remote_host:victim ~remote_rpc_id:0 ())
          client_hosts;
      Wl.run_ns d 1_000_000;
      Wl.check_connected [| Array.of_list !sessions |]);
  let w_big = Wl.new_window () and w_probe = Wl.new_window () in
  let rng = Wl.input_rng seed in
  let drivers =
    List.map2
      (fun h sess ->
        let is_big = h <= degree in
        Wl.make_driver
          ~w:(if is_big then w_big else w_probe)
          ~spans ~rng:(Sim.Rng.split rng) ~rpc:d.rpcs.(h).(0) ~sessions:[| sess |]
          ~req_type:Experiments.Harness.echo_req_type
          ~req_size:(if is_big then big else small)
          ~resp_size:small ~window:1 ~batch:1)
      client_hosts !sessions
  in
  let warmup () =
    List.iter Wl.start_driver drivers;
    Wl.run_ns d warmup_ns
  in
  let port = Netsim.Network.tor_downlink_port (Erpc.Fabric.net d.fabric) ~host:victim in
  let bytes0 = ref 0 in
  let slice_ns = window_ns / slices in
  let slice i =
    if i = 0 then begin
      w_big.measuring <- true;
      w_probe.measuring <- true;
      bytes0 := Netsim.Port.tx_bytes port
    end;
    Wl.run_ns d slice_ns
  in
  let finish () =
    w_big.measuring <- false;
    w_probe.measuring <- false;
    let gbps = float_of_int ((Netsim.Port.tx_bytes port - !bytes0) * 8) /. float_of_int window_ns in
    let attempted w = w.Wl.ok + w.errors + w.bad_size in
    let p50 = float_of_int (Measure.Samples.percentile w_probe.lat 50.) /. 1e3 in
    let tp, tail = Measure.honest_tail w_probe.lat ~want:99. in
    let violations =
      Wl.window_violations "incast" w_big @ Wl.window_violations "probe" w_probe
    in
    {
      Wl.attempted = attempted w_big + attempted w_probe;
      failed = attempted w_big + attempted w_probe - w_big.ok - w_probe.ok;
      lat = w_probe.lat;
      tail_want = 99.;
      goodput_gbps = gbps;
      named =
        [
          ("incast_gbps", gbps, "Gbps");
          ("probe_p50_us", p50, "us");
          ("probe_" ^ Measure.pct_label tp ^ "_us", tail, "us");
        ];
      layer = [];
      violations;
    }
  in
  {
    Wl.d;
    clients = List.map (fun h -> d.rpcs.(h).(0)) client_hosts;
    servers = [ d.rpcs.(victim).(0) ];
    warmup;
    slice;
    finish;
  }

let make ?(window_ns = 50_000_000) ?(warmup_ns = 20_000_000) () =
  {
    Wl.name = "incast-probe";
    slices;
    window_ns;
    traced_slices = 1;
    trace_capacity = 1 lsl 19;
    setup = setup ~window_ns ~warmup_ns;
    host_layers = (fun ~seed:_ -> []);
  }

let workload = make ()

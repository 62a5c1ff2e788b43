(* rpc-rate: the paper's Table 3 setup. CX4 profile, 11 hosts with one
   thread each; every thread is both client and server, keeping 60 untyped
   32 B echo requests outstanding in batches of 3 to uniformly random
   remote threads. Closed loop. *)

let hosts = 11
let window = 60
let batch = 3
let size = 32
let slices = 20

let setup ~window_ns ~warmup_ns ~seed ~trace ~spans ~phase =
  let cluster = Transport.Cluster.cx4 ~nodes:hosts () in
  let d = ref None in
  phase "deploy" (fun () ->
      d :=
        Some
          (Experiments.Harness.deploy ~seed:(Wl.sim_seed seed) ?trace cluster
             ~threads_per_host:1
             ~register:(Experiments.Harness.register_echo ~resp_size:size)));
  let d = Option.get !d in
  let rpcs = Array.map (fun per_host -> per_host.(0)) d.rpcs in
  let sessions = ref [||] in
  phase "connect" (fun () ->
      sessions :=
        Array.init hosts (fun src ->
            Array.init (hosts - 1) (fun j ->
                let dst = if j < src then j else j + 1 in
                Erpc.Rpc.create_session rpcs.(src) ~remote_host:dst ~remote_rpc_id:0 ()));
      Wl.run_ns d 1_000_000;
      Wl.check_connected !sessions);
  let w = Wl.new_window () in
  let rng = Wl.input_rng seed in
  let drivers =
    Array.init hosts (fun src ->
        Wl.make_driver ~w ~spans ~rng:(Sim.Rng.split rng) ~rpc:rpcs.(src)
          ~sessions:!sessions.(src) ~req_type:Experiments.Harness.echo_req_type
          ~req_size:size ~resp_size:size ~window ~batch)
  in
  let warmup () =
    Array.iter Wl.start_driver drivers;
    Wl.run_ns d warmup_ns
  in
  let slice_ns = window_ns / slices in
  let slice i =
    if i = 0 then w.measuring <- true;
    Wl.run_ns d slice_ns
  in
  let finish () =
    w.measuring <- false;
    let ok = w.ok in
    let attempted = ok + w.errors + w.bad_size in
    let per_core_mrps = float_of_int ok /. float_of_int hosts /. float_of_int window_ns *. 1e3 in
    let p50 = float_of_int (Measure.Samples.percentile w.lat 50.) /. 1e3 in
    let tp, tail = Measure.honest_tail w.lat ~want:99. in
    {
      Wl.attempted;
      failed = attempted - ok;
      lat = w.lat;
      tail_want = 99.;
      goodput_gbps = float_of_int (ok * 2 * size * 8) /. float_of_int window_ns;
      named =
        [
          ("rate_mrps_per_core", per_core_mrps, "Mrps");
          ("rpc_p50_us", p50, "us");
          ("rpc_" ^ Measure.pct_label tp ^ "_us", tail, "us");
        ];
      layer = [];
      violations = Wl.window_violations "rpc-rate" w;
    }
  in
  { Wl.d; clients = Array.to_list rpcs; servers = Array.to_list rpcs; warmup; slice; finish }

let make ?(window_ns = 2_000_000) ?(warmup_ns = 500_000) () =
  {
    Wl.name = "rpc-rate";
    slices;
    window_ns;
    traced_slices = 2;
    trace_capacity = 1 lsl 19;
    setup = setup ~window_ns ~warmup_ns;
    host_layers = (fun ~seed:_ -> []);
  }

let workload = make ()

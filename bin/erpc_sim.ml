(* erpc_sim: the one command-line entry point for every experiment.

   Every subcommand is one [exp] record in the registry at the bottom of
   this file: its parameters as a cmdliner term, the run, the human
   report, and optionally a JSON document and a determinism digest. The
   runner ([cmd]) owns what would otherwise be copied per subcommand:
   [--out] (the JSON document to a file, or alone on stdout with
   [--out -]), [--rerun] (run twice, compare digests) and exit status 1 on
   any violation. `paper` regenerates the paper's tables and figures with
   fixed parameters (see paper.ml); every other subcommand exposes one
   experiment with its knobs open. *)

open Cmdliner

type ('p, 'r) exp = {
  name : string;
  doc : string;
  params : 'p Term.t;
  run : 'p -> 'r;
  print : 'p -> 'r -> unit;
  to_json : ('r -> Obs.Json.t) option;  (** enables [--out] *)
  digest : ('r -> string) option;  (** enables [--rerun] *)
  violations : 'r -> string list;  (** any at all exits 1 *)
}

let exp ?to_json ?digest ?(violations = fun _ -> []) name doc params run print =
  { name; doc; params; run; print; to_json; digest; violations }

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Write the JSON report (the BENCH_*.json schema) to $(docv). With $(b,-), stdout \
           carries that one JSON document and nothing else.")

let rerun_arg =
  Arg.(
    value & flag
    & info [ "rerun" ] ~doc:"Run twice and fail (exit 1) if the same-seed digests differ.")

let execute e p out rerun =
  let r, nondet =
    match e.digest with
    | Some digest when rerun -> Experiments.Harness.rerun ~digest (fun () -> e.run p)
    | _ -> (e.run p, [])
  in
  if out <> Some "-" then begin
    e.print p r;
    if rerun && nondet = [] then print_endline "rerun digests identical"
  end;
  (match (e.to_json, out) with
  | Some to_json, Some file ->
      let s = Obs.Json.to_string (to_json r) in
      if file = "-" then print_endline s
      else begin
        let oc = open_out file in
        output_string oc s;
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n" file
      end
  | _ -> ());
  match e.violations r @ nondet with
  | [] -> ()
  | vs ->
      List.iter (Printf.eprintf "VIOLATION: %s\n") vs;
      exit 1

let cmd e =
  let runner_arg enabled arg off = if enabled then arg else Term.const off in
  let exits = Cmd.Exit.info 1 ~doc:"on a violation or a $(b,--rerun) digest mismatch." in
  Cmd.v (Cmd.info e.name ~doc:e.doc ~exits:(exits :: Cmd.Exit.defaults))
    Term.(
      const (execute e) $ e.params
      $ runner_arg (e.to_json <> None) out_arg None
      $ runner_arg (e.digest <> None) rerun_arg false)

(* One digest over several rows' digests. *)
let digest_all ds = Digest.to_hex (Digest.string (String.concat "," ds))

(* {2 Shared parameters} *)

let nodes_arg =
  Arg.(value & opt (some int) None & info [ "nodes" ] ~docv:"N" ~doc:"Override node count.")

(* [--cluster] and [--nodes] as one term: cx5-ib100 is a fixed 2-host
   profile, so [--nodes] with it is a usage error instead of being
   silently dropped. *)
let cluster_t default =
  let build c nodes =
    match (c, nodes) with
    | `Cx3, _ -> `Ok (Transport.Cluster.cx3 ?nodes ())
    | `Cx4, _ -> `Ok (Transport.Cluster.cx4 ?nodes ())
    | `Cx5, _ -> `Ok (Transport.Cluster.cx5 ?nodes ())
    | `Cx5_ib100, None -> `Ok (Transport.Cluster.cx5_ib100 ())
    | `Cx5_ib100, Some _ -> `Error (true, "--nodes does not apply to the 2-host cx5-ib100")
  in
  let names = [ ("cx3", `Cx3); ("cx4", `Cx4); ("cx5", `Cx5); ("cx5-ib100", `Cx5_ib100) ] in
  Term.(
    ret
      (const build
      $ Arg.(
          value & opt (enum names) default
          & info [ "cluster" ] ~docv:"NAME" ~doc:"Cluster profile.")
      $ nodes_arg))

let seed_arg = Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "OCaml domains to fan independent runs across (results are identical to --jobs 1; \
           see Par_sweep).")

let credits_arg = Arg.(value & opt int 32 & info [ "credits" ] ~docv:"C" ~doc:"Session credits.")

let seeds_arg =
  Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N" ~doc:"Seeded fault schedules to run.")

let verbose_arg = Arg.(value & flag & info [ "trace" ] ~doc:"Print each run's fault trace.")

let degree_arg default =
  Arg.(value & opt int default & info [ "degree" ] ~docv:"N" ~doc:"Incast degree.")

let measure_arg default =
  Arg.(value & opt float default & info [ "measure-ms" ] ~docv:"MS" ~doc:"Measured window.")

let int_arg name default docv doc = Arg.(value & opt int default & info [ name ] ~docv ~doc)
let flag_arg name doc = Arg.(value & flag & info [ name ] ~doc)

(* chaos and kv-chaos: a line per seeded run (plus its fault trace with
   --trace) and a summary. *)
let print_suite ~verbose ~trace ~violations pp runs =
  List.iter
    (fun r ->
      Format.printf "%a@." pp r;
      if verbose then print_string (trace r))
    runs;
  let bad = List.length (List.filter (fun r -> violations r <> []) runs) in
  Printf.printf "%d/%d schedules clean\n" (List.length runs - bad) (List.length runs)

(* A chaos suite's [--rerun] digest: every seed's fault trace, hashed. *)
let suite_digest trace runs =
  digest_all (List.map (fun r -> Digest.to_hex (Digest.string (trace r))) runs)

(* {2 The registry} *)

let paper =
  let sections = List.map (fun (n, _) -> (n, n)) Paper.sections in
  exp "paper" "The paper's tables and figures, with fixed parameters"
    Arg.(
      value
      & pos 0 (enum sections) "all"
      & info [] ~docv:"SECTION"
          ~doc:
            ("Section to regenerate: " ^ doc_alts_enum sections
           ^ ". $(b,all) runs every section except fig5full and json."))
    (fun s -> List.assoc s Paper.sections ())
    (fun _ () -> ())

let latency =
  exp "latency" "Table 2: median 32 B RPC vs RDMA-read latency"
    Term.(const (fun c s -> (c, s)) $ cluster_t `Cx5 $ int_arg "samples" 2_000 "N" "RPCs to measure.")
    (fun (c, samples) -> Experiments.Exp_latency.measure ~samples c)
    (fun _ r ->
      Printf.printf "%s: RDMA read %.1f us, eRPC %.1f us (p99 %.1f us)\n" r.cluster
        r.rdma_read_us r.erpc_us r.erpc_p99_us)

let rate =
  exp "rate" "Figure 4: single-core small-RPC rate"
    Term.(
      const (fun c b w f -> (c, b, w, f))
      $ cluster_t `Cx4
      $ int_arg "batch" 3 "B" "Requests per batch."
      $ int_arg "window" 60 "N" "Requests in flight per thread."
      $ flag_arg "fasst" "Run the FaSST-like specialized baseline.")
    (fun (c, batch, window, fasst) ->
      if fasst then
        (c, batch, "fasst", Experiments.Exp_small_rate.run_fasst ~cluster:c ~window ~batch ())
      else (c, batch, "erpc", Experiments.Exp_small_rate.run ~cluster:c ~window ~batch ()))
    (fun (_, _, _, fasst) (c, batch, _, r) ->
      Printf.printf "%s%s B=%d: %.2f Mrps/thread (%d RPCs, %d retransmits)\n" c.name
        (if fasst then " FaSST" else "")
        batch r.per_thread_mrps r.total_rpcs r.retransmits)
    ~to_json:(fun (c, batch, system, r) ->
      Paper.bench_doc ~benchmark:"small_rate" ~unit:"Mrps"
        [ Paper.small_rate_row ~system ~batch c r ])

let bandwidth =
  exp "bandwidth" "Figure 6 / Table 4: large-RPC goodput over 100 Gbps"
    Term.(
      const (fun s c l n -> (s, c, l, n))
      $ int_arg "size" (8 * 1024 * 1024) "BYTES" "Request size."
      $ credits_arg
      $ Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P" ~doc:"Injected packet-loss rate.")
      $ int_arg "requests" 8 "N" "Requests to measure.")
    (fun (req_size, credits, loss, requests) ->
      (loss, Experiments.Exp_bandwidth.erpc_goodput ~credits ~requests ~loss ~req_size ()))
    (fun _ (_, p) ->
      Printf.printf "%d-byte requests: %.1f Gbps (%d retransmissions)\n" p.req_size
        p.goodput_gbps p.retransmits)
    ~to_json:(fun (loss, (p : Experiments.Exp_bandwidth.point)) ->
      Paper.bench_doc ~benchmark:"bandwidth" ~unit:"Gbps"
        Obs.Json.
          [
            Obj
              [
                ("req_size", Int p.req_size);
                ("loss", Float loss);
                ("goodput_gbps", Float p.goodput_gbps);
                ("retransmits", Int p.retransmits);
              ];
          ])

let incast =
  exp "incast" "Table 5: incast congestion control"
    Term.(
      const (fun d c cc dc m -> (d, c, cc, dc, m))
      $ degree_arg 20 $ credits_arg
      $ Arg.(value & opt bool true & info [ "cc" ] ~docv:"BOOL" ~doc:"Enable congestion control.")
      $ flag_arg "dcqcn" "Use DCQCN instead of Timely."
      $ measure_arg 30.0)
    (fun (degree, credits, cc, dcqcn, measure_ms) ->
      let algo = if dcqcn then Erpc.Config.Dcqcn else Erpc.Config.Timely in
      Experiments.Exp_incast.run ~credits ~algo ~degree ~cc ~measure_ms ())
    (fun (_, _, _, dcqcn, _) r ->
      Printf.printf
        "%d-way incast (cc=%b%s): %.1f Gbps, RTT p50=%.0f us p99=%.0f us, buffer peak %d kB, \
         %d retransmits\n"
        r.degree r.cc
        (if dcqcn then ", DCQCN" else "")
        r.total_gbps r.rtt_p50_us r.rtt_p99_us
        (r.switch_buffer_peak_bytes / 1024)
        r.retransmits)
    ~to_json:(fun (r : Experiments.Exp_incast.row) ->
      Paper.bench_doc ~benchmark:"incast" ~unit:"Gbps"
        Obs.Json.
          [
            Obj
              [
                ("degree", Int r.degree);
                ("cc", Bool r.cc);
                ("total_gbps", Float r.total_gbps);
                ("rtt_p50_us", Float r.rtt_p50_us);
                ("rtt_p99_us", Float r.rtt_p99_us);
                ("switch_buffer_peak_bytes", Int r.switch_buffer_peak_bytes);
                ("retransmits", Int r.retransmits);
              ];
          ])

let scalability =
  exp "scalability" "Figure 5: 100-node scalability"
    Term.(const (fun n t -> (n, t)) $ nodes_arg $ int_arg "threads" 1 "T" "Threads per node.")
    (fun (nodes, threads) -> Experiments.Exp_scalability.run ?nodes ~threads ())
    (fun _ r ->
      Printf.printf
        "T=%d: %.1f Mrps/node; latency p50=%.1f p99=%.1f p99.9=%.1f p99.99=%.1f us; retx/s=%.0f\n"
        r.threads_per_node r.per_node_mrps r.lat_p50_us r.lat_p99_us r.lat_p999_us
        r.lat_p9999_us r.retransmits_per_node_per_sec)

let raft =
  exp "raft" "Table 6: 3-way replicated PUT latency (Raft over eRPC)"
    Term.(const (fun n s -> (n, s)) $ int_arg "samples" 3_000 "N" "PUTs." $ seed_arg)
    (fun (samples, seed) -> (seed, Experiments.Exp_raft.run ~seed ~samples ()))
    (fun _ (_, r) ->
      Printf.printf
        "replicated PUT: client p50=%.1f p99=%.1f us; leader commit p50=%.1f p99=%.1f us (%d \
         puts, %d errors)\n"
        r.client_p50_us r.client_p99_us r.leader_p50_us r.leader_p99_us r.puts r.errors)
    ~to_json:(fun (seed, (r : Experiments.Exp_raft.result)) ->
      Paper.bench_doc ~benchmark:"raft_kv" ~unit:"us"
        Obs.Json.
          [
            Obj
              [
                ("row", Str "table6");
                ("client_p50_us", Float r.client_p50_us);
                ("client_p99_us", Float r.client_p99_us);
                ("leader_p50_us", Float r.leader_p50_us);
                ("leader_p99_us", Float r.leader_p99_us);
                ("puts", Int r.puts);
                ("errors", Int r.errors);
              ];
            Obj
              [
                ("row", Str "sharded_baseline");
                ("detail", Experiments.Exp_kv_chaos.baseline_json ~seed ());
              ];
          ])

let kv_chaos =
  let module K = Experiments.Exp_kv_chaos in
  exp "kv-chaos"
    "Replicated-KV failover chaos: availability timeline, tail latency and exactly-once \
     invariants under leader crashes, partitions and rolling restarts"
    Term.(const (fun s v j -> (s, v, j)) $ seeds_arg $ verbose_arg $ jobs_arg)
    (fun (seeds, _, jobs) -> K.run_suite ~seeds ~jobs ())
    (fun (_, verbose, _) ->
      print_suite ~verbose ~trace:(fun r -> r.K.trace) ~violations:(fun r -> r.K.violations)
        K.pp_run)
    ~to_json:K.suite_to_json
    ~digest:(suite_digest (fun r -> r.K.trace))
    ~violations:(List.concat_map (fun r -> r.K.violations))

let chaos =
  let module C = Experiments.Chaos in
  exp "chaos" "Fault-injection chaos suite: invariants under seeded fault schedules"
    Term.(
      const (fun s e r v j -> (s, e, r, v, j))
      $ seeds_arg
      $ int_arg "events" 12 "N" "Fault events per schedule."
      $ int_arg "requests" 120 "N" "RPCs issued per run."
      $ verbose_arg $ jobs_arg)
    (fun (seeds, events, requests, _, jobs) -> C.run_suite ~seeds ~events ~requests ~jobs ())
    (fun (_, _, _, verbose, _) ->
      print_suite ~verbose ~trace:(fun r -> r.C.trace) ~violations:(fun r -> r.C.violations)
        C.pp_run)
    ~digest:(suite_digest (fun r -> r.C.trace))
    ~violations:(List.concat_map (fun r -> r.C.violations))

let cluster_load =
  let module L = Experiments.Exp_cluster_load in
  let scenarios =
    ("all", None) :: List.map (fun (n, _) -> (n, Some n)) Workload.Traffic_spec.builtin
  in
  exp "cluster-load"
    "Multi-tenant open-loop traffic (Poisson/bursty/hot-key-shift tenants over KV + echo) \
     with per-tenant P50/P99/P99.9 SLOs and P99 tail attribution"
    Term.(
      const (fun n s h seed j -> (n, s, h, seed, j))
      $ Arg.(
          value & opt (enum scenarios) None
          & info [ "scenario" ] ~docv:"NAME"
              ~doc:("Scenario: " ^ Arg.doc_alts_enum scenarios ^ "."))
      $ Arg.(
          value & opt float 1.0
          & info [ "scale" ] ~docv:"F" ~doc:"Population scale factor on tenant source counts.")
      $ Arg.(
          value & opt float 100.0
          & info [ "horizon-ms" ] ~docv:"MS" ~doc:"Measured open-loop window per scenario.")
      $ seed_arg $ jobs_arg)
    (fun (name, scale, horizon_ms, seed, jobs) ->
      match name with
      | None -> L.run_all ~seed ~scale ~horizon_ms ~jobs ()
      | Some n -> [ L.run_named ~seed ~scale ~horizon_ms n ])
    (fun _ rs -> List.iter (Format.printf "%a@." L.pp_result) rs)
    ~to_json:L.to_json
    ~digest:(fun rs -> digest_all (List.map (fun r -> r.L.digest) rs))
    ~violations:(List.concat_map (fun r -> r.L.violations))

let shm_bench =
  let module S = Experiments.Exp_shm_bench in
  exp "shm-bench"
    "Intra-host serialize-vs-share benchmark: payload sweep over the shared-memory rings with \
     crossover, anatomy-zero and determinism checks"
    Term.(
      const (fun n s -> (n, s))
      $ int_arg "samples" 24 "N" "Sequential RPCs per (payload, mode) cell."
      $ seed_arg)
    (fun (samples, seed) -> S.run ~seed ~samples ())
    (fun _ r -> Format.printf "%a" S.pp_result r)
    ~to_json:S.to_json
    ~digest:(fun r -> digest_all (List.map (fun row -> row.S.digest) r.rows))
    ~violations:(fun r -> r.violations)

let masstree =
  exp "masstree" "§7.2: Masstree over eRPC"
    Arg.(value & opt bool true & info [ "workers" ] ~docv:"BOOL" ~doc:"Run scans in workers.")
    (fun workers -> Experiments.Exp_masstree.run ~workers ())
    (fun _ r ->
      Printf.printf "Masstree: %.1f M GET/s, GET p50=%.1f us p99=%.1f us, SCAN p99=%.1f us\n"
        r.gets_per_sec_m r.get_p50_us r.get_p99_us r.scan_p99_us)

let anatomy =
  let transports = [ ("raw_eth", `Raw_eth); ("rdma_rc", `Rdma_rc); ("shm", `Shm) ] in
  exp "anatomy" "Latency anatomy: decompose quiet-network RPC latency into components"
    Term.(
      const (fun n s t tp seed -> (n, s, t, tp, seed))
      $ int_arg "samples" 32 "N" "Sequential RPCs to sample."
      $ int_arg "size" 32 "BYTES" "Request size."
      $ flag_arg "typed" "Issue typed (schema-carrying) echoes so ser/deser appear."
      $ Arg.(
          value
          & opt (enum (("all", transports) :: List.map (fun (n, t) -> (n, [ (n, t) ])) transports))
              [ ("raw_eth", `Raw_eth) ]
          & info [ "transport" ] ~docv:"T"
              ~doc:
                "Datapath: raw_eth|rdma_rc|shm, or all to run the three-transport anatomy in one \
                 command.")
      $ seed_arg)
    (fun (samples, req_size, typed, transports, seed) ->
      List.map
        (fun (name, transport) ->
          ( name,
            Experiments.Exp_anatomy.run ~seed ~samples ~req_size ~typed ~transport () ))
        transports)
    (fun _ ->
      List.iter (fun (name, (r : Experiments.Exp_anatomy.result)) ->
          Format.printf "transport %s:@.%a" name Obs.Anatomy.pp_table r.breakdowns))
    ~to_json:(fun results ->
      Paper.bench_doc ~benchmark:"anatomy" ~unit:"ns"
        (List.concat_map
           (fun (name, (r : Experiments.Exp_anatomy.result)) ->
             List.map
               (fun (b : Obs.Anatomy.breakdown) ->
                 Obs.Json.Obj
                   (("transport", Obs.Json.Str name)
                   :: ("req", Obs.Json.Int b.req)
                   :: ("total_ns", Obs.Json.Int b.total_ns)
                   :: List.map
                        (fun (label, v) -> (label, Obs.Json.Int v))
                        (Obs.Anatomy.components b)))
               r.breakdowns)
           results))

let trace =
  exp "trace" "Run an experiment with event tracing on and write a Chrome/Perfetto trace"
    Term.(
      const (fun e o c s d w m -> (e, o, c, s, d, w, m))
      $ Arg.(
          value
          & opt
              (enum
                 [
                   ("incast", `Incast); ("rate", `Rate); ("bandwidth", `Bandwidth);
                   ("anatomy", `Anatomy);
                 ])
              `Incast
          & info [ "exp" ] ~docv:"NAME" ~doc:"Experiment to trace.")
      $ Arg.(value & opt string "trace.json" & info [ "out" ] ~docv:"FILE" ~doc:"Output file.")
      $ int_arg "capacity" (1 lsl 20) "N" "Trace ring capacity (events)."
      $ seed_arg $ degree_arg 10
      $ Arg.(value & opt float 5.0 & info [ "warmup-ms" ] ~docv:"MS" ~doc:"Warmup window.")
      $ measure_arg 5.0)
    (fun (exp, out, capacity, seed, degree, warmup_ms, measure_ms) ->
      let tr = Obs.Trace.create ~capacity () in
      let summary =
        match exp with
        | `Incast ->
            let r =
              Experiments.Exp_incast.run ~seed ~trace:tr ~degree ~warmup_ms ~measure_ms ~cc:true
                ()
            in
            Printf.sprintf "incast degree=%d: %.1f Gbps, buffer peak %d kB, %d retransmits\n"
              r.degree r.total_gbps
              (r.switch_buffer_peak_bytes / 1024)
              r.retransmits
        | `Rate ->
            let cluster = Transport.Cluster.cx4 ~nodes:11 () in
            let r =
              Experiments.Exp_small_rate.run ~seed ~trace:tr ~cluster ~batch:3 ~measure_ms ()
            in
            Printf.sprintf "rate: %.2f Mrps/thread\n" r.per_thread_mrps
        | `Bandwidth ->
            let p =
              Experiments.Exp_bandwidth.erpc_goodput ~seed ~trace:tr ~requests:4
                ~req_size:(1024 * 1024) ()
            in
            Printf.sprintf "bandwidth: %.1f Gbps\n" p.goodput_gbps
        | `Anatomy ->
            let r = Experiments.Exp_anatomy.run ~seed ~trace:tr () in
            Format.asprintf "%a" Obs.Anatomy.pp_table r.breakdowns
      in
      Obs.Trace.write_chrome_file tr out;
      let valid = Obs.Json.validate (In_channel.with_open_bin out In_channel.input_all) in
      (summary, tr, valid))
    (fun (_, out, _, _, _, _, _) (summary, tr, valid) ->
      print_string summary;
      let by_cat = Hashtbl.create 16 in
      Obs.Trace.iter tr (fun e ->
          Hashtbl.replace by_cat e.cat (1 + Option.value ~default:0 (Hashtbl.find_opt by_cat e.cat)));
      List.iter
        (fun (c, n) -> Printf.printf "  %-8s %d events\n" c n)
        (List.sort compare (Hashtbl.fold (fun c n acc -> (c, n) :: acc) by_cat []));
      Printf.printf "wrote %s: %d events (%d evicted)%s\n" out (Obs.Trace.length tr)
        (Obs.Trace.dropped tr)
        (if valid then ", valid JSON" else ""))
    ~violations:(fun (_, _, valid) -> if valid then [] else [ "trace file is not well-formed JSON" ])

let session_scale =
  let module S = Experiments.Exp_session_scale in
  exp "session-scale" "Fig. 7: one Rpc serving up to 20,000 sessions at constant per-session state"
    Term.(
      const (fun n sw m w s -> (n, sw, m, w, s))
      $ int_arg "sessions" 20_000 "N" "Sessions to open."
      $ flag_arg "sweep" "Sweep 100..20,000 sessions instead."
      $ measure_arg 2.0
      $ int_arg "window" 64 "N" "Requests in flight."
      $ seed_arg)
    (fun (sessions, sweep, measure_ms, window, seed) ->
      if sweep then S.sweep ~seed ~window ~measure_ms ()
      else [ S.run ~seed ~window ~measure_ms ~sessions () ])
    (fun _ ->
      List.iter (fun (r : S.result) ->
          Printf.printf
            "%6d sessions: %.2f Mrps, p50=%.1f us p99=%.1f us (%d RPCs, %d events, %.2f s)\n"
            r.sessions r.mrps r.lat_p50_us r.lat_p99_us r.completed r.events r.wall_s))

let rdma_scalability =
  exp "rdma-scalability" "Figure 1: RDMA read rate vs connection count"
    (int_arg "connections" 5_000 "N" "Connections per NIC.")
    (fun connections -> Rdma.Read_rate.run ~connections ())
    (fun _ r ->
      Printf.printf "%d connections: %.1f M reads/s (miss ratio %.2f)\n" r.connections
        r.rate_mops r.miss_ratio)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "erpc_sim" ~version:"1.0" ~doc:"Run the eRPC reproduction's experiments")
          [
            cmd paper;
            cmd latency;
            cmd rate;
            cmd bandwidth;
            cmd incast;
            cmd anatomy;
            cmd trace;
            cmd scalability;
            cmd raft;
            cmd masstree;
            cmd chaos;
            cmd kv_chaos;
            cmd session_scale;
            cmd rdma_scalability;
            cmd cluster_load;
            cmd shm_bench;
          ]))

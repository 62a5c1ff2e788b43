(* One benchmark invocation: repeated set-up + measured-window repetitions
   of one workload for a fixed host-time budget, then medians.

   Each repetition builds a fresh deployment from the same seed, so every
   repetition after the first is also a same-seed rerun: its modeled
   metrics and minor-word count must equal the first one's exactly.

   Host time is reported relative to the reference loop: every slice of
   the window, and every set-up, is followed by one reference loop, and
   the cost is the median per-slice ratio times the slice count. The
   window's cost is gated as allocation, which repeats exactly for a
   seed; its host time is a per-layer metric (see NOTES.md). *)

let end_to_end =
  [
    ("lat_p50_us", "us");
    ("lat_tail_us", "us");
    ("goodput_gbps", "Gbps");
    ("setup_s", "s");
    ("alloc_words_per_op", "words/op");
    ("peak_heap_mb", "MB");
  ]

let anatomy_components =
  [
    ("client tx", "client_tx");
    ("pacing wheel", "pacing");
    ("NIC", "nic");
    ("wire", "wire");
    ("switch queue", "switch");
    ("server", "server");
    ("client rx", "client_rx");
  ]

let per_layer =
  [
    ("sim.events_per_op", "events/op");
    ("sim.ns_per_event_ref", "ns");
    ("sim.minor_words_per_event", "words/event");
    ("sim.promoted_words_per_event", "words/event");
    ("sim.major_collections", "count");
    ("sim.cpu_util_client", "frac");
    ("sim.cpu_util_server", "frac");
    ("netsim.switch_buffer_peak_bytes", "bytes");
    ("netsim.port_drops", "count");
    ("netsim.pkts_per_op", "pkts/op");
    ("nic.rx_dropped_no_desc", "count");
    ("nic.pkts_per_op", "pkts/op");
    ("erpc.retransmits", "count");
    ("erpc.session_resets", "count");
    ("erpc.rx_stale", "count");
    ("erpc.cc_updates_per_op", "updates/op");
    ("erpc.paced_pkts", "count");
    ("erpc.sessions_opened", "count");
    ("codec.kv_request_ns_ref", "ns");
    ("codec.raft_frame_ns_ref", "ns");
    ("raft.commit_p50_us", "us");
    ("raft.commit_p99_us", "us");
    ("raft.log_entries", "count");
    ("raft.log_mb", "MB");
    ("raft.drops", "count");
    ("mica.get_ns_ref", "ns");
    ("mica.put_ns_ref", "ns");
    ("service.retries", "count");
    ("service.redirects", "count");
    ("service.deadline_exceeded", "count");
    ("service.dedup_hits", "count");
    ("workload.shed", "count");
    ("workload.gen_late_ns_max", "ns");
  ]
  @ List.concat_map
      (fun (_, c) ->
        [ ("anatomy." ^ c ^ ".p50_ns", "ns"); ("anatomy." ^ c ^ ".p99_ns", "ns") ])
      anatomy_components
  @ [
      ("obs.trace_cost_ratio", "ratio");
      ("obs.trace_heap_ratio", "ratio");
      ("obs.trace_dropped", "count");
      ("host.setup.deploy_s", "s");
      ("host.setup.elect_s", "s");
      ("host.setup.connect_s", "s");
      ("host.setup.warmup_s", "s");
      ("host.issue_ns_per_op", "ns");
      ("host.engine_self_frac", "frac");
      ("host.run_cost_ref", "ref");
      ("host.run_cpu_s", "s");
      ("host.ref_loop_s", "s");
    ]

(* {2 Deployment counters} *)

type snap = {
  events : int;
  minor : float;
  promoted : float;
  major : int;
  port_tx : int;
  port_drops : int;
  nic_tx : int;
  nic_rx_dropped : int;
  retransmits : int;
  session_resets : int;
  rx_stale : int;
  paced : int;
  cc_updates : int;
  sessions : int;
  busy_client : int;
  busy_server : int;
}

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let snap (r : Wl.run) =
  let eng = Wl.engine r.d in
  let m = Sim.Engine.metrics eng in
  let counters name = Obs.Metrics.fold_counters m ~name (fun acc _ v -> acc + v) 0 in
  let all = Array.to_list (Array.concat (Array.to_list r.d.rpcs)) in
  let st f = sum (fun rpc -> f (Erpc.Rpc.stats rpc)) all in
  let g = Gc.quick_stat () in
  {
    events = Sim.Engine.events_processed eng;
    minor = g.minor_words;
    promoted = g.promoted_words;
    major = g.major_collections;
    port_tx = counters "port.tx_pkts";
    port_drops = counters "port.dropped_pkts";
    nic_tx = counters "nic.tx_pkts";
    nic_rx_dropped = counters "nic.rx_dropped_no_desc";
    retransmits = st (fun s -> s.Erpc.Rpc_stats.retransmits);
    session_resets = st (fun s -> s.Erpc.Rpc_stats.session_resets);
    rx_stale = st (fun s -> s.Erpc.Rpc_stats.rx_stale);
    paced = st (fun s -> s.Erpc.Rpc_stats.wheel_inserts);
    cc_updates = sum Erpc.Rpc.cc_updates all;
    sessions = sum Erpc.Rpc.num_sessions all;
    busy_client = sum (fun r -> Sim.Cpu.busy_ns (Erpc.Rpc.cpu r)) r.clients;
    busy_server = sum (fun r -> Sim.Cpu.busy_ns (Erpc.Rpc.cpu r)) r.servers;
  }

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* {2 One repetition} *)

type rep = {
  outcome : Wl.outcome;
  setup_cpu : (string * float) list;  (** per phase, host CPU s *)
  setup_ref : float;  (** reference loop timed right after set-up *)
  window_events : int;  (** trace events recorded inside the window *)
  slice_cpu : float array;
  slice_ref : float array;
  window_cpu : float;
  window_minor : float;  (** minor words allocated inside the slices *)
  d0 : snap;
  d1 : snap;
  switch_peak : float;
  fingerprint : string;  (** modeled results; equal across same-seed reps *)
  cluster : Transport.Cluster.t;
  client_hosts : int list;
  n_clients : int;
  n_servers : int;
}

let fingerprint (o : Wl.outcome) (d0 : snap) (d1 : snap) =
  let lat = o.lat in
  let lsum = Measure.Samples.fold ( + ) 0 lat in
  String.concat ";"
    ([
       string_of_int o.attempted;
       string_of_int o.failed;
       string_of_int (Measure.Samples.count lat);
       string_of_int lsum;
       Printf.sprintf "%h" o.goodput_gbps;
       string_of_int (d1.events - d0.events);
     ]
    @ List.map (fun (n, v, _) -> Printf.sprintf "%s=%h" n v) o.named
    @ List.map (fun (n, v) -> Printf.sprintf "%s=%h" n v) o.layer)

(* Build a deployment; returns it with the CPU seconds of each set-up
   phase and of the reference loop timed right after. *)
let set_up (wl : Wl.t) ~seed ~trace ~spans =
  let setup_cpu = ref [] in
  let phase name f =
    let c0 = Measure.cpu_s () in
    Measure.Spans.with_span spans ("setup." ^ name) f;
    setup_cpu := (name, Measure.cpu_s () -. c0) :: !setup_cpu
  in
  let run = wl.setup ~seed ~trace ~spans ~phase in
  let setup_ref = Measure.time_ref () in
  phase "warmup" run.warmup;
  (run, List.rev !setup_cpu, setup_ref)

(* Events the trace recorded so far, evicted ones included. *)
let trace_seen = function
  | None -> 0
  | Some t -> Obs.Trace.length t + Obs.Trace.dropped t

let rep (wl : Wl.t) ~seed ~trace ~spans ~slices =
  let run, setup_cpu, setup_ref = set_up wl ~seed ~trace ~spans in
  let slice_cpu = Array.make slices 0. and slice_ref = Array.make slices 0. in
  let seen0 = trace_seen trace in
  let d0 = snap run in
  let minor = ref 0. in
  for i = 0 to slices - 1 do
    let w0 = Gc.minor_words () in
    let c0 = Measure.cpu_s () in
    Measure.Spans.with_span spans "slice" (fun () -> run.slice i);
    let c1 = Measure.cpu_s () in
    minor := !minor +. (Gc.minor_words () -. w0);
    slice_cpu.(i) <- c1 -. c0;
    slice_ref.(i) <- Measure.time_ref ()
  done;
  let d1 = snap run in
  let window_events = trace_seen trace - seen0 in
  let switch_peak =
    Obs.Metrics.max_gauge (Sim.Engine.metrics (Wl.engine run.d)) ~name:"switch.buffer_max"
  in
  let outcome = run.finish () in
  {
    outcome;
    setup_cpu;
    setup_ref;
    window_events;
    slice_cpu;
    slice_ref;
    window_cpu = Array.fold_left ( +. ) 0. slice_cpu;
    window_minor = !minor;
    d0;
    d1;
    switch_peak;
    fingerprint = fingerprint outcome d0 d1;
    cluster = run.d.cluster;
    client_hosts = List.map Erpc.Rpc.host run.clients;
    n_clients = List.length run.clients;
    n_servers = List.length run.servers;
  }

(* CPU seconds of set-up proper: deploy, elect and connect. *)
let setup_total phases =
  List.fold_left (fun acc (n, s) -> if n = "warmup" then acc else acc +. s) 0. phases

let phase_s r name = try List.assoc name r.setup_cpu with Not_found -> 0.

(* Median over every slice of [reps] of slice CPU / next reference loop. *)
let slice_ratio reps =
  Measure.median_f
    (List.concat_map
       (fun r -> Array.to_list (Array.mapi (fun i c -> c /. r.slice_ref.(i)) r.slice_cpu))
       reps)

(* Window cost in reference loops: median per-slice ratio x slice count. *)
let cost_ref (wl : Wl.t) reps = slice_ratio reps *. float_of_int wl.slices

(* Set-up time in seconds of a host whose reference loop takes the
   nominal time: each set-up is scaled by the loop timed right after it. *)
let setup_norm setups =
  Measure.median_f
    (List.map (fun (cpu, ref_s) -> cpu *. Measure.ref_nominal_s /. ref_s) setups)

let median_of f reps = Measure.median_f (List.map f reps)

(* {2 Per-layer metrics} *)

let layer_metrics (wl : Wl.t) ~seed ~(plain : rep list) ~(traced : rep) ~spans ~breakdowns
    ~heap_plain ~heap_traced =
  let r = List.hd plain in
  let o = r.outcome and d0 = r.d0 and d1 = r.d1 in
  let ops = float_of_int (max 1 o.attempted) in
  let events = float_of_int (max 1 (d1.events - d0.events)) in
  let ref_s = median_of (fun r -> Measure.median_f (Array.to_list r.slice_ref)) plain in
  let cost = cost_ref wl plain in
  (* Host ns scaled to a host whose reference loop takes the nominal time. *)
  let norm ns = ns *. Measure.ref_nominal_s /. ref_s in
  let window = float_of_int wl.window_ns in
  let util busy n = if n = 0 then 0. else float_of_int busy /. window /. float_of_int n in
  let trace_ratio = slice_ratio [ traced ] /. slice_ratio plain in
  let anatomy =
    let bds =
      List.filter
        (fun (b : Obs.Anatomy.breakdown) -> List.mem b.host traced.client_hosts)
        breakdowns
    in
    match Obs.Anatomy.attribute bds with
    | None -> List.map (fun (_, c) -> (c, (0., 0.))) anatomy_components
    | Some a ->
        List.map
          (fun (label, c) ->
            ( c,
              ( float_of_int (List.assoc label a.p50_ns),
                float_of_int (List.assoc label a.p99_ns) ) ))
          anatomy_components
  in
  let issue_ns = float_of_int (Measure.Spans.total_ns spans "issue") in
  let issues = Measure.Spans.count spans "issue" in
  let slice_ns = float_of_int (Measure.Spans.total_ns spans "slice") in
  let host = List.map (fun (n, ns) -> (n, norm ns)) (wl.host_layers ~seed) in
  let common =
    [
      ("sim.events_per_op", events /. ops);
      ("sim.ns_per_event_ref", cost *. Measure.ref_nominal_s *. 1e9 /. events);
      ("sim.minor_words_per_event", r.window_minor /. events);
      ("sim.promoted_words_per_event", (d1.promoted -. d0.promoted) /. events);
      ("sim.major_collections", float_of_int (d1.major - d0.major));
      ("sim.cpu_util_client", util (d1.busy_client - d0.busy_client) r.n_clients);
      ("sim.cpu_util_server", util (d1.busy_server - d0.busy_server) r.n_servers);
      ("netsim.switch_buffer_peak_bytes", r.switch_peak);
      ("netsim.port_drops", float_of_int (d1.port_drops - d0.port_drops));
      ("netsim.pkts_per_op", float_of_int (d1.port_tx - d0.port_tx) /. ops);
      ("nic.rx_dropped_no_desc", float_of_int (d1.nic_rx_dropped - d0.nic_rx_dropped));
      ("nic.pkts_per_op", float_of_int (d1.nic_tx - d0.nic_tx) /. ops);
      ("erpc.retransmits", float_of_int (d1.retransmits - d0.retransmits));
      ("erpc.session_resets", float_of_int (d1.session_resets - d0.session_resets));
      ("erpc.rx_stale", float_of_int (d1.rx_stale - d0.rx_stale));
      ("erpc.cc_updates_per_op", float_of_int (d1.cc_updates - d0.cc_updates) /. ops);
      ("erpc.paced_pkts", float_of_int (d1.paced - d0.paced));
      ("erpc.sessions_opened", float_of_int (d1.sessions - d0.sessions));
    ]
    @ List.concat_map
        (fun (c, (p50, p99)) ->
          [ ("anatomy." ^ c ^ ".p50_ns", p50); ("anatomy." ^ c ^ ".p99_ns", p99) ])
        anatomy
    @ [
        ("obs.trace_cost_ratio", trace_ratio);
        ("obs.trace_heap_ratio", heap_traced /. heap_plain);
        ( "obs.trace_dropped",
          float_of_int (max 0 (traced.window_events - wl.trace_capacity)) );
        ("host.setup.deploy_s", median_of (fun r -> phase_s r "deploy") plain);
        ("host.setup.elect_s", median_of (fun r -> phase_s r "elect") plain);
        ("host.setup.connect_s", median_of (fun r -> phase_s r "connect") plain);
        ("host.setup.warmup_s", median_of (fun r -> phase_s r "warmup") plain);
        ("host.issue_ns_per_op", if issues = 0 then 0. else issue_ns /. float_of_int issues);
        ("host.engine_self_frac", if slice_ns = 0. then 0. else 1. -. (issue_ns /. slice_ns));
        ("host.run_cost_ref", cost);
        ("host.run_cpu_s", median_of (fun r -> r.window_cpu) plain);
        ("host.ref_loop_s", ref_s);
      ]
  in
  let given = common @ o.layer @ host in
  List.map
    (fun (name, unit) ->
      let v = match List.assoc_opt name given with Some v -> v | None -> 0. in
      (name, v, unit))
    per_layer

(* {2 The invocation} *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  named : (string * float * string) list;  (** the workload's own metrics *)
  notes : string list;  (** human-readable lines printed before the JSON *)
}

(* Full repetitions until [budget_s] of wall time is spent (at least
   [min_reps]); each is followed by [extra_setups] set-up-only rounds, so
   set-up time gets more samples than the window. Returns the repetitions,
   every set-up's (CPU s, reference s), and the peak heap after the first
   repetition. *)
let run_reps (wl : Wl.t) ~seed ~budget_s ~min_reps ~extra_setups =
  let start = Unix.gettimeofday () in
  let spans = Measure.Spans.create ~on:false in
  let rec go reps setups heap n =
    if n >= min_reps && Unix.gettimeofday () -. start >= budget_s then
      (List.rev reps, setups, heap)
    else begin
      let r = rep wl ~seed ~trace:None ~spans ~slices:wl.slices in
      let heap = if n = 0 then heap_mb () else heap in
      Gc.compact ();
      let setups = ref ((setup_total r.setup_cpu, r.setup_ref) :: setups) in
      for _ = 1 to extra_setups do
        let _, phases, ref_s = set_up wl ~seed ~trace:None ~spans in
        setups := (setup_total phases, ref_s) :: !setups;
        Gc.compact ()
      done;
      go (r :: reps) !setups heap (n + 1)
    end
  in
  go [] [] 0. 0

let end_to_end_metrics reps setups ~heap =
  let r = List.hd reps in
  let o = r.outcome in
  let _, tail = Measure.honest_tail o.lat ~want:o.tail_want in
  let value = function
    | "lat_p50_us" -> float_of_int (Measure.Samples.percentile o.lat 50.) /. 1e3
    | "lat_tail_us" -> tail
    | "goodput_gbps" -> o.goodput_gbps
    | "setup_s" -> setup_norm setups
    | "alloc_words_per_op" -> r.window_minor /. float_of_int (max 1 o.attempted)
    | "peak_heap_mb" -> heap
    | n -> invalid_arg ("end_to_end_metrics: " ^ n)
  in
  List.map (fun (n, u) -> (n, value n, u)) end_to_end

(* The first repetition's own checks, then that every later one
   reproduced it exactly. *)
let check_reps reps =
  match reps with
  | [] -> [ "no repetition ran" ]
  | first :: rest ->
      let o = first.outcome in
      o.violations
      @ (if o.failed = 0 then []
         else [ Printf.sprintf "%d of %d operations failed" o.failed o.attempted ])
      @ (if first.d1.sessions = first.d0.sessions then []
         else [ "sessions were opened inside the window" ])
      @ List.concat
          (List.mapi
             (fun i r ->
               (if r.fingerprint = first.fingerprint then []
                else
                  [
                    Printf.sprintf "repetition %d did not reproduce repetition 1: %s <> %s"
                      (i + 2) r.fingerprint first.fingerprint;
                  ])
               @
               if r.window_minor = first.window_minor then []
               else
                 [
                   Printf.sprintf "repetition %d allocated %.0f minor words, repetition 1 %.0f"
                     (i + 2) r.window_minor first.window_minor;
                 ])
             rest)

let describe (wl : Wl.t) ~seed reps =
  let o = (List.hd reps).outcome in
  let n = Measure.Samples.count o.lat in
  let tp, _ = Measure.honest_tail o.lat ~want:o.tail_want in
  [
    Printf.sprintf "# workload %s seed %d: %d repetitions, %d ops attempted, %d failed, %d timed"
      wl.name seed (List.length reps) o.attempted o.failed n;
  ]
  @ (if tp < o.tail_want then
       [
         Printf.sprintf "# tail reported at p%g: fewer than ten samples beyond p%g" tp
           o.tail_want;
       ]
     else [])
  @ List.map (fun (n, v, u) -> Printf.sprintf "%s %.6g %s" n v u) o.named
  @ [
      Printf.sprintf "failed_frac %.6g frac"
        (float_of_int o.failed /. float_of_int (max 1 o.attempted));
    ]

let run (wl : Wl.t) ~seed ~seconds ~traced ~spans_out =
  if not traced then begin
    let reps, setups, heap =
      run_reps wl ~seed ~budget_s:seconds ~min_reps:3 ~extra_setups:4
    in
    let o = (List.hd reps).outcome in
    let violations = check_reps reps in
    let metrics = end_to_end_metrics reps setups ~heap in
    {
      correct = violations = [];
      attempted = o.attempted;
      failed = o.failed;
      metrics;
      named = o.named;
      notes =
        describe wl ~seed reps
        @ List.map (fun (n, v, u) -> Printf.sprintf "%s %.6g %s" n v u) metrics
        @ [ Printf.sprintf "host.run_cost_ref %.6g ref" (cost_ref wl reps) ]
        @ List.map (fun v -> "VIOLATION " ^ v) violations;
    }
  end
  else begin
    (* Untraced repetitions first (counters, host cost, heap), then one
       traced repetition with the benchmark-side spans on. *)
    let reps, _, heap_plain =
      run_reps wl ~seed ~budget_s:(seconds /. 2.) ~min_reps:2 ~extra_setups:0
    in
    let trace = Obs.Trace.create ~capacity:wl.trace_capacity () in
    let spans = Measure.Spans.create ~on:true in
    let traced = rep wl ~seed ~trace:(Some trace) ~spans ~slices:wl.traced_slices in
    let heap_traced = heap_mb () in
    let o = (List.hd reps).outcome in
    let breakdowns =
      Obs.Anatomy.analyze
        ~wire_ns:(Experiments.Exp_anatomy.predictor traced.cluster)
        (Obs.Trace.events trace)
    in
    let bad_anatomy =
      List.filter (fun b -> Obs.Anatomy.sum_components b <> b.Obs.Anatomy.total_ns) breakdowns
    in
    let violations =
      check_reps reps
      @ traced.outcome.violations
      @
      if bad_anatomy = [] then []
      else
        [
          Printf.sprintf "%d anatomy breakdowns do not sum to their total"
            (List.length bad_anatomy);
        ]
    in
    let metrics =
      layer_metrics wl ~seed ~plain:reps ~traced ~spans ~breakdowns ~heap_plain ~heap_traced
    in
    (match spans_out with Some path -> Measure.Spans.write spans path | None -> ());
    {
      correct = violations = [];
      attempted = o.attempted;
      failed = o.failed;
      metrics;
      named = o.named;
      notes =
        describe wl ~seed reps
        @ [
            Printf.sprintf "# traced window: %d slices, %d events, ring of %d" wl.traced_slices
              traced.window_events wl.trace_capacity;
          ]
        @ List.map (fun (n, v, u) -> Printf.sprintf "%s %.6g %s" n v u) metrics
        @ List.map (fun v -> "VIOLATION " ^ v) violations;
    }
  end

let json r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.correct r.attempted r.failed;
  List.iteri
    (fun i (n, v, u) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        n (Measure.json_float v) u)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

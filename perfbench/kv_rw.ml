(* kv-rw: the cluster-load layout (CX4 two-tier, 12 hosts) serving the
   sharded replicated KV service — 4 shards x 3-way Raft on hosts 0-5,
   clients on hosts 8-11 — under two open-loop Poisson tenants split by
   operation: GET-only at 40 k/s over Zipf(0.99) keys whose hot spot
   shifts every 25 ms, and PUT-only at 20 k/s over Zipf(0.99) keys. *)

let nodes = 12
let replica_hosts = [| 0; 1; 2; 3; 4; 5 |]
let client_hosts = [| 8; 9; 10; 11 |]
let shards = 4
let replication = 3
let num_keys = 4096
let get_rps = 40_000.
let put_rps = 20_000.
let deadline_ns = 20_000_000
let max_outstanding = 4096
let slices = 20

(* Election timeouts staggered by host, without jitter: host [g] times out
   first among shard [g]'s replicas, so shard [g] is led by host [g] for
   every seed. Leader placement moves PUT latency (a leader with a
   same-ToR follower commits sooner), so pinning it keeps the modeled
   metrics comparable across seeds. *)
let raft_config host =
  let t = 10_000_000 + (host * 2_000_000) in
  {
    Raft.Core.default_config with
    election_timeout_min_ns = t;
    election_timeout_max_ns = t;
  }

let pad v = v ^ String.make (Service.Kv_proto.value_size - String.length v) '\000'

type op = { due_ns : int; key : string; value : string option  (** [None]: a GET *) }

(* The two tenants' arrivals over the window, merged by due time; GETs
   before PUTs at equal times. *)
let inputs ~window_ns seed =
  let rng = Wl.input_rng seed in
  let tenant ~rate ~keygen ~put =
    let arr =
      Workload.Arrival.make (Workload.Arrival.Poisson { rate_rps = rate }) ~rng:(Sim.Rng.split rng)
    in
    let krng = Sim.Rng.split rng in
    let rec go now acc i =
      let next = Workload.Arrival.next_after arr ~now_ns:now in
      if next >= window_ns then List.rev acc
      else
        let key =
          Workload.Keygen.encode (Workload.Keygen.next_at keygen krng ~now_ns:next)
        in
        let value =
          if put then Some (Printf.sprintf "s%d-%d-%d" seed i (Sim.Rng.int krng 1_000_000))
          else None
        in
        go next ({ due_ns = next; key; value } :: acc) (i + 1)
    in
    go 0 [] 0
  in
  let zipf = Workload.Keygen.zipf ~n:num_keys ~theta:0.99 in
  let gets =
    tenant ~rate:get_rps ~put:false
      ~keygen:
        (Workload.Keygen.hot_shift ~base:zipf ~period_ns:25_000_000 ~stride:(num_keys / 4))
  in
  let puts = tenant ~rate:put_rps ~put:true ~keygen:zipf in
  Array.of_list (List.stable_sort (fun a b -> compare a.due_ns b.due_ns) (gets @ puts))

type tenant = {
  lat : Measure.Samples.t;
  mutable ok : int;
  mutable failed : int;
  mutable shed : int;
  mutable outstanding : int;
}

let new_tenant () =
  { lat = Measure.Samples.create (); ok = 0; failed = 0; shed = 0; outstanding = 0 }

let setup ~window_ns ~seed ~trace ~spans ~phase =
  let ops = inputs ~window_ns seed in
  let cluster = Transport.Cluster.cx4 ~nodes () in
  let d = ref None and replicas = ref [||] in
  let map = Service.Shard_map.create ~shards ~replication ~replica_hosts in
  phase "deploy" (fun () ->
      let dep =
        Experiments.Harness.deploy ~seed:(Wl.sim_seed seed) ?trace cluster ~threads_per_host:1
      in
      d := Some dep;
      replicas :=
        Array.map
          (fun host ->
            Service.Replica.create ~fabric:dep.fabric ~nexus:dep.nexuses.(host)
              ~rpc:dep.rpcs.(host).(0) ~map ~host ~raft_config:(raft_config host) ())
          replica_hosts);
  let d = Option.get !d and replicas = !replicas in
  let leader shard =
    Array.find_opt (fun r -> Service.Replica.is_leader r ~shard) replicas
  in
  phase "elect" (fun () ->
      let elected () = List.for_all (fun s -> leader s <> None) (List.init shards Fun.id) in
      let budget = ref 100 in
      while (not (elected ())) && !budget > 0 do
        Wl.run_ns d 1_000_000;
        decr budget
      done;
      List.iter
        (fun s ->
          match leader s with
          | Some r when Service.Replica.host r = replica_hosts.(s) -> ()
          | _ -> failwith (Printf.sprintf "kv-rw: shard %d not led by host %d" s s))
        (List.init shards Fun.id));
  let client_rpcs = Array.map (fun h -> d.rpcs.(h).(0)) client_hosts in
  let pool base =
    Service.Client_pool.create ~fabric:d.fabric ~map ~rpcs:client_rpcs ~base_client_id:base
      ~clients_per_rpc:1 ()
  in
  let get_pool = pool 1 and put_pool = pool 1001 in
  (* Every client opens its session to every shard leader before the
     window: one GET per (client, shard) on a key the shard owns. *)
  phase "connect" (fun () ->
      let shard_key =
        Array.init shards (fun s ->
            let rec find k =
              let key = Workload.Keygen.encode k in
              if Service.Shard_map.shard_of_key map ~key = s then key else find (k + 1)
            in
            find 0)
      in
      let pending = ref 0 and bad = ref 0 in
      List.iter
        (fun p ->
          for _ = 1 to Service.Client_pool.size p do
            let c = Service.Client_pool.next_client p in
            Array.iter
              (fun key ->
                incr pending;
                ignore
                  (Service.Kv_client.get c ~key ~deadline_ns ~cont:(fun r ->
                       decr pending;
                       if Result.is_error r then incr bad)
                    : int))
              shard_key
          done)
        [ get_pool; put_pool ];
      let budget = ref 100 in
      while !pending > 0 && !budget > 0 do
        Wl.run_ns d 100_000;
        decr budget
      done;
      if !pending > 0 || !bad > 0 then failwith "kv-rw: warm-up GETs did not all succeed");
  let get_t = new_tenant () and put_t = new_tenant () in
  let all_lat = Measure.Samples.create () in
  let eng = Wl.engine d in
  let t0 = ref 0 and late_max = ref 0 and stopped = ref false in
  let written = Hashtbl.create 4096 in
  let stats0 = ref (0, 0, 0) in
  let pool_stats () =
    List.fold_left
      (fun (r, x, dl) p ->
        ( r + Service.Client_pool.retries p,
          x + Service.Client_pool.redirects p,
          dl + Service.Client_pool.deadline_exceeded p ))
      (0, 0, 0) [ get_pool; put_pool ]
  in
  let issue i =
    let op = ops.(i) in
    let due = !t0 + op.due_ns in
    late_max := max !late_max (Sim.Time.sub (Sim.Engine.now eng) due);
    let t = if op.value = None then get_t else put_t in
    if t.outstanding >= max_outstanding then t.shed <- t.shed + 1
    else begin
      t.outstanding <- t.outstanding + 1;
      let finish ok =
        t.outstanding <- t.outstanding - 1;
        if ok then begin
          let lat = Sim.Time.sub (Sim.Engine.now eng) due in
          t.ok <- t.ok + 1;
          Measure.Samples.add t.lat lat;
          Measure.Samples.add all_lat lat
        end
        else t.failed <- t.failed + 1
      in
      if op.value <> None then Hashtbl.replace written op.key ();
      Measure.Spans.with_span spans ~op:(i + 1) "issue" (fun () ->
          match op.value with
          | None ->
              Service.Client_pool.get get_pool ~key:op.key ~deadline_ns ~cont:(fun r ->
                  finish (Result.is_ok r))
          | Some value ->
              Service.Client_pool.put put_pool ~key:op.key ~value ~deadline_ns ~cont:(fun r ->
                  finish (Result.is_ok r)))
    end
  in
  (* One pending arrival event at a time: each arrival arms the next. *)
  let rec arm i =
    if i < Array.length ops && not !stopped then
      Sim.Engine.schedule eng (!t0 + ops.(i).due_ns) (fun () ->
          issue i;
          arm (i + 1))
  in
  let slice_ns = window_ns / slices in
  let slice i =
    if i = 0 then begin
      t0 := Sim.Engine.now eng;
      stats0 := pool_stats ();
      arm 0
    end;
    Sim.Engine.run_until eng (!t0 + ((i + 1) * slice_ns))
  in
  let finish () =
    stopped := true;
    (* Drain: every operation ends by its deadline; then heartbeats carry
       the final commit index to every follower. *)
    let budget = ref 50 in
    while get_t.outstanding + put_t.outstanding > 0 && !budget > 0 do
      Wl.run_ns d 1_000_000;
      decr budget
    done;
    Wl.run_ns d 5_000_000;
    let violations = ref [] in
    let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    if get_t.outstanding + put_t.outstanding > 0 then
      violate "kv-rw: operations still outstanding after drain";
    if !late_max > 0 then violate "kv-rw: an arrival was issued %d ns late" !late_max;
    (* Replicas of each shard agree on the commit index and on the value
       of every key the window wrote. *)
    for s = 0 to shards - 1 do
      let group = Array.map (fun h -> replicas.(h)) (Service.Shard_map.group map ~shard:s) in
      let cores = Array.map (fun r -> Service.Replica.raft r ~shard:s) group in
      let ci = Raft.Core.commit_index cores.(0) in
      Array.iter
        (fun c ->
          if Raft.Core.commit_index c <> ci || Raft.Core.last_applied c <> ci then
            violate "kv-rw: shard %d replicas disagree on commit/applied index" s)
        cores;
      Hashtbl.iter
        (fun key () ->
          if Service.Shard_map.shard_of_key map ~key = s then begin
            let v0 = Mica.Store.get (Service.Replica.store group.(0) ~shard:s) ~key in
            if v0 = None then violate "kv-rw: written key %s missing on shard %d" key s;
            Array.iter
              (fun r ->
                if Mica.Store.get (Service.Replica.store r ~shard:s) ~key <> v0 then
                  violate "kv-rw: shard %d replicas disagree on key %s" s key)
              group
          end)
        written
    done;
    let retries, redirects, deadline = pool_stats () in
    let r0, x0, dl0 = !stats0 in
    let commit = Stats.Hist.create () in
    Array.iter
      (fun r -> Stats.Hist.merge ~dst:commit ~src:(Service.Replica.commit_latencies r))
      replicas;
    let cores =
      List.concat_map
        (fun r -> List.map (fun s -> Service.Replica.raft r ~shard:s) (Service.Replica.shards r))
        (Array.to_list replicas)
    in
    let log_words =
      List.fold_left (fun acc c -> acc + Obj.reachable_words (Obj.repr (Raft.Core.log c))) 0 cores
    in
    let log_entries =
      List.fold_left (fun acc c -> acc + Raft.Log.last_index (Raft.Core.log c)) 0 cores
    in
    Array.iter Service.Replica.stop replicas;
    let pct t p = float_of_int (Measure.Samples.percentile t.lat p) /. 1e3 in
    let tail name t =
      let p, v = Measure.honest_tail t.lat ~want:99.9 in
      (name ^ "_" ^ Measure.pct_label p ^ "_us", v, "us")
    in
    let ok = get_t.ok + put_t.ok in
    let failed = get_t.failed + get_t.shed + put_t.failed + put_t.shed in
    let hp p =
      if Stats.Hist.count commit = 0 then 0.
      else float_of_int (Stats.Hist.percentile commit p) /. 1e3
    in
    let sum_replicas f = float_of_int (Array.fold_left (fun a r -> a + f r) 0 replicas) in
    {
      Wl.attempted = Array.length ops;
      failed;
      lat = all_lat;
      tail_want = 99.9;
      goodput_gbps =
        float_of_int (ok * (Service.Kv_proto.key_size + Service.Kv_proto.value_size) * 8)
        /. float_of_int window_ns;
      named =
        [
          ("get_p50_us", pct get_t 50., "us");
          tail "get" get_t;
          ("put_p50_us", pct put_t 50., "us");
          tail "put" put_t;
        ];
      layer =
        [
          ("raft.commit_p50_us", hp 50.);
          ("raft.commit_p99_us", hp 99.);
          ("raft.log_entries", float_of_int log_entries);
          ("raft.log_mb", float_of_int (log_words * (Sys.word_size / 8)) /. 1048576.);
          ("raft.drops", sum_replicas Service.Replica.raft_drops);
          ("service.retries", float_of_int (retries - r0));
          ("service.redirects", float_of_int (redirects - x0));
          ("service.deadline_exceeded", float_of_int (deadline - dl0));
          ("service.dedup_hits", sum_replicas Service.Replica.dedup_hits);
          ("workload.shed", float_of_int (get_t.shed + put_t.shed));
          ("workload.gen_late_ns_max", float_of_int !late_max);
        ];
      violations = List.rev !violations;
    }
  in
  {
    Wl.d;
    clients = Array.to_list client_rpcs;
    servers = Array.to_list (Array.map (fun h -> d.rpcs.(h).(0)) replica_hosts);
    warmup = ignore;
    slice;
    finish;
  }

(* {2 Layer timings outside the simulation}

   The codec and the store, timed on this seed's own requests: each
   operation encoded and decoded as a KV request, each PUT's command framed
   as a one-entry AppendEntries, every PUT applied to and every GET looked
   up in a fresh store. Best of three passes, ns per call. *)

let time_pass n f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let c0 = Measure.cpu_s () in
    f ();
    best := Float.min !best (Measure.cpu_s () -. c0)
  done;
  !best *. 1e9 /. float_of_int (max 1 n)

let host_layers ~window_ns ~seed =
  let ops = inputs ~window_ns seed in
  let n = Array.length ops in
  let puts = List.filter (fun op -> op.value <> None) (Array.to_list ops) in
  let gets = List.filter (fun op -> op.value = None) (Array.to_list ops) in
  let req_buf = Erpc.Msgbuf.alloc ~max_size:Service.Kv_proto.req_size in
  let request i op =
    {
      Service.Kv_proto.op =
        (if op.value = None then Service.Kv_proto.Get else Service.Kv_proto.Put);
      shard = 0;
      client_id = 1;
      seq = i;
      key = op.key;
      value = (match op.value with Some v -> pad v | None -> "");
    }
  in
  let reqs = Array.mapi request ops in
  let codec_kv =
    time_pass n (fun () ->
        Array.iter
          (fun r ->
            Service.Kv_proto.write_request req_buf r;
            ignore (Sys.opaque_identity (Service.Kv_proto.read_request req_buf)))
          reqs)
  in
  let frames =
    List.mapi
      (fun i op ->
        let cmd =
          Service.Kv_proto.encode_cmd ~client_id:1001 ~seq:i ~key:op.key
            ~value:(pad (Option.get op.value))
        in
        Raft.Core.Append_entries
          {
            term = 1;
            leader_id = 0;
            prev_log_index = i;
            prev_log_term = 1;
            entries = [ { Raft.Log.term = 1; cmd } ];
            leader_commit = i;
          })
      puts
  in
  let frame_buf =
    Erpc.Msgbuf.alloc
      ~max_size:(List.fold_left (fun m f -> max m (Service.Kv_proto.raft_frame_size f)) 1 frames)
  in
  let codec_raft =
    time_pass (List.length frames) (fun () ->
        List.iter
          (fun f ->
            Service.Kv_proto.write_raft_frame frame_buf ~shard:0 f;
            ignore (Sys.opaque_identity (Service.Kv_proto.read_raft_frame frame_buf)))
          frames)
  in
  let store = Mica.Store.create () in
  let mica_put =
    time_pass (List.length puts) (fun () ->
        List.iter (fun op -> Mica.Store.put store ~key:op.key ~value:(Option.get op.value)) puts)
  in
  let mica_get =
    time_pass (List.length gets) (fun () ->
        List.iter (fun op -> ignore (Sys.opaque_identity (Mica.Store.get store ~key:op.key))) gets)
  in
  [
    ("codec.kv_request_ns_ref", codec_kv);
    ("codec.raft_frame_ns_ref", codec_raft);
    ("mica.get_ns_ref", mica_get);
    ("mica.put_ns_ref", mica_put);
  ]

let make ?(window_ns = 1_000_000_000) () =
  {
    Wl.name = "kv-rw";
    slices;
    window_ns;
    traced_slices = 2;
    trace_capacity = 1 lsl 20;
    setup = setup ~window_ns;
    host_layers = host_layers ~window_ns;
  }

let workload = make ()

type error = [ `Deadline | `Failed of string ]

(* A session stuck in [Connect_pending] longer than this is assumed to
   have lost its handshake to a crash (SM messages to dead hosts vanish)
   and is replaced on next use. Normal handshakes complete in microseconds
   of simulated time. *)
let connect_grace_ns = 2_000_000

type t = {
  fabric : Erpc.Fabric.t;
  rpc : Erpc.Rpc.t;
  engine : Sim.Engine.t;
  map : Shard_map.t;
  client_id : int;
  backoff_base_ns : int;
  backoff_max_ns : int;
  attempt_timeout_ns : int;
  rng : Sim.Rng.t;
  mutable seq : int;
  sessions : (int, Erpc.Session.session * Sim.Time.t) Hashtbl.t;  (** by host *)
  mutable ok : int;
  mutable deadline_exceeded : int;
  mutable retries : int;
  mutable redirects : int;
  lat : Stats.Hist.t;
}

let create ~fabric ~rpc ~map ~client_id ?(backoff_base_ns = 500_000)
    ?(backoff_max_ns = 8_000_000) ?(attempt_timeout_ns = 5_000_000) () =
  let engine = Erpc.Fabric.engine fabric in
  {
    fabric;
    rpc;
    engine;
    map;
    client_id;
    backoff_base_ns;
    backoff_max_ns;
    attempt_timeout_ns;
    rng = Sim.Rng.split (Sim.Engine.rng engine);
    seq = 0;
    sessions = Hashtbl.create 8;
    ok = 0;
    deadline_exceeded = 0;
    retries = 0;
    redirects = 0;
    lat = Stats.Hist.create ();
  }

let ok t = t.ok
let deadline_exceeded t = t.deadline_exceeded
let retries t = t.retries
let redirects t = t.redirects
let latencies t = t.lat

let session_to t host =
  let fresh () =
    let sess = Erpc.Rpc.create_session t.rpc ~remote_host:host ~remote_rpc_id:0 () in
    Hashtbl.replace t.sessions host (sess, Sim.Engine.now t.engine);
    sess
  in
  match Hashtbl.find_opt t.sessions host with
  | Some (sess, _) when sess.Erpc.Session.state = Erpc.Session.Connected -> sess
  | Some (sess, born) when sess.Erpc.Session.state = Erpc.Session.Connect_pending ->
      if Sim.Time.sub (Sim.Engine.now t.engine) born > connect_grace_ns then fresh ()
      else sess
  | _ -> fresh ()

let invalidate_session t host = Hashtbl.remove t.sessions host

let pad_value v =
  let n = String.length v in
  if n > Kv_proto.value_size then invalid_arg "Kv_client: value too large"
  else if n = Kv_proto.value_size then v
  else v ^ String.make (Kv_proto.value_size - n) '\000'

(* The generic retry loop both operations run on. [finish] fires exactly
   once: the deadline event is armed up front and independent of any
   attempt, so an attempt wedged on a half-open connection cannot stall
   the operation past its deadline. *)
let exec t ~(request : Kv_proto.request) ~deadline_ns
    ~(finish : (Kv_proto.status * string option, error) result -> unit) =
  let shard = request.shard in
  let group = Shard_map.group t.map ~shard in
  let started = Sim.Engine.now t.engine in
  let deadline_abs = Sim.Time.add started deadline_ns in
  let done_ = ref false in
  Sim.Engine.schedule t.engine deadline_abs (fun () ->
      if not !done_ then begin
        done_ := true;
        t.deadline_exceeded <- t.deadline_exceeded + 1;
        finish (Error `Deadline)
      end);
  (* Consecutive redirects since the last success/backoff. Two replicas
     with stale views of each other (common mid-partition: a follower
     still naming the isolated old leader) would otherwise ping-pong the
     client at network speed until the deadline. *)
  let chase = ref 0 in
  let rec attempt n ~forced =
    if not !done_ then begin
      let target =
        match forced with
        | Some h -> h
        | None -> (
            match Shard_map.leader_hint t.map ~shard with
            | Some h -> h
            | None -> group.(n mod Array.length group))
      in
      let sess = session_to t target in
      (* Each attempt carries its own timeout: a request parked behind a
         handshake whose Connect_req died with the target (SM messages to
         dead hosts vanish) gets no transport-level failure signal at all,
         and would otherwise sit wedged until the operation deadline. The
         late continuation, if any, finds [settled] and is ignored — a
         duplicate landing is what the (client_id, seq) dedup absorbs. *)
      let settled = ref false in
      Sim.Engine.schedule_after t.engine t.attempt_timeout_ns (fun () ->
          if (not !done_) && not !settled then begin
            settled := true;
            invalidate_session t target;
            Shard_map.clear_hints_for t.map ~host:target;
            backoff (n + 1)
          end);
      (* [~charge:false]: the service's handler-cost constants already
         model (de)serialization; double-charging would shift every chaos
         trace. The typed layer still owns encode/decode + buffer sizing. *)
      Erpc.Typed.enqueue_request t.rpc sess ~req_type:Kv_proto.kv_req_type
        ~req_codec:Kv_proto.request_codec ~resp_codec:Kv_proto.response_codec
        ~charge:false request
        ~cont:(fun r ->
          if (not !done_) && not !settled then begin
            settled := true;
            match r with
            | Ok (((Kv_proto.Ok_ | Kv_proto.Not_found), _) as outcome) ->
                done_ := true;
                t.ok <- t.ok + 1;
                Shard_map.set_leader_hint t.map ~shard ~host:target;
                Stats.Hist.record t.lat (Sim.Time.sub (Sim.Engine.now t.engine) started);
                finish (Ok outcome)
            | Ok (Kv_proto.Not_leader (Some h), _) ->
                (* Follow the redirect immediately: the hint names the
                   live leader in the common case, and a wrong hint
                   just feeds back here — but only a bounded number of
                   times before conceding the hints are stale and
                   backing off. *)
                t.redirects <- t.redirects + 1;
                Shard_map.set_leader_hint t.map ~shard ~host:h;
                incr chase;
                if !chase <= 3 then attempt (n + 1) ~forced:(Some h)
                else begin
                  Shard_map.clear_leader_hint t.map ~shard;
                  backoff (n + 1)
                end
            | Ok (Kv_proto.Not_leader None, _) ->
                Shard_map.clear_leader_hint t.map ~shard;
                backoff (n + 1)
            | Ok (Kv_proto.Retry hint, _) ->
                (match hint with
                | Some h -> Shard_map.set_leader_hint t.map ~shard ~host:h
                | None -> ());
                backoff (n + 1)
            | Error _ ->
                (* Transport-level failure: the target may be down — stop
                   trusting sessions and hints that point at it. *)
                invalidate_session t target;
                Shard_map.clear_hints_for t.map ~host:target;
                backoff (n + 1)
          end)
    end
  and backoff n =
    chase := 0;
    t.retries <- t.retries + 1;
    let exp = t.backoff_base_ns lsl min n 16 in
    let delay =
      min t.backoff_max_ns (max t.backoff_base_ns exp)
      + Sim.Rng.int t.rng t.backoff_base_ns
    in
    Sim.Engine.schedule_after t.engine delay (fun () -> attempt n ~forced:None)
  in
  attempt 0 ~forced:None

let put t ~key ~value ~deadline_ns ~cont =
  assert (String.length key = Kv_proto.key_size);
  let seq = t.seq in
  t.seq <- t.seq + 1;
  let request =
    {
      Kv_proto.op = Kv_proto.Put;
      shard = Shard_map.shard_of_key t.map ~key;
      client_id = t.client_id;
      seq;
      key;
      value = pad_value value;
    }
  in
  exec t ~request ~deadline_ns ~finish:(function
    | Ok _ -> cont (Ok ())
    | Error e -> cont (Error e));
  seq

let get t ~key ~deadline_ns ~cont =
  assert (String.length key = Kv_proto.key_size);
  let seq = t.seq in
  t.seq <- t.seq + 1;
  let request =
    {
      Kv_proto.op = Kv_proto.Get;
      shard = Shard_map.shard_of_key t.map ~key;
      client_id = t.client_id;
      seq;
      key;
      value = "";
    }
  in
  exec t ~request ~deadline_ns ~finish:(function
    | Ok (Kv_proto.Ok_, v) -> cont (Ok v)
    | Ok _ -> cont (Ok None)
    | Error e -> cont (Error e));
  seq

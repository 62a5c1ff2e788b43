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
  bufs : Buf_pool.t;  (** request/response msgbufs, reused across attempts *)
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
    bufs = Buf_pool.create ~resp_size:Kv_proto.resp_max_size;
  }

let ok t = t.ok
let deadline_exceeded t = t.deadline_exceeded
let retries t = t.retries
let redirects t = t.redirects
let latencies t = t.lat
let msgbuf_pairs t = Buf_pool.allocated t.bufs

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
  else begin
    let b = Bytes.make Kv_proto.value_size '\000' in
    Bytes.blit_string v 0 b 0 n;
    Bytes.unsafe_to_string b
  end

(* One operation's retry state. Its attempts are numbered; [awaiting] is
   the number of the one whose outcome is still wanted, or -1 once that
   attempt has settled, so a late continuation or timeout of an earlier
   attempt finds a different number and is ignored. The deadline event
   shares only [done_] and [finish], so it does not keep the request alive
   for the whole deadline once the operation has completed. *)
type op = {
  client : t;
  request : Kv_proto.request;
  group : int array;
  started : Sim.Time.t;
  finish : (Kv_proto.status * string option, error) result -> unit;
  done_ : bool ref;
  mutable awaiting : int;
  mutable chase : int;
      (** Consecutive redirects since the last success/backoff. Two
          replicas with stale views of each other (common mid-partition: a
          follower still naming the isolated old leader) would otherwise
          ping-pong the client at network speed until the deadline. *)
}

let settle op n =
  if (not !(op.done_)) && op.awaiting = n then begin
    op.awaiting <- -1;
    true
  end
  else false

let rec attempt op n ~forced =
  if not !(op.done_) then begin
    let t = op.client and shard = op.request.shard in
    let target =
      if forced >= 0 then forced
      else
        match Shard_map.leader_hint t.map ~shard with
        | Some h -> h
        | None -> op.group.(n mod Array.length op.group)
    in
    let sess = session_to t target in
    op.awaiting <- n;
    (* Each attempt carries its own timeout: a request parked behind a
       handshake whose Connect_req died with the target (SM messages to
       dead hosts vanish) gets no transport-level failure signal at all,
       and would otherwise sit wedged until the operation deadline. The
       late continuation, if any, finds the attempt settled and is ignored
       — a duplicate landing is what the (client_id, seq) dedup absorbs. *)
    Sim.Engine.schedule_after t.engine t.attempt_timeout_ns (fun () ->
        if settle op n then begin
          invalidate_session t target;
          Shard_map.clear_hints_for t.map ~host:target;
          backoff op (n + 1)
        end);
    let bufs = Buf_pool.take t.bufs ~req_size:Kv_proto.req_size in
    (* [~charge:false]: the service's handler-cost constants already
       model (de)serialization; double-charging would shift every chaos
       trace. The typed layer still owns encode/decode + buffer sizing. *)
    Erpc.Typed.enqueue_request t.rpc sess ~req_type:Kv_proto.kv_req_type
      ~req_codec:Kv_proto.request_codec ~resp_codec:Kv_proto.response_codec ~charge:false
      ~req_buf:bufs.req ~resp_buf:bufs.resp op.request ~cont:(fun r ->
        (* eRPC has handed both buffers back and the response is already
           decoded: the pair is free for the next attempt. *)
        Buf_pool.give t.bufs bufs;
        if settle op n then
          match r with
          | Ok (((Kv_proto.Ok_ | Kv_proto.Not_found), _) as outcome) ->
              op.done_ := true;
              t.ok <- t.ok + 1;
              Shard_map.set_leader_hint t.map ~shard ~host:target;
              Stats.Hist.record t.lat (Sim.Time.sub (Sim.Engine.now t.engine) op.started);
              op.finish (Ok outcome)
          | Ok (Kv_proto.Not_leader (Some h), _) ->
              (* Follow the redirect immediately: the hint names the live
                 leader in the common case, and a wrong hint just feeds
                 back here — but only a bounded number of times before
                 conceding the hints are stale and backing off. *)
              t.redirects <- t.redirects + 1;
              Shard_map.set_leader_hint t.map ~shard ~host:h;
              op.chase <- op.chase + 1;
              if op.chase <= 3 then attempt op (n + 1) ~forced:h
              else begin
                Shard_map.clear_leader_hint t.map ~shard;
                backoff op (n + 1)
              end
          | Ok (Kv_proto.Not_leader None, _) ->
              Shard_map.clear_leader_hint t.map ~shard;
              backoff op (n + 1)
          | Ok (Kv_proto.Retry hint, _) ->
              (match hint with
              | Some h -> Shard_map.set_leader_hint t.map ~shard ~host:h
              | None -> ());
              backoff op (n + 1)
          | Error _ ->
              (* Transport-level failure: the target may be down — stop
                 trusting sessions and hints that point at it. *)
              invalidate_session t target;
              Shard_map.clear_hints_for t.map ~host:target;
              backoff op (n + 1))
  end

and backoff op n =
  let t = op.client in
  op.chase <- 0;
  t.retries <- t.retries + 1;
  let exp = t.backoff_base_ns lsl min n 16 in
  let delay =
    min t.backoff_max_ns (max t.backoff_base_ns exp) + Sim.Rng.int t.rng t.backoff_base_ns
  in
  Sim.Engine.schedule_after t.engine delay (fun () -> attempt op n ~forced:(-1))

(* The generic retry loop both operations run on. [finish] fires exactly
   once: the deadline event is armed up front and independent of any
   attempt, so an attempt wedged on a half-open connection cannot stall
   the operation past its deadline. *)
let exec t ~(request : Kv_proto.request) ~deadline_ns ~finish =
  let started = Sim.Engine.now t.engine in
  let done_ = ref false in
  Sim.Engine.schedule t.engine (Sim.Time.add started deadline_ns) (fun () ->
      if not !done_ then begin
        done_ := true;
        t.deadline_exceeded <- t.deadline_exceeded + 1;
        finish (Error `Deadline)
      end);
  let op =
    {
      client = t;
      request;
      group = Shard_map.group t.map ~shard:request.shard;
      started;
      finish;
      done_;
      awaiting = -1;
      chase = 0;
    }
  in
  attempt op 0 ~forced:(-1)

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

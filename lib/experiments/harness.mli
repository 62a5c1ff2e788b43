(** Shared machinery for the paper's experiments: deployments, echo
    servers, closed-loop request drivers, and measurement phases. *)

type deployment = {
  fabric : Erpc.Fabric.t;
  cluster : Transport.Cluster.t;
  nexuses : Erpc.Nexus.t array;  (** one per host *)
  rpcs : Erpc.Rpc.t array array;  (** [rpcs.(host).(thread)] *)
}

(** Build a fabric and one Nexus per host with [threads_per_host] Rpcs
    each. [register] is called on each Nexus to install request handlers
    before any Rpc is created. *)
val deploy :
  ?seed:int64 ->
  ?config:Erpc.Config.t ->
  ?cost:Erpc.Cost_model.t ->
  ?trace:Obs.Trace.t ->
  ?workers_per_host:int ->
  ?register:(Erpc.Nexus.t -> unit) ->
  Transport.Cluster.t ->
  threads_per_host:int ->
  deployment

(** Advance simulated time by [ms] milliseconds. *)
val run_ms : deployment -> float -> unit

(** Advance simulated time by [us] microseconds. *)
val run_us : deployment -> float -> unit

val now : deployment -> Sim.Time.t

(** The standard echo request handler used by microbenchmarks: responds
    with [resp_size] bytes (default: the request's size). *)
val echo_req_type : int

val register_echo : ?req_type:int -> ?resp_size:int -> Erpc.Nexus.t -> unit

(** Connect [rpc] to a remote Rpc and run the handshake to completion.
    Raises on failure. *)
val connect :
  deployment -> Erpc.Rpc.t -> remote_host:int -> remote_rpc_id:int -> Erpc.Session.session

(** A closed-loop driver keeping [window] requests of [req_size] bytes in
    flight from [rpc], spread over [sessions] chosen uniformly at random,
    issued in batches of [batch]. Completion latencies (ns) are recorded in
    [latencies] when provided. Call {!start_driver} once; it keeps issuing
    until the simulation stops being run. *)
type driver

val make_driver :
  ?latencies:Stats.Hist.t ->
  ?req_size:int ->
  ?resp_size:int ->
  ?batch:int ->
  ?per_batch_cost_ns:int ->
  ?req_type:int ->
  rng:Sim.Rng.t ->
  rpc:Erpc.Rpc.t ->
  sessions:Erpc.Session.session array ->
  window:int ->
  unit ->
  driver

val start_driver : driver -> unit
val driver_completed : driver -> int

(** {2 Typed workloads}

    Schema-driven counterparts of the echo workload: the server decodes
    the request and re-encodes it as the response through {!Erpc.Typed},
    charging modeled (de)serialization. *)

val typed_echo_req_type : int

(** The benchmark schema: all fixed-width (24 wire bytes, 3 leaves). *)
val schema_fixed : ((int * int) * string) Codec.t

val value_fixed : (int * int) * string

(** Install a typed echo handler: decode with [codec], respond with the
    decoded value re-encoded. *)
val register_typed_echo : 'a Codec.t -> Erpc.Nexus.t -> unit

(** As {!driver}, but issuing typed requests carrying [value] under
    [codec], with serialization charged on the datapath. *)
type typed_driver

val make_typed_driver :
  ?batch:int ->
  codec:'a Codec.t ->
  value:'a ->
  rng:Sim.Rng.t ->
  rpc:Erpc.Rpc.t ->
  sessions:Erpc.Session.session array ->
  window:int ->
  unit ->
  typed_driver

val start_typed_driver : typed_driver -> unit

(** Sum of completed client RPCs across all threads of a deployment. *)
val total_completed : deployment -> int

(** MD5 (hex) of a deployment's end state: simulated clock, events
    executed and the RPC stats (handled, retransmits, session resets,
    checksum drops, and the completion-latency checksum
    [latency_ns_sum]) summed over every Rpc. The latency checksum makes
    a pure timing change (a CPU cost moved by 1 ns) show even when the
    clock is fixed by the run length and every counter stays put. It derives only from simulation
    state, so a same-seed rerun reproduces it exactly; golden tests pin it
    per experiment. *)
val fingerprint : deployment -> string

(** The [--rerun] determinism gate: [rerun ~digest run] calls [run] twice
    and returns the first result with no violation if both digests agree,
    else one violation naming both digests. *)
val rerun : digest:('r -> string) -> (unit -> 'r) -> 'r * string list

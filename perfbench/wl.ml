(* What every workload hands the runner, and the closed-loop echo driver
   that rpc-rate and incast-probe share. *)

type outcome = {
  attempted : int;  (** operations due inside the window *)
  failed : int;  (** errors, missed deadlines and shed arrivals among them *)
  lat : Measure.Samples.t;  (** latency (ns) of every timed small operation *)
  tail_want : float;  (** percentile [lat]'s tail is reported at *)
  goodput_gbps : float;
  named : (string * float * string) list;
      (** the workload's own end-to-end metrics: name, value, unit *)
  layer : (string * float) list;  (** workload-specific per-layer metrics *)
  violations : string list;  (** empty on a correct run *)
}

type run = {
  d : Experiments.Harness.deployment;
  clients : Erpc.Rpc.t list;  (** endpoints that issue requests *)
  servers : Erpc.Rpc.t list;  (** endpoints that serve them *)
  warmup : unit -> unit;  (** reach steady state before the window *)
  slice : int -> unit;  (** simulate slice [i] of the window (0-based) *)
  finish : unit -> outcome;
      (** close the window, drain, check correctness, collect *)
}

type t = {
  name : string;
  slices : int;  (** slices the window is cut into *)
  window_ns : int;  (** simulated length of the window *)
  traced_slices : int;  (** leading slices the traced repetition runs *)
  trace_capacity : int;  (** ring size that keeps the traced slices whole *)
  setup :
    seed:int ->
    trace:Obs.Trace.t option ->
    spans:Measure.Spans.t ->
    phase:(string -> (unit -> unit) -> unit) ->
    run;
      (** Build the deployment, timing its stages through [phase]
          ("deploy", "elect", "connect"). *)
  host_layers : seed:int -> (string * float) list;
      (** Layer timings made outside the simulation on the workload's own
          inputs, in raw host ns; the runner normalizes them. *)
}

(* Simulator seed and input seed, both derived from the one [--seed]. *)
let sim_seed seed = Int64.of_int ((seed * 1_000_003) + 17)
let input_rng seed = Sim.Rng.create (Int64.of_int ((seed * 7_919) + 5))

let engine (d : Experiments.Harness.deployment) = Erpc.Fabric.engine d.fabric
let now d = Sim.Engine.now (engine d)

(* Advance the deployment by [ns] of simulated time. *)
let run_ns d ns = Sim.Engine.run_until (engine d) (Sim.Time.add (now d) ns)

(* {2 Closed-loop echo driver}

   Keeps [window] requests of [req_size] bytes outstanding from one Rpc,
   issued in batches of [batch] to sessions picked uniformly at random.
   Unlike the harness driver it checks every completion — it must be [Ok]
   with exactly [resp_size] bytes — and records raw latencies, but only of
   completions inside the measured window. *)

type window = {
  mutable measuring : bool;
  mutable ok : int;
  mutable errors : int;
  mutable bad_size : int;
  lat : Measure.Samples.t;
}

let new_window () =
  { measuring = false; ok = 0; errors = 0; bad_size = 0; lat = Measure.Samples.create () }

type driver = {
  rpc : Erpc.Rpc.t;
  sessions : Erpc.Session.session array;
  rng : Sim.Rng.t;
  req_type : int;
  req_size : int;
  resp_size : int;
  batch : int;
  bufs : (Erpc.Msgbuf.t * Erpc.Msgbuf.t) array;
  free : int array;  (** stack of free buffer-pair indexes *)
  mutable nfree : int;
  mutable issued : int;
  eng : Sim.Engine.t;
  w : window;
  spans : Measure.Spans.t;
}

let make_driver ~w ~spans ~rng ~rpc ~sessions ~req_type ~req_size ~resp_size ~window ~batch =
  {
    rpc;
    sessions;
    rng;
    req_type;
    req_size;
    resp_size;
    batch;
    bufs =
      Array.init window (fun _ ->
          (Erpc.Msgbuf.alloc ~max_size:req_size, Erpc.Msgbuf.alloc ~max_size:resp_size));
    free = Array.init window Fun.id;
    nfree = window;
    issued = 0;
    eng = Erpc.Fabric.engine (Erpc.Nexus.fabric (Erpc.Rpc.nexus rpc));
    w;
    spans;
  }

let rec issue_ready t =
  while t.nfree >= t.batch do
    for _ = 1 to t.batch do
      t.nfree <- t.nfree - 1;
      issue_one t t.free.(t.nfree)
    done
  done

and issue_one t idx =
  let req, resp = t.bufs.(idx) in
  Erpc.Msgbuf.resize req t.req_size;
  let sess = t.sessions.(Sim.Rng.int t.rng (Array.length t.sessions)) in
  let t0 = Sim.Engine.now t.eng in
  t.issued <- t.issued + 1;
  Measure.Spans.with_span t.spans ~op:t.issued "issue" (fun () ->
      Erpc.Rpc.enqueue_request t.rpc sess ~req_type:t.req_type ~req ~resp ~cont:(fun r ->
          let w = t.w in
          if w.measuring then begin
            match r with
            | Ok () ->
                if Erpc.Msgbuf.size resp <> t.resp_size then w.bad_size <- w.bad_size + 1
                else begin
                  w.ok <- w.ok + 1;
                  Measure.Samples.add w.lat (Sim.Time.sub (Sim.Engine.now t.eng) t0)
                end
            | Error _ -> w.errors <- w.errors + 1
          end;
          t.free.(t.nfree) <- idx;
          t.nfree <- t.nfree + 1;
          issue_ready t))

let start_driver = issue_ready

let window_violations name w =
  (if w.errors > 0 then [ Printf.sprintf "%s: %d completions were errors" name w.errors ]
   else [])
  @
  if w.bad_size > 0 then
    [ Printf.sprintf "%s: %d responses had the wrong size" name w.bad_size ]
  else []

(* All sessions of [rpcs] connected; raises otherwise. *)
let check_connected sessions =
  Array.iter
    (Array.iter (fun (s : Erpc.Session.session) ->
         if s.state <> Erpc.Session.Connected then failwith "session not connected"))
    sessions

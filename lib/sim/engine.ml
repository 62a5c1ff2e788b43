type t = {
  queue : (unit -> unit) Timing_wheel.t;
  mutable clock : Time.t;
  master_rng : Rng.t;
  mutable executed : int;
  mutable trace : Obs.Trace.t;
  metrics : Obs.Metrics.t;
}

let create ?(seed = 42L) () =
  let t =
    {
      queue = Timing_wheel.create ();
      clock = Time.zero;
      master_rng = Rng.create seed;
      executed = 0;
      trace = Obs.Trace.disabled;
      metrics = Obs.Metrics.create ();
    }
  in
  (* Queue-shape gauges: pending event count plus the wheel's occupied-slot
     load factor. *)
  Obs.Metrics.gauge t.metrics ~name:"sim.queue_depth" (fun () ->
      float_of_int (Timing_wheel.length t.queue));
  Obs.Metrics.gauge t.metrics ~name:"sim.wheel_occupancy" (fun () ->
      float_of_int (Timing_wheel.occupied_slots t.queue));
  t

let now t = t.clock
let rng t = t.master_rng
let trace t = t.trace
let set_trace t tr = t.trace <- tr
let metrics t = t.metrics

let schedule t at f =
  if at < t.clock then
    invalid_arg
      (Format.asprintf "Engine.schedule: time %a is before now %a" Time.pp at Time.pp t.clock);
  Timing_wheel.push t.queue at f

let schedule_after t delta f = schedule t (Time.add t.clock delta) f

let schedule_id t at f =
  let id = Timing_wheel.next_seq t.queue in
  schedule t at f;
  id

let current_id t = Timing_wheel.last_seq t.queue

(* Sentinel for the fused pop: a statically allocated closure no caller
   can accidentally schedule (closures without free variables are unique
   per definition site). *)
let null_event () = ()

let run_until t horizon =
  let q = t.queue in
  let continue = ref true in
  while !continue do
    let f = Timing_wheel.pop_if_before q horizon ~default:null_event in
    if f == null_event then continue := false
    else begin
      t.clock <- Timing_wheel.last_time q;
      t.executed <- t.executed + 1;
      f ()
    end
  done;
  if t.clock < horizon then t.clock <- horizon

let run t =
  let q = t.queue in
  let continue = ref true in
  while !continue do
    let f = Timing_wheel.pop_if_before q max_int ~default:null_event in
    if f == null_event then continue := false
    else begin
      t.clock <- Timing_wheel.last_time q;
      t.executed <- t.executed + 1;
      f ()
    end
  done

let events_processed t = t.executed
let pending t = Timing_wheel.length t.queue

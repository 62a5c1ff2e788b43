type handler_mode = Dispatch | Worker
type handler = Req_handle.t -> unit

type worker = {
  cpu : Sim.Cpu.t;
  jobs : (Sim.Cpu.t -> unit) Sim.Ring.t;
  mutable running : bool;
  mutable inflight : int;  (* submitted jobs whose charged work has not finished *)
  mutable current : Sim.Cpu.t -> unit;  (* the job between its start and finish events *)
  mutable start_ev : unit -> unit;  (* preallocated, so a job schedules no closure *)
  mutable finish_ev : unit -> unit;
}

(* Packets for an unregistered Rpc id are dropped. *)
let no_route pkt = Netsim.Packet.free pkt

type t = {
  fabric : Fabric.t;
  host : int;
  mutable handlers : (handler_mode * handler) option array;
      (* indexed by request type; the options are built once, at
         registration, so a lookup allocates nothing *)
  workers : worker array;
  mutable rx_routes : (Netsim.Packet.t -> unit) array;
      (* indexed by Rpc id; [no_route] where none is registered *)
  mutable dead : bool;
}

let drain_worker t w =
  if Sim.Ring.is_empty w.jobs then w.running <- false
  else begin
    w.current <- Sim.Ring.take w.jobs;
    Sim.Engine.schedule (Fabric.engine t.fabric) (Sim.Cpu.start_slice w.cpu) w.start_ev
  end

let start_job t w () =
  let job = w.current in
  w.current <- ignore;
  if not t.dead then job w.cpu;
  (* The next job may begin once this one's charged work ends. *)
  Sim.Engine.schedule (Fabric.engine t.fabric) (Sim.Cpu.next_free w.cpu) w.finish_ev

let finish_job t w () =
  w.inflight <- w.inflight - 1;
  drain_worker t w

let create fabric ~host ?(num_workers = 1) () =
  let engine = Fabric.engine fabric in
  let t =
    {
      fabric;
      host;
      handlers = [||];
      workers =
        Array.init num_workers (fun i ->
            {
              cpu = Sim.Cpu.create engine ~name:(Printf.sprintf "h%d-worker%d" host i);
              jobs = Sim.Ring.create ~dummy:ignore ();
              running = false;
              inflight = 0;
              current = ignore;
              start_ev = ignore;
              finish_ev = ignore;
            });
      rx_routes = [||];
      dead = false;
    }
  in
  Array.iter
    (fun w ->
      w.start_ev <- start_job t w;
      w.finish_ev <- finish_job t w)
    t.workers;
  Netsim.Network.attach (Fabric.net fabric) ~host ~rx:(fun pkt ->
      if t.dead then Netsim.Packet.free pkt
      else
        match pkt.Netsim.Packet.body with
        | Wire.Pkt { dst_rpc; _ } when dst_rpc >= 0 && dst_rpc < Array.length t.rx_routes ->
            t.rx_routes.(dst_rpc) pkt
        | _ -> Netsim.Packet.free pkt);
  Fabric.on_host_killed fabric (fun h -> if h = host then t.dead <- true);
  Fabric.on_host_restart fabric (fun h -> if h = host then t.dead <- false);
  t

let fabric t = t.fabric
let host t = t.host
let dead t = t.dead

let handler t req_type =
  if req_type >= 0 && req_type < Array.length t.handlers then t.handlers.(req_type) else None

let register_handler t ~req_type ~mode fn =
  if req_type < 0 then
    invalid_arg (Printf.sprintf "Nexus.register_handler: negative req_type %d" req_type);
  if Option.is_some (handler t req_type) then
    invalid_arg (Printf.sprintf "Nexus.register_handler: req_type %d already registered" req_type);
  let n = Array.length t.handlers in
  if req_type >= n then begin
    let grown = Array.make (max (req_type + 1) (2 * n)) None in
    Array.blit t.handlers 0 grown 0 n;
    t.handlers <- grown
  end;
  t.handlers.(req_type) <- Some (mode, fn)

let register_rx t ~rpc_id ~rx =
  if rpc_id < 0 then invalid_arg (Printf.sprintf "Nexus.register_rx: negative Rpc id %d" rpc_id);
  let n = Array.length t.rx_routes in
  if rpc_id < n && t.rx_routes.(rpc_id) != no_route then
    invalid_arg (Printf.sprintf "Nexus.register_rx: Rpc id %d already exists on host %d" rpc_id t.host);
  if rpc_id >= n then begin
    let routes = Array.make (max (rpc_id + 1) (2 * n)) no_route in
    Array.blit t.rx_routes 0 routes 0 n;
    t.rx_routes <- routes
  end;
  t.rx_routes.(rpc_id) <- rx

let submit_worker t job =
  if Array.length t.workers = 0 then invalid_arg "Nexus.submit_worker: no worker threads";
  let best = ref t.workers.(0) in
  for i = 0 to Array.length t.workers - 1 do
    let w = t.workers.(i) in
    let better =
      w.inflight < !best.inflight
      || (w.inflight = !best.inflight && Sim.Cpu.next_free w.cpu < Sim.Cpu.next_free !best.cpu)
    in
    if better then best := w
  done;
  let w = !best in
  w.inflight <- w.inflight + 1;
  Sim.Ring.push w.jobs job;
  if not w.running then begin
    w.running <- true;
    drain_worker t w
  end

let num_workers t = Array.length t.workers
let worker_cpu t i = t.workers.(i).cpu

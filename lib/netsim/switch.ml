type t = {
  engine : Sim.Engine.t;
  name : string;
  latency_ns : int;
  pool : Buffer_pool.t;
  mutable ports : Port.t array;
  mutable num_ports : int;
  mutable routes : int array array;
      (* destination host -> candidate egress ports; [||] = no route *)
  (* Packets crossing the switching fabric, paired with their egress port
     index. The transit latency is constant, so the preallocated [on_hop]
     event pops in scheduling order — no per-packet closure. *)
  transit : Packet.t Sim.Ring.t;
  transit_port : int Sim.Ring.t;
  mutable on_hop : unit -> unit;
}

let hop t =
  let pkt = Sim.Ring.take t.transit in
  let pi = Sim.Ring.take t.transit_port in
  ignore (Port.send t.ports.(pi) pkt)

let create engine ~name ~latency_ns ~buffer_bytes ~alpha =
  let t =
    {
      engine;
      name;
      latency_ns;
      pool = Buffer_pool.create ~capacity_bytes:buffer_bytes ~alpha;
      ports = [||];
      num_ports = 0;
      routes = [||];
      transit = Sim.Ring.create ~capacity:64 ~dummy:Packet.nil ();
      transit_port = Sim.Ring.create ~capacity:64 ~dummy:0 ();
      on_hop = (fun () -> ());
    }
  in
  t.on_hop <- (fun () -> hop t);
  let m = Sim.Engine.metrics engine in
  let labels = [ ("switch", name) ] in
  Obs.Metrics.gauge m ~name:"switch.buffer_used" ~labels (fun () ->
      float_of_int (Buffer_pool.used t.pool));
  Obs.Metrics.gauge m ~name:"switch.buffer_max" ~labels (fun () ->
      float_of_int (Buffer_pool.max_used t.pool));
  t

let name t = t.name
let pool t = t.pool

let add_port t port =
  if t.num_ports >= Array.length t.ports then begin
    let cap = max 8 (2 * Array.length t.ports) in
    let ports = Array.make cap port in
    Array.blit t.ports 0 ports 0 t.num_ports;
    t.ports <- ports
  end;
  t.ports.(t.num_ports) <- port;
  t.num_ports <- t.num_ports + 1;
  t.num_ports - 1

let port t i =
  assert (i >= 0 && i < t.num_ports);
  t.ports.(i)

let num_ports t = t.num_ports

let set_route t ~dst ~ports =
  if Array.length ports = 0 then
    invalid_arg (Printf.sprintf "Switch %s: empty port set for host %d" t.name dst);
  if dst < 0 then invalid_arg (Printf.sprintf "Switch %s: negative host %d" t.name dst);
  if dst >= Array.length t.routes then begin
    let routes = Array.make (max (dst + 1) (2 * Array.length t.routes)) [||] in
    Array.blit t.routes 0 routes 0 (Array.length t.routes);
    t.routes <- routes
  end;
  t.routes.(dst) <- ports

let receive t pkt =
  let dst = pkt.Packet.dst in
  let candidates = if dst >= 0 && dst < Array.length t.routes then t.routes.(dst) else [||] in
  let n = Array.length candidates in
  if n = 0 then invalid_arg (Printf.sprintf "Switch %s: no route for host %d" t.name dst);
  let idx = if n = 1 then 0 else pkt.Packet.flow_hash mod n in
  Sim.Ring.push t.transit pkt;
  Sim.Ring.push t.transit_port candidates.(idx);
  Sim.Engine.schedule_after t.engine t.latency_ns t.on_hop

let dropped_packets t =
  let total = ref 0 in
  for i = 0 to t.num_ports - 1 do
    total := !total + Port.dropped_packets t.ports.(i)
  done;
  !total

let max_buffer_used t = Buffer_pool.max_used t.pool

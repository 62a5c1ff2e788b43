(** An output-queued switch with a shared dynamic buffer.

    Ingress adds a fixed cut-through latency, then the packet is routed to
    an egress {!Port} chosen by destination (with ECMP hashing across
    equal-cost ports). All egress ports share the switch's {!Buffer_pool}. *)

type t

val create :
  Sim.Engine.t ->
  name:string ->
  latency_ns:int ->
  buffer_bytes:int ->
  alpha:float ->
  t

val name : t -> string
val pool : t -> Buffer_pool.t

(** [add_port t port] registers an egress port and returns its index. *)
val add_port : t -> Port.t -> int

val port : t -> int -> Port.t
val num_ports : t -> int

(** [set_route t ~dst ~ports] routes packets for host [dst] to one of
    [ports] (ECMP by flow hash). Raises [Invalid_argument] naming the
    switch and [dst] if [ports] is empty (a packet for [dst] would have
    nowhere to go) or [dst] is negative. *)
val set_route : t -> dst:int -> ports:int array -> unit

(** Ingress entry point. *)
val receive : t -> Packet.t -> unit

(** Packets dropped at this switch (buffer admission failures). *)
val dropped_packets : t -> int

val max_buffer_used : t -> int

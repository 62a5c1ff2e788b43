(** eRPC's on-wire packet format over the datagram network.

    [dst_rpc] plays the role of the UDP destination port used for NIC flow
    steering to the right Rpc's receive queue. Data packets carry a
    zero-copy [(data, off, len)] slice of the sender's msgbuf (the "DMA
    read" references the buffer in place); control packets (CR/RFR) carry
    none. Corruption injected in flight is modeled as a per-frame error
    flag ({!Netsim.Packet.t.corrupted}) rather than real bit flips, since
    flipping shared payload bytes would corrupt the sender's memory; the
    observable behavior — the receiver's checksum verification fails and
    the packet is dropped — is identical. *)

type Netsim.Packet.body +=
  | Pkt of {
      mutable dst_rpc : int;
      hdr : Pkthdr.t;  (** owned by the packet, rewritten on every reuse *)
      mutable data : bytes;  (** payload backing store (sender's msgbuf) *)
      mutable off : int;
      mutable len : int;
    }  (** Fields are mutable so pooled packets are rewritten in place. *)

(** Per-endpoint free-list of recycled wire packets. In steady state
    {!make} allocates nothing: the packet record, its [Pkt] body and its
    header are reused. *)
type pool

val create_pool : unit -> pool

(** Pool-allocated packets currently in flight (diagnostics). *)
val pool_outstanding : pool -> int

(** Packets served from the free-list so far (diagnostics). *)
val pool_recycled : pool -> int

(** [make pool ...] builds a wire packet, drawing the record from [pool]'s
    free-list when possible (it returns there on {!Netsim.Packet.free}).
    The header fields are written into the packet's own header. The
    payload is referenced as the slice [data], [off], [len] — never copied;
    control packets pass [Bytes.empty] and a zero length. The wire size is
    [len + wire_overhead]. *)
val make :
  pool ->
  src_host:int ->
  dst_host:int ->
  dst_rpc:int ->
  wire_overhead:int ->
  flow:int ->
  req_type:int ->
  msg_size:int ->
  dest_session:int ->
  pkt_type:Pkthdr.pkt_type ->
  pkt_num:int ->
  req_num:int ->
  token:int ->
  ecn_echo:bool ->
  data:bytes ->
  off:int ->
  len:int ->
  Netsim.Packet.t

(** Wire-checksum verification: [false] for packets mangled in flight. *)
val verify : Netsim.Packet.t -> bool

(** Corrupt the frame so checksum verification fails. [bit] is accepted
    for injector compatibility; which bit flips does not change the
    modeled outcome. This is the corrupter the fault injector installs via
    {!Netsim.Network.set_corrupter}. *)
val corrupt : ?bit:int -> Netsim.Packet.t -> unit

(** Flow-hash for ECMP: all packets of a session take one path. *)
val flow_hash : src_host:int -> dst_host:int -> sn:int -> int

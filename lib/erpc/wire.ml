type Netsim.Packet.body +=
  | Pkt of {
      mutable dst_rpc : int;
      hdr : Pkthdr.t;
      mutable data : bytes;
      mutable off : int;
      mutable len : int;
    }

(* Free-list of recycled packets, linked through [Packet.pool_next] and
   terminated by [Packet.nil]. Each endpoint owns one pool, so in steady
   state the TX path allocates nothing: a recycled record, its [Pkt] body
   and the header the body owns are all rewritten in place. *)
type pool = {
  mutable head : Netsim.Packet.t;
  mutable release : Netsim.Packet.t -> unit;
  mutable outstanding : int;  (* live packets minus recycled ones *)
  mutable recycled : int;
}

let create_pool () =
  let p =
    { head = Netsim.Packet.nil; release = Netsim.Packet.no_release; outstanding = 0; recycled = 0 }
  in
  p.release <-
    (fun pkt ->
      (* Scrub the payload reference so a parked packet does not pin
         somebody's msgbuf. The header holds no pointers. *)
      (match pkt.Netsim.Packet.body with
      | Pkt r ->
          r.data <- Bytes.empty;
          r.off <- 0;
          r.len <- 0
      | _ -> ());
      p.outstanding <- p.outstanding - 1;
      p.recycled <- p.recycled + 1;
      pkt.Netsim.Packet.pool_next <- p.head;
      p.head <- pkt);
  p

let pool_outstanding p = p.outstanding
let pool_recycled p = p.recycled

let make pool ~src_host ~dst_host ~dst_rpc ~wire_overhead ~flow ~req_type ~msg_size
    ~dest_session ~pkt_type ~pkt_num ~req_num ~token ~ecn_echo ~data ~off ~len =
  let size_bytes = len + wire_overhead in
  pool.outstanding <- pool.outstanding + 1;
  let pkt = pool.head in
  if pkt == Netsim.Packet.nil then begin
    let hdr =
      { Pkthdr.req_type; msg_size; dest_session; pkt_type; pkt_num; req_num; token; ecn_echo }
    in
    let pkt =
      Netsim.Packet.make ~src:src_host ~dst:dst_host ~size_bytes ~flow_hash:flow
        (Pkt { dst_rpc; hdr; data; off; len })
    in
    pkt.Netsim.Packet.release <- pool.release;
    pkt
  end
  else begin
    pool.head <- pkt.Netsim.Packet.pool_next;
    pkt.Netsim.Packet.pool_next <- Netsim.Packet.nil;
    Netsim.Packet.reinit pkt ~src:src_host ~dst:dst_host ~size_bytes ~flow_hash:flow;
    (match pkt.Netsim.Packet.body with
    | Pkt r ->
        r.dst_rpc <- dst_rpc;
        r.data <- data;
        r.off <- off;
        r.len <- len;
        let h = r.hdr in
        h.Pkthdr.req_type <- req_type;
        h.msg_size <- msg_size;
        h.dest_session <- dest_session;
        h.pkt_type <- pkt_type;
        h.pkt_num <- pkt_num;
        h.req_num <- req_num;
        h.token <- token;
        h.ecn_echo <- ecn_echo
    | _ -> assert false);
    pkt
  end

let verify pkt = not pkt.Netsim.Packet.corrupted

let corrupt ?bit pkt =
  (* The payload is a zero-copy slice of the sender's live msgbuf, so bit
     flips cannot be applied to the backing bytes without corrupting the
     sender's memory. Modeled instead as a per-frame error flag, which is
     what the wire checksum reduces to in a simulator that models error
     detection rather than adversarial collisions. *)
  ignore bit;
  pkt.Netsim.Packet.corrupted <- true

let flow_hash ~src_host ~dst_host ~sn =
  let h = (src_host * 1_000_003) + (dst_host * 7_919) + (sn * 131) in
  h land max_int

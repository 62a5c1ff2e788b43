(** Typed RPC: schemas on the datapath (paper §3.1's "layer on top").

    Bridges {!Codec} schemas and eRPC msgbufs while preserving the
    zero-copy story: requests encode directly into the TX msgbuf, servers
    decode straight from the RX ring view, and every encode/decode charges
    the modeled per-field CPU cost to the CPU that would do the work — so
    typed workloads pay for marshalling in the same currency as the rest
    of the datapath.

    [?charge:false] keeps a call timing-neutral — used by services whose
    handler charges already account for marshalling. *)

(** {1 Msgbuf encode/decode} *)

val write : 'a Codec.t -> Msgbuf.t -> 'a -> unit
(** [write c m v] resizes [m] to the encoded size and encodes [v] at
    offset 0. Raising behavior (the buffer is not mutated in either case):
    [Invalid_argument] if [m] is eRPC-owned (in flight — this includes
    RX-ring views), or if the encoded size exceeds [m]'s capacity. Checked
    {e before} the resize, so composing sized wrappers like
    [Codec.with_checksum] cannot leave a half-resized buffer behind. *)

val read : 'a Codec.t -> Msgbuf.t -> 'a
(** Decode a whole message from the msgbuf's current contents, zero-copy
    (reads the underlying storage in place; valid on RX views). Raises
    {!Codec.Decode_error} on malformed input. *)

(** {1 Client side} *)

val enqueue_request :
  Rpc.t ->
  Session.session ->
  req_type:int ->
  req_codec:'req Codec.t ->
  resp_codec:'resp Codec.t ->
  ?charge:bool ->
  ?req_buf:Msgbuf.t ->
  ?resp_buf:Msgbuf.t ->
  ?resp_max:int ->
  'req ->
  cont:(('resp, Err.t) result -> unit) ->
  unit
(** Typed [Rpc.enqueue_request]: encodes the request (into [req_buf] if
    given, else a fresh exactly-sized msgbuf), charges serialization
    before admission, and hands [cont] the {e decoded} response —
    deserialization is charged inside the request's lifetime, before its
    completion milestone. A response that fails to decode surfaces as
    [Error (Session_error _)].

    The response buffer is [resp_buf] if given, else sized from
    [resp_max] or the codec's static bound — an unbounded response codec
    with neither raises [Invalid_argument]. [charge] defaults to [true]. *)

(** {1 Server side} *)

val read_request : ?charge:bool -> Req_handle.t -> 'a Codec.t -> 'a
(** Decode the request zero-copy from the handler's msgbuf (usually an RX
    ring view) and charge deserialization to the thread running the
    handler. *)

val respond : ?charge:bool -> Req_handle.t -> 'a Codec.t -> 'a -> unit
(** Encode a typed response through [Req_handle.init_response] (so the
    slot's preallocated MTU buffer is used when it fits), charge
    serialization, and enqueue it. *)

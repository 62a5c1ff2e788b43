(** Server-side handle passed to request handlers (paper §3.1).

    A handler reads the request, obtains a response buffer with
    [init_response] (eRPC transparently uses the slot's preallocated
    MTU-sized msgbuf when the response fits, §4.3), models its compute time
    with [charge], and calls [enqueue_response] — immediately, or later for
    nested RPCs.

    {b Lifetime.} Each server session slot owns one handle, as eRPC keeps
    per-request state in its preallocated session slots. The owning {!Rpc}
    rebinds it to every request that arrives on the slot. A handle is valid
    from the handler's invocation until its [enqueue_response]; a handler
    may keep it across events and respond later (a deferred response).
    After [enqueue_response] the handle is reused for the slot's next
    request, so it must not be kept. [enqueue_response] raises on a handle
    that already responded, and on one whose slot has begun a newer
    request; once that newer request's handler runs, the same handle is
    valid again for it, so a reference kept past [enqueue_response] cannot
    be told from the current one.

    The record is transparent for {!Rpc}, which installs the closures once
    per slot or endpoint; handlers use only the functions below. *)

type t = {
  mutable req_type : int;
  mutable req : Msgbuf.t;
  mutable req_num : int;  (** the slot's request number, stamped at invocation *)
  mutable responded : bool;
  mutable cpu : Sim.Cpu.t;  (** the thread running the handler: dispatch or worker *)
  mutable resp : Msgbuf.t;  (** a worker handler's response on its way to dispatch *)
  mutable prealloc_resp : Msgbuf.t;  (** the slot's MTU-sized response, {!Msgbuf.nil} until used *)
  mutable slot_req_num : unit -> int;  (** the slot's current request number *)
  mutable charge_fn : t -> int -> unit;
  mutable init_resp_fn : t -> int -> Msgbuf.t;
  mutable codec_charge_fn : t -> deser:bool -> leaves:int -> bytes:int -> unit;
  mutable enqueue_fn : t -> Msgbuf.t -> unit;
  mutable run_on_worker : Sim.Cpu.t -> unit;  (** a Worker-mode request's job *)
}

val get_request : t -> Msgbuf.t

(** Model [ns] of handler CPU work on the thread running the handler. *)
val charge : t -> int -> unit

(** Charge one encode/decode to the thread running the handler, priced by
    the endpoint's cost model. Used by {!Typed}; handlers normally don't
    call it directly. *)
val charge_codec : t -> deser:bool -> leaves:int -> bytes:int -> unit

(** Obtain a response buffer of [size] bytes. *)
val init_response : t -> size:int -> Msgbuf.t

(** Complete the RPC. May be called once per request, from a
    dispatch-thread context (worker handlers route through the background
    queue automatically). Raises [Invalid_argument] if the slot has begun
    a newer request or the handle already responded; it never sends a
    response for another request than the one the handle was invoked
    for. *)
val enqueue_response : t -> Msgbuf.t -> unit

(** Internal constructor used by {!Rpc}: a handle with no-op closures,
    charging [cpu], which the owner then installs. *)
val create : cpu:Sim.Cpu.t -> t

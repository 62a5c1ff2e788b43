(** A free stack of (request, response) msgbuf pairs for one RPC sender.

    eRPC hands a request's msgbufs back to the application when it runs
    the continuation (§3.1), so a sender that returns its pair at the top
    of each continuation reuses a small working set instead of allocating
    two buffers per RPC. A pair whose continuation never runs is simply
    never given back and goes to the GC. *)

type pair = private { mutable req : Erpc.Msgbuf.t; resp : Erpc.Msgbuf.t }
type t

(** Pairs are allocated on demand, with response buffers of [resp_size]
    bytes. *)
val create : resp_size:int -> t

(** A free pair whose request buffer holds at least [req_size] bytes: the
    most recently given back one, its request buffer replaced by one of
    [req_size] bytes if it is too small, or a fresh pair when none is
    free. *)
val take : t -> req_size:int -> pair

(** Return a pair whose continuation has run. *)
val give : t -> pair -> unit

(** Pairs allocated so far: in flight, free, or lost to attempts that
    never completed. *)
val allocated : t -> int

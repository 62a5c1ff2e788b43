type t = {
  mutable req_type : int;
  mutable req : Msgbuf.t;
  mutable req_num : int;
  mutable responded : bool;
  mutable cpu : Sim.Cpu.t;
  mutable resp : Msgbuf.t;
  mutable prealloc_resp : Msgbuf.t;
  mutable slot_req_num : unit -> int;
  mutable charge_fn : t -> int -> unit;
  mutable init_resp_fn : t -> int -> Msgbuf.t;
  mutable codec_charge_fn : t -> deser:bool -> leaves:int -> bytes:int -> unit;
  mutable enqueue_fn : t -> Msgbuf.t -> unit;
  mutable run_on_worker : Sim.Cpu.t -> unit;
}

let get_request t = t.req

let charge t ns = t.charge_fn t ns

let charge_codec t ~deser ~leaves ~bytes = t.codec_charge_fn t ~deser ~leaves ~bytes

let init_response t ~size = t.init_resp_fn t size

let enqueue_response t resp =
  let current = t.slot_req_num () in
  if t.req_num <> current then
    invalid_arg
      (Printf.sprintf
         "Req_handle.enqueue_response: stale handle for request %d (its slot is at request %d)"
         t.req_num current);
  if t.responded then invalid_arg "Req_handle.enqueue_response: already responded";
  t.responded <- true;
  t.enqueue_fn t resp

let create ~cpu =
  {
    req_type = -1;
    req = Msgbuf.nil;
    req_num = -1;
    responded = true;
    cpu;
    resp = Msgbuf.nil;
    prealloc_resp = Msgbuf.nil;
    slot_req_num = (fun () -> -1);
    charge_fn = (fun _ _ -> ());
    init_resp_fn = (fun _ size -> Msgbuf.alloc ~max_size:size);
    codec_charge_fn = (fun _ ~deser:_ ~leaves:_ ~bytes:_ -> ());
    enqueue_fn = (fun _ _ -> invalid_arg "Req_handle: enqueue_fn not installed");
    run_on_worker = (fun _ -> ());
  }

(* Typed RPC over msgbufs: encode directly into TX buffers, decode
   zero-copy from RX views, and charge the modeled per-field codec cost to
   the owning CPU at the point on the datapath where the work happens. *)

(* Every entry point sizes a message once and hands the size down. *)
let write_sized c m v n =
  if Msgbuf.owner m = Msgbuf.Owned_by_erpc then
    invalid_arg "Typed.write: msgbuf is in flight (eRPC-owned)";
  if n > Msgbuf.max_size m then
    invalid_arg
      (Printf.sprintf "Typed.write: encoded size %d exceeds msgbuf capacity %d" n
         (Msgbuf.max_size m));
  Msgbuf.resize m n;
  ignore (Codec.encode c (Msgbuf.unsafe_bytes m) (Msgbuf.unsafe_offset m) v)

let write c m v = write_sized c m v (Codec.size c v)

let read c m =
  Codec.decode c (Msgbuf.unsafe_bytes m) ~off:(Msgbuf.unsafe_offset m) ~len:(Msgbuf.size m)

(* {2 Client side} *)

let enqueue_request rpc sess ~req_type ~req_codec ~resp_codec ?(charge = true) ?req_buf
    ?resp_buf ?resp_max v ~cont =
  let n = Codec.size req_codec v in
  let req = match req_buf with Some m -> m | None -> Msgbuf.alloc ~max_size:n in
  write_sized req_codec req v n;
  (* Serialization happens (and is charged) before admission, so its span
     sits between the request's start and its first TX. *)
  if charge then
    Rpc.charge_codec rpc ~deser:false ~leaves:(Codec.leaf_count req_codec v) ~bytes:n;
  let resp =
    match resp_buf with
    | Some m -> m
    | None ->
        let max_size =
          match (resp_max, Codec.bound resp_codec) with
          | Some n, _ | None, Some n -> n
          | None, None ->
              invalid_arg
                "Typed.enqueue_request: response codec is unbounded; pass ~resp_max or \
                 ~resp_buf"
        in
        Msgbuf.alloc ~max_size
  in
  let decoded = ref None in
  let on_complete resp_m =
    match read resp_codec resp_m with
    | r ->
        if charge then
          Rpc.charge_codec rpc ~deser:true
            ~leaves:(Codec.leaf_count resp_codec r)
            ~bytes:(Msgbuf.size resp_m);
        decoded := Some (Ok r)
    | exception Codec.Decode_error e ->
        decoded := Some (Error (Err.Session_error ("response decode: " ^ e)))
  in
  Rpc.enqueue_request_hooked rpc sess ~req_type ~req ~resp ~on_complete ~cont:(function
    | Ok () -> (
        match !decoded with
        | Some r -> cont r
        | None -> cont (Error (Err.Session_error "typed completion without response")))
    | Error e -> cont (Error e))

(* {2 Server side} *)

let read_request ?(charge = true) h c =
  let m = Req_handle.get_request h in
  let v = read c m in
  if charge then
    Req_handle.charge_codec h ~deser:true ~leaves:(Codec.leaf_count c v) ~bytes:(Msgbuf.size m);
  v

let respond ?(charge = true) h c v =
  let n = Codec.size c v in
  let resp = Req_handle.init_response h ~size:n in
  ignore (Codec.encode c (Msgbuf.unsafe_bytes resp) (Msgbuf.unsafe_offset resp) v);
  if charge then Req_handle.charge_codec h ~deser:false ~leaves:(Codec.leaf_count c v) ~bytes:n;
  Req_handle.enqueue_response h resp

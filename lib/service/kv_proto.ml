let raft_req_type = 20
let kv_req_type = 21

let key_size = 16
let value_size = 64

type op = Put | Get

type request = {
  op : op;
  shard : int;
  client_id : int;
  seq : int;
  key : string;
  value : string;
}

type status =
  | Ok_
  | Not_leader of int option
  | Retry of int option
  | Not_found

(* The schemas below are the service's wire formats: the golden tests in
   [test_codec.ml] pin their bytes, and same-seed chaos traces depend on
   them. *)

(* Request: op(4) shard(4) client_id(4) seq(4) key value. GETs carry a
   zero-filled value region so one fixed layout serves both ops; a PUT
   value must be exactly [value_size] bytes. *)
let req_size = 16 + key_size + value_size

let zero_value = String.make value_size '\000'

let request_codec : request Codec.t =
  Codec.(
    record
      [
        field u32 (fun r -> match r.op with Put -> 0 | Get -> 1);
        field u32 (fun r -> r.shard);
        field u32 (fun r -> r.client_id);
        field u32 (fun r -> r.seq);
        field (fixed_string key_size) (fun r -> r.key);
        field (fixed_string value_size) (fun r ->
            match r.op with Put -> r.value | Get -> zero_value);
      ])
    (fun opc shard client_id seq key value ->
      { op = (if opc = 0 then Put else Get); shard; client_id; seq; key; value })

let write_request m (r : request) = Erpc.Typed.write request_codec m r
let read_request m = Erpc.Typed.read request_codec m

(* Field readers: one fixed offset each, so a handler reads the fields it
   needs without decoding the record (a GET never copies the value). *)
let check_request m =
  if Erpc.Msgbuf.size m <> req_size then
    raise
      (Codec.Decode_error
         (Printf.sprintf "kv request of %d bytes (expected %d)" (Erpc.Msgbuf.size m) req_size))

let request_op m = if Erpc.Msgbuf.get_u32 m ~off:0 = 0 then Put else Get
let request_shard m = Erpc.Msgbuf.get_u32 m ~off:4
let request_client_id m = Erpc.Msgbuf.get_u32 m ~off:8
let request_seq m = Erpc.Msgbuf.get_u32 m ~off:12
let request_key m = Erpc.Msgbuf.read_string m ~off:16 ~len:key_size

(* Response: status(4) hint(4) [value]. The hint encodes host+1 so 0 can
   mean "no hint"; the value region is present iff the message has bytes
   past the 8-byte header. *)
let resp_max_size = 8 + value_size

let resp_size ~value = match value with None -> 8 | Some _ -> 8 + value_size

let status_code = function
  | Ok_ -> 0
  | Not_leader _ -> 1
  | Retry _ -> 2
  | Not_found -> 3

let hint_code = function
  | Not_leader (Some h) | Retry (Some h) -> h + 1
  | _ -> 0

let response_codec : (status * string option) Codec.t =
  Codec.(
    record
      [
        field u32 (fun (status, _) -> status_code status);
        field u32 (fun (status, _) -> hint_code status);
        field (tail_option (fixed_string value_size)) snd;
      ])
    (fun code hintc value ->
      let hint = if hintc = 0 then None else Some (hintc - 1) in
      let status =
        match code with 0 -> Ok_ | 1 -> Not_leader hint | 2 -> Retry hint | _ -> Not_found
      in
      (status, value))

let write_response m ~status ~value =
  Erpc.Typed.write response_codec m (status, value)

let read_response m = Erpc.Typed.read response_codec m

(* Replicated command: client_id(4) seq(4) key value, as a string so the
   Raft core and wire format stay command-agnostic. *)
let cmd_size = 8 + key_size + value_size

let cmd_codec : (int * int * string * string) Codec.t =
  Codec.(
    record
      [
        field u32 (fun (client_id, _, _, _) -> client_id);
        field u32 (fun (_, seq, _, _) -> seq);
        field (fixed_string key_size) (fun (_, _, key, _) -> key);
        field (fixed_string value_size) (fun (_, _, _, value) -> value);
      ])
    (fun client_id seq key value -> (client_id, seq, key, value))

let encode_cmd ~client_id ~seq ~key ~value =
  Bytes.unsafe_to_string (Codec.to_bytes cmd_codec (client_id, seq, key, value))

(* A PUT request is op(4) shard(4) followed by exactly a command's bytes. *)
let request_cmd m = Erpc.Msgbuf.read_string m ~off:8 ~len:cmd_size

let noop_client_id = 0xffff_ffff

let noop_cmd ~seq =
  encode_cmd ~client_id:noop_client_id ~seq ~key:(String.make key_size '\000') ~value:zero_value

(* Decoding only reads, so the command string is decoded in place. *)
let decode_cmd s =
  Codec.decode cmd_codec (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

(* Raft frame: shard(4) ^ message bytes. *)
let raft_frame_codec : (int * string Raft.Core.msg) Codec.t =
  Codec.pair Codec.u32 Raft.Wire.msg_codec

let raft_frame_size msg = Codec.size raft_frame_codec (0, msg)

let write_raft_frame m ~shard msg =
  Erpc.Typed.write raft_frame_codec m (shard, msg)

let read_raft_frame m = Erpc.Typed.read raft_frame_codec m

(* Replies are the fixed-size cases of the Raft schema, so any one value of
   each gives its frame size. *)
let raft_reply_max_size =
  List.fold_left
    (fun acc reply -> max acc (raft_frame_size reply))
    0
    [
      Raft.Core.Request_vote_resp { term = 0; vote_granted = false; from = 0 };
      Raft.Core.Append_entries_resp { term = 0; success = false; from = 0; match_index = 0 };
    ]

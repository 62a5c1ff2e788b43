(* Wire layout (unchanged from the hand-rolled encoder): 1-byte tag, then
   little-endian u32/u8 fields. Entries are (u32 term, u32 length, bytes)
   with no count prefix, read to the end of the message.

   Each case's payload is the message itself, read through one getter per
   field and rebuilt by a constructor that takes the fields in wire order,
   so neither direction builds intermediate tuples. *)

let entry_codec : string Log.entry Codec.t =
  Codec.(
    record
      [ field u32 (fun e -> e.Log.term); field string (fun e -> e.Log.cmd) ])
    (fun term cmd -> { Log.term; cmd })

(* A getter applied to a message of another case is a bug in [case]'s
   projection, never a property of the input. *)
let wrong_case () = invalid_arg "Raft.Wire: getter applied to another message case"

let msg_case ~tag fields make ~is =
  Codec.case ~tag (Codec.record fields make) ~inj:Fun.id ~proj:(fun m ->
      if is m then Some m else None)

let request_vote =
  msg_case ~tag:0
    Codec.[
      field u32 (function Core.Request_vote m -> m.term | _ -> wrong_case ());
      field u32 (function Core.Request_vote m -> m.candidate_id | _ -> wrong_case ());
      field u32 (function Core.Request_vote m -> m.last_log_index | _ -> wrong_case ());
      field u32 (function Core.Request_vote m -> m.last_log_term | _ -> wrong_case ());
    ]
    (fun term candidate_id last_log_index last_log_term ->
        Core.Request_vote { term; candidate_id; last_log_index; last_log_term })
    ~is:(function Core.Request_vote _ -> true | _ -> false)

let request_vote_resp =
  msg_case ~tag:1
    Codec.[
      field u32 (function Core.Request_vote_resp m -> m.term | _ -> wrong_case ());
      field bool (function Core.Request_vote_resp m -> m.vote_granted | _ -> wrong_case ());
      field u32 (function Core.Request_vote_resp m -> m.from | _ -> wrong_case ());
    ]
    (fun term vote_granted from -> Core.Request_vote_resp { term; vote_granted; from })
    ~is:(function Core.Request_vote_resp _ -> true | _ -> false)

let append_entries =
  msg_case ~tag:2
    Codec.[
      field u32 (function Core.Append_entries m -> m.term | _ -> wrong_case ());
      field u32 (function Core.Append_entries m -> m.leader_id | _ -> wrong_case ());
      field u32 (function Core.Append_entries m -> m.prev_log_index | _ -> wrong_case ());
      field u32 (function Core.Append_entries m -> m.prev_log_term | _ -> wrong_case ());
      field u32 (function Core.Append_entries m -> m.leader_commit | _ -> wrong_case ());
      field (tail_list entry_codec) (function
        | Core.Append_entries m -> m.entries
        | _ -> wrong_case ());
    ]
    (fun term leader_id prev_log_index prev_log_term leader_commit entries ->
      Core.Append_entries
        { term; leader_id; prev_log_index; prev_log_term; leader_commit; entries })
    ~is:(function Core.Append_entries _ -> true | _ -> false)

let append_entries_resp =
  msg_case ~tag:3
    Codec.[
      field u32 (function Core.Append_entries_resp m -> m.term | _ -> wrong_case ());
      field bool (function Core.Append_entries_resp m -> m.success | _ -> wrong_case ());
      field u32 (function Core.Append_entries_resp m -> m.from | _ -> wrong_case ());
      field u32 (function Core.Append_entries_resp m -> m.match_index | _ -> wrong_case ());
    ]
    (fun term success from match_index ->
      Core.Append_entries_resp { term; success; from; match_index })
    ~is:(function Core.Append_entries_resp _ -> true | _ -> false)

let msg_codec : string Core.msg Codec.t =
  Codec.variant ~name:"Raft.Wire.msg"
    [ request_vote; request_vote_resp; append_entries; append_entries_resp ]

let encoded_size msg = Codec.size msg_codec msg
let encode msg = Codec.to_bytes msg_codec msg
let decode b = Codec.of_bytes msg_codec b

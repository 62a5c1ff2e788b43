(* Tests for the schema/codec layer: roundtrips, golden wire bytes (the
   service's frozen formats), strict prefix/corruption fuzzing, typed
   msgbuf integration, and typed RPC end-to-end. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let roundtrip c v = Codec.of_bytes c (Codec.to_bytes c v)

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* {2 Primitives and combinators} *)

let test_primitives () =
  check_int "u8" 200 (roundtrip Codec.u8 200);
  check_int "u16" 60_000 (roundtrip Codec.u16 60_000);
  check_int "u32" 0xDEADBEEF (roundtrip Codec.u32 0xDEADBEEF);
  check_int "u64" 123_456_789_012_345 (roundtrip Codec.u64 123_456_789_012_345);
  check_bool "bool t" true (roundtrip Codec.bool true);
  check_bool "bool f" false (roundtrip Codec.bool false);
  check_str "string" "hello" (roundtrip Codec.string "hello");
  check_str "fixed" "16-byte-string!!" (roundtrip (Codec.fixed_string 16) "16-byte-string!!");
  check_str "bounded" "abc" (roundtrip (Codec.bounded_string 8) "abc")

let test_range_checks () =
  Alcotest.check_raises "u8 range" (Invalid_argument "Codec.u8: out of range") (fun () ->
      ignore (Codec.to_bytes Codec.u8 256));
  Alcotest.check_raises "fixed width"
    (Invalid_argument "Codec.fixed_string: expected 4 bytes, got 3") (fun () ->
      ignore (Codec.to_bytes (Codec.fixed_string 4) "abc"));
  Alcotest.check_raises "bounded overflow"
    (Invalid_argument "Codec.bounded_string: 5 bytes exceeds capacity 4") (fun () ->
      ignore (Codec.to_bytes (Codec.bounded_string 4) "abcde"))

let test_combinators () =
  let c = Codec.(pair u32 (list string)) in
  let v = (42, [ "a"; "bb"; "" ]) in
  check_bool "pair+list" true (roundtrip c v = v);
  let t = Codec.(triple bool u16 string) in
  let tv = (true, 7, "x") in
  check_bool "triple" true (roundtrip t tv = tv);
  check_bool "option none" true (roundtrip Codec.(option u32) None = None);
  check_bool "option some" true (roundtrip Codec.(option u32) (Some 9) = Some 9);
  check_bool "array" true (roundtrip Codec.(array u8) [| 1; 2; 3 |] = [| 1; 2; 3 |]);
  check_bool "tail_list" true
    (roundtrip Codec.(tail_list (pair u16 string)) [ (1, "a"); (2, "") ]
    = [ (1, "a"); (2, "") ]);
  check_bool "tail_option none" true (roundtrip Codec.(tail_option u32) None = None);
  check_bool "tail_option some" true (roundtrip Codec.(tail_option u32) (Some 5) = Some 5)

let test_map () =
  let c =
    Codec.map
      ~into:(fun (k, v) -> `Put (k, v))
      ~from:(fun (`Put (k, v)) -> (k, v))
      Codec.(pair string string)
  in
  check_bool "mapped record" true (roundtrip c (`Put ("key", "value")) = `Put ("key", "value"))

let test_sizes_exact () =
  check_int "u32 size" 4 (Codec.size Codec.u32 0);
  check_int "string size" (4 + 5) (Codec.size Codec.string "hello");
  check_int "list size" (4 + (2 * 4)) (Codec.size Codec.(list u32) [ 1; 2 ]);
  check_int "option none size" 1 (Codec.size Codec.(option u64) None);
  check_int "checksum adds 4" (4 + 5 + 4) (Codec.size (Codec.with_checksum Codec.string) "hello");
  (* The encoding really is [size] long. *)
  let c = Codec.(pair u16 (list bool)) in
  let v = (9, [ true; false; true ]) in
  check_int "to_bytes length" (Codec.size c v) (Bytes.length (Codec.to_bytes c v))

let test_bounds () =
  check_bool "string unbounded" true (Codec.bound Codec.string = None);
  check_bool "fixed bounded" true (Codec.bound (Codec.fixed_string 8) = Some 8);
  check_bool "pair bound" true (Codec.bound Codec.(pair u32 u16) = Some 6);
  check_bool "bounded_string bound" true (Codec.bound (Codec.bounded_string 10) = Some 14);
  check_bool "list unbounded" true (Codec.bound Codec.(list u8) = None)

let test_truncation_raises () =
  let b = Codec.to_bytes Codec.string "hello world" in
  let truncated = Bytes.sub b 0 6 in
  check_bool "decode error" true
    (try
       ignore (Codec.of_bytes Codec.string truncated);
       false
     with Codec.Decode_error _ -> true)

let test_trailing_bytes_raise () =
  let b = Codec.to_bytes Codec.u16 7 in
  let padded = Bytes.cat b (Bytes.make 1 '\000') in
  check_bool "trailing garbage rejected" true
    (try
       ignore (Codec.of_bytes Codec.u16 padded);
       false
     with Codec.Decode_error _ -> true)

(* {2 Variants} *)

type shape = Dot | Line of int | Label of string

let shape_codec =
  let open Codec in
  variant ~name:"shape"
    [
      case ~tag:0 (fixed_string 0)
        ~inj:(fun _ -> Dot)
        ~proj:(function Dot -> Some "" | _ -> None);
      case ~tag:1 u32 ~inj:(fun n -> Line n) ~proj:(function Line n -> Some n | _ -> None);
      case ~tag:2 string
        ~inj:(fun s -> Label s)
        ~proj:(function Label s -> Some s | _ -> None);
    ]

let test_variant () =
  List.iter
    (fun v -> check_bool "variant roundtrip" true (roundtrip shape_codec v = v))
    [ Dot; Line 77; Label "axis" ];
  check_bool "unknown tag" true
    (try
       ignore (Codec.of_bytes shape_codec (Bytes.make 5 '\009'));
       false
     with Codec.Decode_error _ -> true);
  (* bound = 1 + max case bound only when every case is bounded; [string]
     is not, so the variant is unbounded. *)
  check_bool "variant unbounded" true (Codec.bound shape_codec = None)

(* {2 Checksummed frames} *)

let test_with_checksum () =
  let c = Codec.with_checksum Codec.(pair u32 string) in
  let v = (7, "payload") in
  check_bool "roundtrip" true (roundtrip c v = v);
  let b = Codec.to_bytes c v in
  Bytes.set b 5 (Char.chr (Char.code (Bytes.get b 5) lxor 0x40));
  check_bool "corruption detected" true
    (try
       ignore (Codec.of_bytes c b);
       false
     with Codec.Decode_error _ -> true)

(* {2 QCheck: roundtrips and fuzzing} *)

(* The second input: fixed-width and bounded fields in nested pairs. *)
let bounded_schema = Codec.(pair (pair u32 u16) (pair (fixed_string 8) (bounded_string 12)))

let qcheck_roundtrip =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 50)
           (triple (int_range 0 0xFFFFFFFF) (small_string ~gen:printable) bool))
        (pair
           (pair (int_range 0 0xFFFFFFFF) (int_range 0 0xFFFF))
           (pair
              (string_size ~gen:printable (return 8))
              (string_size ~gen:printable (int_range 0 12)))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"codec roundtrip (list of triples)" ~count:300 gen (fun (v, w) ->
         roundtrip Codec.(list (triple u32 string bool)) v = v && roundtrip bounded_schema w = w))

let qcheck_nested =
  let c = Codec.(option (pair (list u16) string)) in
  let gen =
    QCheck2.Gen.(
      option (pair (list_size (int_range 0 20) (int_range 0 0xFFFF)) (small_string ~gen:printable)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"codec roundtrip (nested option)" ~count:300 gen (fun v ->
         roundtrip c v = v))

(* Strict prefix property: for codecs without tail fields, no strict
   prefix of a valid encoding is itself valid — decode must raise
   [Decode_error] (and nothing else) for every one. *)
let prefix_cases =
  [
    ("string", Codec.to_bytes Codec.string "hello world");
    ("pair", Codec.to_bytes Codec.(pair u32 string) (7, "payload"));
    ("list", Codec.to_bytes Codec.(list u16) [ 1; 2; 3 ]);
    ("variant", Codec.to_bytes shape_codec (Label "edge"));
    ("checksum", Codec.to_bytes (Codec.with_checksum Codec.string) "hello");
    ( "raft frame rv",
      Codec.to_bytes Service.Kv_proto.raft_frame_codec
        ( 1,
          Raft.Core.Request_vote
            { term = 5; candidate_id = 2; last_log_index = 17; last_log_term = 4 } ) );
    ( "raft frame aer",
      Codec.to_bytes Service.Kv_proto.raft_frame_codec
        ( 3,
          Raft.Core.Append_entries_resp { term = 6; success = true; from = 2; match_index = 11 }
        ) );
  ]

(* An AppendEntries frame ends in its entry list, so a prefix cut at an
   entry boundary is itself a valid (shorter) frame: it joins the
   corruption fuzz only. *)
let corruption_cases =
  prefix_cases
  @ [
      ( "raft frame ae",
        Codec.to_bytes Service.Kv_proto.raft_frame_codec
          ( 2,
            Raft.Core.Append_entries
              {
                term = 2;
                leader_id = 1;
                prev_log_index = 7;
                prev_log_term = 2;
                leader_commit = 6;
                entries =
                  [ { Raft.Log.term = 2; cmd = "put-a" }; { Raft.Log.term = 2; cmd = "" } ];
              } ) );
    ]

let decode_of_name name =
  match name with
  | "string" -> fun b -> ignore (Codec.of_bytes Codec.string b)
  | "pair" -> fun b -> ignore (Codec.of_bytes Codec.(pair u32 string) b)
  | "list" -> fun b -> ignore (Codec.of_bytes Codec.(list u16) b)
  | "variant" -> fun b -> ignore (Codec.of_bytes shape_codec b)
  | "checksum" -> fun b -> ignore (Codec.of_bytes (Codec.with_checksum Codec.string) b)
  | "raft frame rv" | "raft frame aer" | "raft frame ae" ->
      fun b -> ignore (Codec.of_bytes Service.Kv_proto.raft_frame_codec b)
  | _ -> assert false

let test_prefix_fuzz () =
  List.iter
    (fun (name, b) ->
      let decode = decode_of_name name in
      decode b (* the full encoding must decode *);
      for n = 0 to Bytes.length b - 1 do
        match decode (Bytes.sub b 0 n) with
        | () -> Alcotest.failf "%s: prefix of %d/%d bytes decoded" name n (Bytes.length b)
        | exception Codec.Decode_error _ -> ()
        | exception e ->
            Alcotest.failf "%s: prefix of %d bytes raised %s" name n (Printexc.to_string e)
      done)
    prefix_cases

(* Corruption property: flipping any single byte either still decodes (to
   possibly different data) or raises [Decode_error] — never any other
   exception. *)
let test_corruption_fuzz () =
  List.iter
    (fun (name, b) ->
      let decode = decode_of_name name in
      for i = 0 to Bytes.length b - 1 do
        for bit = 0 to 7 do
          let b' = Bytes.copy b in
          Bytes.set b' i (Char.chr (Char.code (Bytes.get b' i) lxor (1 lsl bit)));
          match decode b' with
          | () -> ()
          | exception Codec.Decode_error _ -> ()
          | exception e ->
              Alcotest.failf "%s: corrupt byte %d bit %d raised %s" name i bit
                (Printexc.to_string e)
        done
      done)
    corruption_cases

(* {2 Golden wire bytes}

   These are the exact encodings the hand-rolled marshalling produced
   before the codec refactor. They are the service's frozen wire formats:
   a change here breaks same-seed chaos-trace reproducibility. *)

let key16 = "0123456789abcdef"
let ramp64 = String.init 64 (fun i -> Char.chr (32 + i))

let test_golden_kv_request () =
  let req op value =
    { Service.Kv_proto.op; shard = 3; client_id = 7; seq = 42; key = key16; value }
  in
  check_str "PUT"
    ("0000000003000000070000002a00000030313233343536373839616263646566"
    ^ hex (Bytes.of_string ramp64))
    (hex (Codec.to_bytes Service.Kv_proto.request_codec (req Service.Kv_proto.Put ramp64)));
  check_str "GET (value zero-padded)"
    ("0100000003000000070000002a00000030313233343536373839616263646566"
    ^ String.concat "" (List.init 64 (fun _ -> "00")))
    (hex (Codec.to_bytes Service.Kv_proto.request_codec (req Service.Kv_proto.Get "")))

let test_golden_kv_response () =
  let enc status value = hex (Codec.to_bytes Service.Kv_proto.response_codec (status, value)) in
  check_str "Ok none" "0000000000000000" (enc Service.Kv_proto.Ok_ None);
  check_str "Ok value"
    ("0000000000000000" ^ String.concat "" (List.init 64 (fun _ -> "76")))
    (enc Service.Kv_proto.Ok_ (Some (String.make 64 'v')));
  check_str "Not_leader hint" "0100000005000000" (enc (Service.Kv_proto.Not_leader (Some 4)) None);
  check_str "Retry none" "0200000000000000" (enc (Service.Kv_proto.Retry None) None);
  check_str "Not_found" "0300000000000000" (enc Service.Kv_proto.Not_found None)

let test_golden_kv_cmd () =
  check_str "cmd"
    ("070000002a00000030313233343536373839616263646566"
    ^ String.concat "" (List.init 64 (fun _ -> "77")))
    (hex
       (Bytes.of_string
          (Service.Kv_proto.encode_cmd ~client_id:7 ~seq:42 ~key:key16 ~value:(String.make 64 'w'))));
  check_str "noop"
    ("ffffffff09000000" ^ String.concat "" (List.init 80 (fun _ -> "00")))
    (hex (Bytes.of_string (Service.Kv_proto.noop_cmd ~seq:9)));
  let client_id, seq, key, value = Service.Kv_proto.decode_cmd (Service.Kv_proto.noop_cmd ~seq:9) in
  check_bool "noop decodes" true
    (client_id = Service.Kv_proto.noop_client_id && seq = 9
    && key = String.make 16 '\000'
    && value = String.make 64 '\000')

let test_golden_raft () =
  let enc msg = hex (Raft.Wire.encode msg) in
  check_str "Request_vote" "0005000000020000001100000004000000"
    (enc
       (Raft.Core.Request_vote
          { term = 5; candidate_id = 2; last_log_index = 17; last_log_term = 4 }));
  check_str "Request_vote_resp" "01050000000101000000"
    (enc (Raft.Core.Request_vote_resp { term = 5; vote_granted = true; from = 1 }));
  check_str "Append_entries"
    ("020600000000000000030000000200000003000000060000000500000068656c6c6f06000000000000000700000064000000"
    ^ String.concat "" (List.init 100 (fun _ -> "7a")))
    (enc
       (Raft.Core.Append_entries
          {
            term = 6;
            leader_id = 0;
            prev_log_index = 3;
            prev_log_term = 2;
            leader_commit = 3;
            entries =
              [
                { Raft.Log.term = 6; cmd = "hello" };
                { Raft.Log.term = 6; cmd = "" };
                { Raft.Log.term = 7; cmd = String.make 100 'z' };
              ];
          }));
  check_str "Append_entries_resp" "030600000000020000000b000000"
    (enc (Raft.Core.Append_entries_resp { term = 6; success = false; from = 2; match_index = 11 }))

let test_golden_raft_frame () =
  let msg =
    Raft.Core.Append_entries
      {
        term = 2;
        leader_id = 1;
        prev_log_index = 0;
        prev_log_term = 0;
        leader_commit = 0;
        entries = [ { Raft.Log.term = 2; cmd = "cmd-bytes" } ];
      }
  in
  check_str "frame"
    "020000000202000000010000000000000000000000000000000200000009000000636d642d6279746573"
    (hex (Codec.to_bytes Service.Kv_proto.raft_frame_codec (2, msg)));
  check_int "frame size" (4 + Raft.Wire.encoded_size msg) (Service.Kv_proto.raft_frame_size msg)

(* A PUT whose value is not exactly [value_size] bytes is a caller bug the
   codec must refuse; it must never reach the wire as zeros. *)
let test_kv_put_value_length () =
  let req op value =
    { Service.Kv_proto.op; shard = 0; client_id = 1; seq = 1; key = key16; value }
  in
  let m = Erpc.Msgbuf.alloc ~max_size:Service.Kv_proto.req_size in
  List.iter
    (fun n ->
      Alcotest.check_raises
        (Printf.sprintf "%d-byte PUT value" n)
        (Invalid_argument (Printf.sprintf "Codec.fixed_string: expected 64 bytes, got %d" n))
        (fun () -> Service.Kv_proto.write_request m (req Service.Kv_proto.Put (String.make n 'x'))))
    [ 3; 65 ];
  (* A GET's value region is zeros whatever its value field holds. *)
  check_str "GET ignores its value field"
    (hex (Codec.to_bytes Service.Kv_proto.request_codec (req Service.Kv_proto.Get "")))
    (hex (Codec.to_bytes Service.Kv_proto.request_codec (req Service.Kv_proto.Get ramp64)))

let test_raft_reply_max_size () =
  let frame msg = Bytes.length (Codec.to_bytes Service.Kv_proto.raft_frame_codec (7, msg)) in
  check_int "largest reply frame"
    (max
       (frame (Raft.Core.Request_vote_resp { term = 9; vote_granted = true; from = 2 }))
       (frame
          (Raft.Core.Append_entries_resp { term = 9; success = true; from = 2; match_index = 40 })))
    Service.Kv_proto.raft_reply_max_size

(* {2 Service and Raft schema properties}

   For random values of every schema in [Kv_proto] and [Raft.Wire]:

   - [size] and [encode] agree on the byte count, and
     [encode] writes nothing past it (constant-size schemas answer [size]
     without looking at the value, so this also checks that shortcut);
   - decoding re-encodes to the same bytes;
   - every strict prefix raises [Decode_error] — or, for schemas ending in
     a tail field, decodes to a value whose encoding is exactly that
     prefix — and never any other exception;
   - a trailing byte is rejected. *)

type schema_value = S : string * 'a Codec.t * bool * 'a -> schema_value

let schema_gen =
  let open QCheck2.Gen in
  let u32 = int_range 0 0xFFFFFFFF in
  let fixed n = string_size ~gen:char (return n) in
  let value = fixed Service.Kv_proto.value_size in
  let request =
    let+ put = bool
    and+ shard = u32
    and+ client_id = u32
    and+ seq = u32
    and+ key = fixed Service.Kv_proto.key_size
    and+ value = value in
    let op = if put then Service.Kv_proto.Put else Service.Kv_proto.Get in
    S
      ( "request",
        Service.Kv_proto.request_codec,
        false,
        { Service.Kv_proto.op; shard; client_id; seq; key; value } )
  in
  let response =
    let+ status =
      oneof
        [
          return Service.Kv_proto.Ok_;
          return Service.Kv_proto.Not_found;
          map (fun h -> Service.Kv_proto.Not_leader h) (option (int_range 0 1000));
          map (fun h -> Service.Kv_proto.Retry h) (option (int_range 0 1000));
        ]
    and+ value = option value in
    S ("response", Service.Kv_proto.response_codec, true, (status, value))
  in
  let cmd =
    let+ client_id = u32
    and+ seq = u32
    and+ key = fixed Service.Kv_proto.key_size
    and+ value = value in
    S ("cmd", Service.Kv_proto.cmd_codec, false, (client_id, seq, key, value))
  in
  let entry =
    let+ term = u32 and+ cmd = string_size ~gen:char (int_range 0 100) in
    { Raft.Log.term; cmd }
  in
  let msg =
    oneof
      [
        (let+ term = u32
         and+ candidate_id = u32
         and+ last_log_index = u32
         and+ last_log_term = u32 in
         Raft.Core.Request_vote { term; candidate_id; last_log_index; last_log_term });
        (let+ term = u32 and+ vote_granted = bool and+ from = u32 in
         Raft.Core.Request_vote_resp { term; vote_granted; from });
        (let+ term = u32
         and+ leader_id = u32
         and+ prev_log_index = u32
         and+ prev_log_term = u32
         and+ leader_commit = u32
         and+ entries = list_size (int_range 0 3) entry in
         Raft.Core.Append_entries
           { term; leader_id; prev_log_index; prev_log_term; leader_commit; entries });
        (let+ term = u32 and+ success = bool and+ from = u32 and+ match_index = u32 in
         Raft.Core.Append_entries_resp { term; success; from; match_index });
      ]
  in
  let ends_in_entries = function Raft.Core.Append_entries _ -> true | _ -> false in
  oneof
    [
      request;
      response;
      cmd;
      map (fun e -> S ("raft entry", Raft.Wire.entry_codec, false, e)) entry;
      map (fun m -> S ("raft msg", Raft.Wire.msg_codec, ends_in_entries m, m)) msg;
      (let+ shard = u32 and+ m = msg in
       S ("raft frame", Service.Kv_proto.raft_frame_codec, ends_in_entries m, (shard, m)));
    ]

let schema_property (S (name, c, tail, v)) =
  let fail fmt = Printf.ksprintf (fun m -> QCheck2.Test.fail_reportf "%s: %s" name m) fmt in
  let b = Codec.to_bytes c v in
  let n = Bytes.length b in
  if Codec.size c v <> n then fail "size %d, encoded %d" (Codec.size c v) n;
  let big = Bytes.make (n + 8) '\xAA' in
  if Codec.encode c big 3 v <> n + 3 then fail "encode end offset";
  if Bytes.sub big (n + 3) 5 <> Bytes.make 5 '\xAA' then fail "encode wrote past its size";
  if Codec.to_bytes c (Codec.of_bytes c b) <> b then fail "decode does not re-encode";
  for k = 0 to n - 1 do
    let p = Bytes.sub b 0 k in
    match Codec.of_bytes c p with
    | v' -> if not (tail && Codec.to_bytes c v' = p) then fail "%d-byte prefix decoded" k
    | exception Codec.Decode_error _ -> ()
    | exception e -> fail "%d-byte prefix raised %s" k (Printexc.to_string e)
  done;
  (match Codec.of_bytes c (Bytes.cat b (Bytes.make 1 '\000')) with
  | _ -> fail "trailing byte accepted"
  | exception Codec.Decode_error _ -> ());
  true

let qcheck_schema_properties =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"service and raft schema properties" ~count:500 schema_gen
       schema_property)

(* {2 Allocation budgets}

   Minor-heap words per call on the service's hot codec paths, averaged
   over 10k calls. A decode may allocate its result and one 2-word read
   cursor, nothing else; an encode into an existing msgbuf allocates
   nothing of the codec's own. (Word counts: 7 for the 6-field request
   record, 4 for a 16-byte string, 10 for a 64-byte one, 13 for an
   88-byte command.) *)

let words_per_call f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  (Gc.minor_words () -. w0) /. 10_000.

let check_budget name budget f =
  let w = words_per_call f in
  if w > budget then
    Alcotest.failf "%s: %.1f minor words/call (budget %.0f)" name w budget

let test_allocation_budgets () =
  let put =
    {
      Service.Kv_proto.op = Service.Kv_proto.Put;
      shard = 3;
      client_id = 7;
      seq = 42;
      key = key16;
      value = ramp64;
    }
  in
  let m = Erpc.Msgbuf.alloc ~max_size:256 in
  check_budget "write_request into an existing msgbuf" 0. (fun () ->
      Service.Kv_proto.write_request m put);
  let get = { put with op = Service.Kv_proto.Get; value = "" } in
  check_budget "write_request (GET)" 0. (fun () -> Service.Kv_proto.write_request m get);
  Service.Kv_proto.write_request m put;
  (* record 7 + key 4 + value 10 + cursor 2 *)
  check_budget "read_request" 23. (fun () ->
      ignore (Sys.opaque_identity (Service.Kv_proto.read_request m)));
  let cmd = Service.Kv_proto.encode_cmd ~client_id:7 ~seq:42 ~key:key16 ~value:ramp64 in
  (* 4-tuple 5 + key 4 + value 10 + cursor 2 *)
  check_budget "decode_cmd" 21. (fun () ->
      ignore (Sys.opaque_identity (Service.Kv_proto.decode_cmd cmd)));
  let ae =
    Raft.Core.Append_entries
      {
        term = 2;
        leader_id = 1;
        prev_log_index = 5;
        prev_log_term = 2;
        leader_commit = 4;
        entries = [ { Raft.Log.term = 2; cmd } ];
      }
  in
  (* the (shard, msg) frame tuple 3 + the variant's case projection 2,
     once for sizing and once for writing *)
  check_budget "write_raft_frame (one-entry AppendEntries)" 7. (fun () ->
      Service.Kv_proto.write_raft_frame m ~shard:1 ae);
  (* cursor 2 + frame tuple 3 + message 7 + entry 3 + command 13 + the
     entry list, built reversed (2 cons cells, 6) *)
  check_budget "read_raft_frame (one-entry AppendEntries)" 34. (fun () ->
      ignore (Sys.opaque_identity (Service.Kv_proto.read_raft_frame m)));
  (* The replica's per-request reads: the integer fields cost nothing, the
     key and a PUT's command one string each. *)
  Service.Kv_proto.write_request m put;
  check_budget "check_request" 0. (fun () -> Service.Kv_proto.check_request m);
  check_budget "request_op" 0. (fun () ->
      ignore (Sys.opaque_identity (Service.Kv_proto.request_op m)));
  check_budget "request_shard, client_id and seq" 0. (fun () ->
      ignore (Sys.opaque_identity (Service.Kv_proto.request_shard m));
      ignore (Sys.opaque_identity (Service.Kv_proto.request_client_id m));
      ignore (Sys.opaque_identity (Service.Kv_proto.request_seq m)));
  check_budget "request_key" 4. (fun () ->
      ignore (Sys.opaque_identity (Service.Kv_proto.request_key m)));
  check_budget "request_cmd" 13. (fun () ->
      ignore (Sys.opaque_identity (Service.Kv_proto.request_cmd m)));
  (* Routing a key: the hash and the group lookup allocate nothing. *)
  check_budget "Keygen.fnv1a" 0. (fun () ->
      ignore (Sys.opaque_identity (Workload.Keygen.fnv1a key16)));
  let map =
    Service.Shard_map.create ~shards:4 ~replication:3 ~replica_hosts:[| 0; 1; 2; 3; 4; 5 |]
  in
  check_budget "Shard_map.group" 0. (fun () ->
      ignore (Sys.opaque_identity (Service.Shard_map.group map ~shard:3)))

(* {2 Typed msgbuf integration} *)

let test_typed_write_semantics () =
  let c = Codec.(pair u32 string) in
  let m = Erpc.Msgbuf.alloc ~max_size:64 in
  Erpc.Typed.write c m (7, "payload");
  check_int "msgbuf resized to exact size" (4 + 4 + 7) (Erpc.Msgbuf.size m);
  check_bool "read back" true (Erpc.Typed.read c m = (7, "payload"));
  (* Re-use with a smaller value: shrinks again. *)
  Erpc.Typed.write c m (1, "");
  check_int "shrinks" 8 (Erpc.Msgbuf.size m);
  (* Over capacity: raises without touching the buffer. *)
  let small = Erpc.Msgbuf.alloc ~max_size:4 in
  check_bool "capacity raise" true
    (try
       Erpc.Typed.write c small (1, "too long");
       false
     with Invalid_argument _ -> true);
  check_int "untouched" 4 (Erpc.Msgbuf.size small);
  (* In-flight (eRPC-owned) buffers are rejected up front. *)
  let view = Erpc.Msgbuf.view (Bytes.make 16 '\000') ~off:0 ~len:16 in
  Alcotest.check_raises "in flight"
    (Invalid_argument "Typed.write: msgbuf is in flight (eRPC-owned)") (fun () ->
      Erpc.Typed.write c view (1, ""))

let test_typed_write_checksum_compose () =
  (* Regression: [with_checksum] must see the exact encoded extent, so
     resize-to-exact has to happen before the checksum trailer is read
     back. An oversized buffer must not perturb the frame. *)
  let c = Codec.with_checksum Codec.(pair u32 string) in
  let m = Erpc.Msgbuf.alloc ~max_size:256 in
  Erpc.Typed.write c m (9, "checked");
  check_int "sized to frame" (4 + 4 + 7 + 4) (Erpc.Msgbuf.size m);
  check_bool "verifies" true (Erpc.Typed.read c m = (9, "checked"));
  (* Corrupt one body byte through the raw view: decode must fail. *)
  let b = Erpc.Msgbuf.unsafe_bytes m in
  let off = Erpc.Msgbuf.unsafe_offset m in
  Bytes.set b (off + 4) 'X';
  check_bool "corruption detected" true
    (try
       ignore (Erpc.Typed.read c m);
       false
     with Codec.Decode_error _ -> true)

(* {2 Typed RPC end-to-end} *)

let sum_req_codec = Codec.(pair (bounded_string 8) (list u32))
let sum_resp_codec = Codec.u64

let run_sum_rpc () =
  let cluster = Transport.Cluster.cx5 ~nodes:2 () in
  let fabric = Erpc.Fabric.create cluster in
  let nx0 = Erpc.Nexus.create fabric ~host:0 () in
  let nx1 = Erpc.Nexus.create fabric ~host:1 () in
  Erpc.Nexus.register_handler nx1 ~req_type:5 ~mode:Erpc.Nexus.Dispatch (fun h ->
      let tag, numbers = Erpc.Typed.read_request h sum_req_codec in
      let sum = if tag = "sum" then List.fold_left ( + ) 0 numbers else 0 in
      Erpc.Typed.respond h sum_resp_codec sum);
  let client = Erpc.Rpc.create nx0 ~rpc_id:0 in
  let _server = Erpc.Rpc.create nx1 ~rpc_id:0 in
  let sess = Erpc.Rpc.create_session client ~remote_host:1 ~remote_rpc_id:0 () in
  let engine = Erpc.Fabric.engine fabric in
  Sim.Engine.run_until engine (Sim.Time.ms 1.0);
  let answer = ref (Error (Erpc.Err.Session_error "never ran")) in
  Erpc.Typed.enqueue_request client sess ~req_type:5 ~req_codec:sum_req_codec
    ~resp_codec:sum_resp_codec
    ("sum", [ 1; 2; 3; 4; 5 ])
    ~cont:(fun r -> answer := r);
  Sim.Engine.run_until engine (Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms 5.0));
  !answer

let test_typed_rpc_over_erpc () =
  match run_sum_rpc () with
  | Ok sum -> check_int "typed RPC answer" 15 sum
  | Error e -> Alcotest.failf "typed RPC failed: %s" (Erpc.Err.to_string e)

let suite =
  [
    Alcotest.test_case "primitives" `Quick test_primitives;
    Alcotest.test_case "range checks" `Quick test_range_checks;
    Alcotest.test_case "combinators" `Quick test_combinators;
    Alcotest.test_case "map" `Quick test_map;
    Alcotest.test_case "sizes exact" `Quick test_sizes_exact;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "truncation raises" `Quick test_truncation_raises;
    Alcotest.test_case "trailing bytes raise" `Quick test_trailing_bytes_raise;
    Alcotest.test_case "variant" `Quick test_variant;
    Alcotest.test_case "with_checksum" `Quick test_with_checksum;
    qcheck_roundtrip;
    qcheck_nested;
    Alcotest.test_case "prefix fuzz" `Quick test_prefix_fuzz;
    Alcotest.test_case "corruption fuzz" `Quick test_corruption_fuzz;
    Alcotest.test_case "golden kv request" `Quick test_golden_kv_request;
    Alcotest.test_case "golden kv response" `Quick test_golden_kv_response;
    Alcotest.test_case "golden kv cmd" `Quick test_golden_kv_cmd;
    Alcotest.test_case "golden raft" `Quick test_golden_raft;
    Alcotest.test_case "golden raft frame" `Quick test_golden_raft_frame;
    Alcotest.test_case "kv put value length" `Quick test_kv_put_value_length;
    Alcotest.test_case "raft reply max size" `Quick test_raft_reply_max_size;
    qcheck_schema_properties;
    Alcotest.test_case "allocation budgets" `Quick test_allocation_budgets;
    Alcotest.test_case "typed write semantics" `Quick test_typed_write_semantics;
    Alcotest.test_case "typed write + checksum" `Quick test_typed_write_checksum_compose;
    Alcotest.test_case "typed RPC over eRPC" `Quick test_typed_rpc_over_erpc;
  ]

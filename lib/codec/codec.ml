exception Decode_error of string

type backend = Compact | Flat

let backend_name = function Compact -> "compact" | Flat -> "flat"

let fail msg = raise (Decode_error msg)

(* FNV-1a over bytes; constants match [Erpc.Pkthdr.bytes_checksum] exactly so
   [with_checksum] wire bytes are unchanged by this module's independence
   from the transport library. *)
let fnv_offset = 0x4bf29ce484222325
let fnv_prime = 0x100000001b3
let fnv_step h v = (h lxor v) * fnv_prime land max_int

let bytes_checksum b ~off ~len =
  let h = ref fnv_offset in
  for i = off to off + len - 1 do
    h := fnv_step !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h

(* {2 Leaf metadata}

   A "leaf" is one primitive field as seen by the cost model: encoding or
   decoding a message costs per-leaf work plus bulk byte movement. Flat
   layouts additionally record each leaf's fixed offset, which is what makes
   lazy positional access possible. *)

type leaf_kind =
  | L_u8
  | L_u16
  | L_u32
  | L_u64
  | L_bool
  | L_fixed of int
  | L_bounded of int  (* u32 length + [cap] bytes of storage *)

type leaf = { l_off : int; l_kind : leaf_kind }

let leaf_width = function
  | L_u8 | L_bool -> 1
  | L_u16 -> 2
  | L_u32 -> 4
  | L_u64 -> 8
  | L_fixed n -> n
  | L_bounded cap -> 4 + cap

(* Readers decode at a cursor and advance it in place, so reading a field
   allocates nothing but the field's own value. A reader never reads at or
   past [limit]. *)
type cur = { mutable pos : int }

type 'a reader = bytes -> limit:int -> cur -> 'a

type 'a flat = {
  f_size : int;  (* fixed wire footprint *)
  f_write : bytes -> int -> 'a -> unit;  (* bounds pre-checked by caller *)
  f_read : 'a reader;  (* bounds pre-checked; content may still fail *)
  f_leaves : leaf array;  (* declaration order, offsets relative to base *)
}

(* The compact size and leaf count of a codec whose every value encodes to
   the same number of bytes. *)
type exact = { e_size : int; e_leaves : int }

(* A codec is an exact-size function, limit-aware writers/readers over a
   bytes buffer (compact backend), a per-value leaf count for the cost
   model, a static compact-size bound when one exists, the exact size of
   constant-size codecs, and optionally a fixed-offset flat layout. Writers
   return the next offset. *)
type 'a t = {
  size : 'a -> int;
  write : bytes -> int -> 'a -> int;
  read : 'a reader;
  leaves : 'a -> int;
  bound : int option;
  exact : exact option;
  flat : 'a flat option;
}

(* Constant-size codecs answer [size] and [leaves] without looking at the
   value, so sizing one never runs a [map]'s [from] or a record's getters. *)
let with_exact c =
  match c.exact with
  | Some e -> { c with size = (fun _ -> e.e_size); leaves = (fun _ -> e.e_leaves) }
  | None -> c

let flat_exn c what =
  match c.flat with
  | Some f -> f
  | None -> invalid_arg (what ^ ": codec has no flat layout (unbounded field?)")

let need b ~limit off n what =
  if off < 0 || off + n > limit || off + n > Bytes.length b then
    fail
      (Printf.sprintf "truncated %s at offset %d (need %d, have %d)" what off n
         (min limit (Bytes.length b) - off))

(* {2 Primitives} *)

(* A fixed-width field: the compact and flat layouts coincide. *)
let fixed ~kind ~n ~what ~wr ~rd =
  let read b ~limit cur =
    let off = cur.pos in
    need b ~limit off n what;
    cur.pos <- off + n;
    rd b off
  in
  {
    size = (fun _ -> n);
    write =
      (fun b off v ->
        wr b off v;
        off + n);
    read;
    leaves = (fun _ -> 1);
    bound = Some n;
    exact = Some { e_size = n; e_leaves = 1 };
    flat =
      Some
        { f_size = n; f_write = wr; f_read = read; f_leaves = [| { l_off = 0; l_kind = kind } |] };
  }

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let u8 =
  fixed ~kind:L_u8 ~n:1 ~what:"u8"
    ~wr:(fun b off v ->
      if v < 0 || v > 0xFF then invalid_arg "Codec.u8: out of range";
      Bytes.set_uint8 b off v)
    ~rd:Bytes.get_uint8

let u16 =
  fixed ~kind:L_u16 ~n:2 ~what:"u16"
    ~wr:(fun b off v ->
      if v < 0 || v > 0xFFFF then invalid_arg "Codec.u16: out of range";
      Bytes.set_uint16_le b off v)
    ~rd:Bytes.get_uint16_le

let u32 =
  fixed ~kind:L_u32 ~n:4 ~what:"u32"
    ~wr:(fun b off v ->
      if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.u32: out of range";
      Bytes.set_int32_le b off (Int32.of_int v))
    ~rd:get_u32

let u64 =
  fixed ~kind:L_u64 ~n:8 ~what:"u64"
    ~wr:(fun b off v -> Bytes.set_int64_le b off (Int64.of_int v))
    ~rd:(fun b off -> Int64.to_int (Bytes.get_int64_le b off))

let bool =
  fixed ~kind:L_bool ~n:1 ~what:"bool"
    ~wr:(fun b off v -> Bytes.set_uint8 b off (if v then 1 else 0))
    ~rd:(fun b off ->
      match Bytes.get_uint8 b off with
      | 0 -> false
      | 1 -> true
      | n -> fail (Printf.sprintf "invalid bool byte %d" n))

let fixed_string n =
  fixed ~kind:(L_fixed n) ~n ~what:"fixed_string"
    ~wr:(fun b off s ->
      if String.length s <> n then
        invalid_arg
          (Printf.sprintf "Codec.fixed_string: expected %d bytes, got %d" n (String.length s));
      Bytes.blit_string s 0 b off n)
    ~rd:(fun b off -> Bytes.sub_string b off n)

let write_prefixed b off s =
  let n = String.length s in
  let off = u32.write b off n in
  Bytes.blit_string s 0 b off n;
  off + n

(* u32 length, then that many bytes; [cap] bounds the length. *)
let read_prefixed ~cap ~what =
  let body = what ^ " body" in
  fun b ~limit cur ->
    let n = u32.read b ~limit cur in
    if n > cap then fail (Printf.sprintf "%s length %d exceeds capacity %d" what n cap);
    let off = cur.pos in
    need b ~limit off n body;
    cur.pos <- off + n;
    Bytes.sub_string b off n

let string =
  {
    size = (fun s -> 4 + String.length s);
    write = write_prefixed;
    read = read_prefixed ~cap:max_int ~what:"string";
    leaves = (fun _ -> 1);
    bound = None;
    exact = None;
    flat = None;
  }

(* Same compact wire format as [string], but with a declared capacity, which
   gives it a flat layout: u32 length at a fixed offset followed by [cap]
   reserved bytes (slack zero-filled so encodes stay deterministic). *)
let bounded_string cap =
  let check s =
    if String.length s > cap then
      invalid_arg
        (Printf.sprintf "Codec.bounded_string: %d bytes exceeds capacity %d" (String.length s)
           cap)
  in
  {
    size =
      (fun s ->
        check s;
        4 + String.length s);
    write =
      (fun b off s ->
        check s;
        write_prefixed b off s);
    read = read_prefixed ~cap ~what:"bounded_string";
    leaves = (fun _ -> 1);
    bound = Some (4 + cap);
    exact = None;
    flat =
      Some
        {
          f_size = 4 + cap;
          f_write =
            (fun b off s ->
              check s;
              let n = String.length s in
              ignore (write_prefixed b off s);
              Bytes.fill b (off + 4 + n) (cap - n) '\000');
          f_read =
            (fun b ~limit:_ cur ->
              let off = cur.pos in
              let n = get_u32 b off in
              if n > cap then
                fail (Printf.sprintf "bounded_string length %d exceeds capacity %d" n cap);
              cur.pos <- off + 4 + cap;
              Bytes.sub_string b (off + 4) n);
          f_leaves = [| { l_off = 0; l_kind = L_bounded cap } |];
        };
  }

(* {2 Combinators} *)

let shift_leaves d ls = Array.map (fun l -> { l with l_off = l.l_off + d }) ls

let map ~into ~from c =
  with_exact
    {
      size = (fun v -> c.size (from v));
      write = (fun buf off v -> c.write buf off (from v));
      read = (fun buf ~limit cur -> into (c.read buf ~limit cur));
      leaves = (fun v -> c.leaves (from v));
      bound = c.bound;
      exact = c.exact;
      flat =
        (match c.flat with
        | Some f ->
            Some
              {
                f_size = f.f_size;
                f_write = (fun buf off v -> f.f_write buf off (from v));
                f_read = (fun buf ~limit cur -> into (f.f_read buf ~limit cur));
                f_leaves = f.f_leaves;
              }
        | None -> None);
    }

(* List walks are top-level functions rather than closures over [elt], so
   they allocate nothing but the list they build. *)
let rec sum_size elt acc = function [] -> acc | x :: r -> sum_size elt (acc + elt.size x) r
let rec sum_leaves elt acc = function [] -> acc | x :: r -> sum_leaves elt (acc + elt.leaves x) r
let rec write_all elt buf off = function
  | [] -> off
  | x :: r -> write_all elt buf (elt.write buf off x) r

let rec read_n elt buf ~limit cur acc n =
  if n = 0 then List.rev acc
  else
    let x = elt.read buf ~limit cur in
    read_n elt buf ~limit cur (x :: acc) (n - 1)

let rec read_to_limit elt buf ~limit cur acc =
  if cur.pos >= limit then List.rev acc
  else begin
    let before = cur.pos in
    let x = elt.read buf ~limit cur in
    if cur.pos <= before then fail "tail_list: element consumed no bytes";
    read_to_limit elt buf ~limit cur (x :: acc)
  end

let list elt =
  {
    size = (fun xs -> sum_size elt 4 xs);
    write = (fun buf off xs -> write_all elt buf (u32.write buf off (List.length xs)) xs);
    read = (fun buf ~limit cur -> read_n elt buf ~limit cur [] (u32.read buf ~limit cur));
    leaves = (fun xs -> sum_leaves elt 1 xs);
    bound = None;
    exact = None;
    flat = None;
  }

(* No count prefix: elements are read until the message limit. Only valid as
   the final field of a message. *)
let tail_list elt =
  {
    size = (fun xs -> sum_size elt 0 xs);
    write = (fun buf off xs -> write_all elt buf off xs);
    read = (fun buf ~limit cur -> read_to_limit elt buf ~limit cur []);
    leaves = (fun xs -> sum_leaves elt 0 xs);
    bound = None;
    exact = None;
    flat = None;
  }

let option elt =
  {
    size = (fun v -> match v with None -> 1 | Some x -> 1 + elt.size x);
    write =
      (fun buf off v ->
        match v with
        | None -> bool.write buf off false
        | Some x -> elt.write buf (bool.write buf off true) x);
    read =
      (fun buf ~limit cur ->
        if bool.read buf ~limit cur then Some (elt.read buf ~limit cur) else None);
    leaves = (fun v -> match v with None -> 1 | Some x -> 1 + elt.leaves x);
    bound = (match elt.bound with Some n -> Some (1 + n) | None -> None);
    exact = None;
    flat =
      (match elt.flat with
      | Some f ->
          Some
            {
              f_size = 1 + f.f_size;
              f_write =
                (fun buf off v ->
                  match v with
                  | None ->
                      Bytes.set_uint8 buf off 0;
                      Bytes.fill buf (off + 1) f.f_size '\000'
                  | Some x ->
                      Bytes.set_uint8 buf off 1;
                      f.f_write buf (off + 1) x);
              f_read =
                (fun buf ~limit cur ->
                  let off = cur.pos in
                  match Bytes.get_uint8 buf off with
                  | 0 ->
                      cur.pos <- off + 1 + f.f_size;
                      None
                  | 1 ->
                      cur.pos <- off + 1;
                      Some (f.f_read buf ~limit cur)
                  | n -> fail (Printf.sprintf "invalid option byte %d" n));
              f_leaves =
                Array.append [| { l_off = 0; l_kind = L_bool } |] (shift_leaves 1 f.f_leaves);
            }
      | None -> None);
  }

(* Presence encoded by message length: the value is present iff any bytes
   remain before the limit. Only valid as the final field of a message —
   this is how fixed-layout responses omit an optional payload without
   spending a presence byte (the KV response format). *)
let tail_option elt =
  {
    size = (fun v -> match v with None -> 0 | Some x -> elt.size x);
    write = (fun buf off v -> match v with None -> off | Some x -> elt.write buf off x);
    read =
      (fun buf ~limit cur -> if cur.pos >= limit then None else Some (elt.read buf ~limit cur));
    leaves = (fun v -> match v with None -> 0 | Some x -> elt.leaves x);
    bound = elt.bound;
    exact = None;
    flat = None;
  }

let array elt = map ~into:Array.of_list ~from:Array.to_list (list elt)

(* {2 Tagged unions} *)

type ('a, 'b) case_ = {
  c_tag : int;
  c_payload : 'b t;
  c_inj : 'b -> 'a;
  c_proj : 'a -> 'b option;
}

type 'a case = Case : ('a, 'b) case_ -> 'a case

let case ~tag payload ~inj ~proj =
  if tag < 0 || tag > 0xFF then invalid_arg "Codec.case: tag out of u8 range";
  Case { c_tag = tag; c_payload = payload; c_inj = inj; c_proj = proj }

let no_case name = invalid_arg (name ^ ": value matches no case")

let rec case_size name v = function
  | [] -> no_case name
  | Case c :: rest -> (
      match c.c_proj v with Some b -> 1 + c.c_payload.size b | None -> case_size name v rest)

let rec case_leaves name v = function
  | [] -> no_case name
  | Case c :: rest -> (
      match c.c_proj v with Some b -> 1 + c.c_payload.leaves b | None -> case_leaves name v rest)

let rec case_write name buf off v = function
  | [] -> no_case name
  | Case c :: rest -> (
      match c.c_proj v with
      | Some b -> c.c_payload.write buf (u8.write buf off c.c_tag) b
      | None -> case_write name buf off v rest)

let variant ~name cases =
  if cases = [] then invalid_arg (name ^ ": no cases");
  let by_tag = Array.make 256 None in
  List.iter
    (fun (Case c) ->
      if by_tag.(c.c_tag) <> None then
        invalid_arg (Printf.sprintf "%s: duplicate tag %d" name c.c_tag);
      by_tag.(c.c_tag) <- Some (Case c))
    cases;
  {
    size = (fun v -> case_size name v cases);
    write = (fun buf off v -> case_write name buf off v cases);
    read =
      (fun buf ~limit cur ->
        let tag = u8.read buf ~limit cur in
        match by_tag.(tag) with
        | Some (Case c) -> c.c_inj (c.c_payload.read buf ~limit cur)
        | None -> fail (Printf.sprintf "%s: unknown tag %d" name tag));
    leaves = (fun v -> case_leaves name v cases);
    bound =
      List.fold_left
        (fun acc (Case c) ->
          match (acc, c.c_payload.bound) with
          | Some m, Some n -> Some (max m (1 + n))
          | _ -> None)
        (Some 0) cases;
    exact = None;
    flat = None;
  }

(* {2 Integrity} *)

let checksum32 b ~off ~len = bytes_checksum b ~off ~len land 0xFFFFFFFF

let verify ~stored ~sum =
  if stored <> sum then
    fail (Printf.sprintf "checksum mismatch (stored %#x, computed %#x)" stored sum)

let with_checksum c =
  with_exact
    {
      size = (fun v -> c.size v + 4);
      write =
        (fun b off v ->
          let body_end = c.write b off v in
          u32.write b body_end (checksum32 b ~off ~len:(body_end - off)));
      read =
        (fun b ~limit cur ->
          let off = cur.pos in
          let v = c.read b ~limit cur in
          let body_end = cur.pos in
          let stored = u32.read b ~limit cur in
          verify ~stored ~sum:(checksum32 b ~off ~len:(body_end - off));
          v);
      leaves = (fun v -> c.leaves v + 1);
      bound = (match c.bound with Some n -> Some (n + 4) | None -> None);
      exact =
        (match c.exact with
        | Some e -> Some { e_size = e.e_size + 4; e_leaves = e.e_leaves + 1 }
        | None -> None);
      flat =
        (match c.flat with
        | Some f ->
            Some
              {
                f_size = f.f_size + 4;
                f_write =
                  (fun b off v ->
                    f.f_write b off v;
                    ignore (u32.write b (off + f.f_size) (checksum32 b ~off ~len:f.f_size)));
                f_read =
                  (fun b ~limit cur ->
                    let off = cur.pos in
                    verify ~stored:(get_u32 b (off + f.f_size))
                      ~sum:(checksum32 b ~off ~len:f.f_size);
                    let v = f.f_read b ~limit cur in
                    cur.pos <- off + f.f_size + 4;
                    v);
                (* Lazy per-leaf access deliberately bypasses verification;
                   [decode] (eager) always verifies. *)
                f_leaves = f.f_leaves;
              }
        | None -> None);
    }

(* {2 Records}

   A record is its fields back to back, in order — the same bytes as nested
   [pair]s, without the tuples. Writers project each field with its getter;
   readers hand the decoded fields straight to the curried constructor.
   This comes last in the file because [fields] rebinds [[]] and [::]. *)

type ('r, 'a) field = { codec : 'a t; get : 'r -> 'a }

let field codec get = { codec; get }

type ('r, 'k) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('r, 'a) field * ('r, 'k) fields -> ('r, 'a -> 'k) fields

let rec fields_size : type r k. (r, k) fields -> r -> int =
 fun fs v -> match fs with [] -> 0 | f :: rest -> f.codec.size (f.get v) + fields_size rest v

let rec fields_leaves : type r k. (r, k) fields -> r -> int =
 fun fs v -> match fs with [] -> 0 | f :: rest -> f.codec.leaves (f.get v) + fields_leaves rest v

let rec fields_write : type r k. (r, k) fields -> bytes -> int -> r -> int =
 fun fs buf off v ->
  match fs with [] -> off | f :: rest -> fields_write rest buf (f.codec.write buf off (f.get v)) v

let rec fields_flat_write : type r k. (r, k) fields -> bytes -> int -> r -> unit =
 fun fs buf off v ->
  match fs with
  | [] -> ()
  | f :: rest ->
      let fl = flat_exn f.codec "Codec.record" in
      fl.f_write buf off (f.get v);
      fields_flat_write rest buf (off + fl.f_size) v

(* Static bound, exact size and flat layout (footprint, leaves) of a field
   sequence; each is [None] as soon as one field lacks it. *)
let rec fields_static : type r k.
    (r, k) fields -> int option * exact option * (int * leaf array) option = function
  | [] -> (Some 0, Some { e_size = 0; e_leaves = 0 }, Some (0, [||]))
  | f :: rest ->
      let bound, exact, flat = fields_static rest in
      ( (match (f.codec.bound, bound) with Some m, Some n -> Some (m + n) | _ -> None),
        (match (f.codec.exact, exact) with
        | Some a, Some b ->
            Some { e_size = a.e_size + b.e_size; e_leaves = a.e_leaves + b.e_leaves }
        | _ -> None),
        match (f.codec.flat, flat) with
        | Some fa, Some (size, leaves) ->
            Some (fa.f_size + size, Array.append fa.f_leaves (shift_leaves fa.f_size leaves))
        | _ -> None )

(* Which of a field's readers a record reader composes. *)
type select = { select : 'a. 'a t -> 'a reader }

let compact_reader = { select = (fun c -> c.read) }
let flat_reader = { select = (fun c -> (flat_exn c "Codec.record").f_read) }

(* Fields are read left to right into locals and passed to [mk] in one
   full application, which allocates nothing. Records wider than six fields
   fall back to one partial application per extra field. *)
let rec fields_reader : type r k. select -> (r, k) fields -> k -> r reader =
 fun s fs mk ->
  match fs with
  | [] -> fun _ ~limit:_ _ -> mk
  | [ a ] ->
      let ra = s.select a.codec in
      fun buf ~limit cur -> mk (ra buf ~limit cur)
  | [ a; b ] ->
      let ra = s.select a.codec and rb = s.select b.codec in
      fun buf ~limit cur ->
        let xa = ra buf ~limit cur in
        let xb = rb buf ~limit cur in
        mk xa xb
  | [ a; b; c ] ->
      let ra = s.select a.codec and rb = s.select b.codec and rc = s.select c.codec in
      fun buf ~limit cur ->
        let xa = ra buf ~limit cur in
        let xb = rb buf ~limit cur in
        let xc = rc buf ~limit cur in
        mk xa xb xc
  | [ a; b; c; d ] ->
      let ra = s.select a.codec and rb = s.select b.codec and rc = s.select c.codec in
      let rd = s.select d.codec in
      fun buf ~limit cur ->
        let xa = ra buf ~limit cur in
        let xb = rb buf ~limit cur in
        let xc = rc buf ~limit cur in
        let xd = rd buf ~limit cur in
        mk xa xb xc xd
  | [ a; b; c; d; e ] ->
      let ra = s.select a.codec and rb = s.select b.codec and rc = s.select c.codec in
      let rd = s.select d.codec and re = s.select e.codec in
      fun buf ~limit cur ->
        let xa = ra buf ~limit cur in
        let xb = rb buf ~limit cur in
        let xc = rc buf ~limit cur in
        let xd = rd buf ~limit cur in
        let xe = re buf ~limit cur in
        mk xa xb xc xd xe
  | [ a; b; c; d; e; f ] ->
      let ra = s.select a.codec and rb = s.select b.codec and rc = s.select c.codec in
      let rd = s.select d.codec and re = s.select e.codec and rf = s.select f.codec in
      fun buf ~limit cur ->
        let xa = ra buf ~limit cur in
        let xb = rb buf ~limit cur in
        let xc = rc buf ~limit cur in
        let xd = rd buf ~limit cur in
        let xe = re buf ~limit cur in
        let xf = rf buf ~limit cur in
        mk xa xb xc xd xe xf
  | a :: rest ->
      let ra = s.select a.codec in
      fun buf ~limit cur ->
        let xa = ra buf ~limit cur in
        fields_reader s rest (mk xa) buf ~limit cur

let record fields mk =
  let bound, exact, flat = fields_static fields in
  with_exact
    {
      size = (fun v -> fields_size fields v);
      write = (fun buf off v -> fields_write fields buf off v);
      read = fields_reader compact_reader fields mk;
      leaves = (fun v -> fields_leaves fields v);
      bound;
      exact;
      flat =
        Option.map
          (fun (f_size, f_leaves) ->
            {
              f_size;
              f_write = (fun buf off v -> fields_flat_write fields buf off v);
              f_read = fields_reader flat_reader fields mk;
              f_leaves;
            })
          flat;
    }

let pair a b = record [ field a fst; field b snd ] (fun x y -> (x, y))

let triple a b c =
  record
    [ field a (fun (x, _, _) -> x); field b (fun (_, y, _) -> y); field c (fun (_, _, z) -> z) ]
    (fun x y z -> (x, y, z))

(* {2 Sizes and backend entry points} *)

let size c v = c.size v
let bound c = c.bound
let leaf_count c v = c.leaves v
let flat_capable c = c.flat <> None

let flat_size c = (flat_exn c "Codec.flat_size").f_size
let flat_leaves c = Array.length (flat_exn c "Codec.flat_leaves").f_leaves

let encoded_size ~backend c v =
  match backend with Compact -> c.size v | Flat -> (flat_exn c "Codec.encoded_size").f_size

let encoded_leaves ~backend c v =
  match backend with
  | Compact -> c.leaves v
  | Flat ->
      let f = flat_exn c "Codec.encoded_leaves" in
      if Array.length f.f_leaves > 0 then Array.length f.f_leaves else c.leaves v

let encode ~backend c b off v =
  match backend with
  | Compact -> c.write b off v
  | Flat ->
      let f = flat_exn c "Codec.encode" in
      if off < 0 || off + f.f_size > Bytes.length b then
        invalid_arg "Codec.encode: buffer too small for flat layout";
      f.f_write b off v;
      off + f.f_size

let decode ~backend c b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Codec.decode: range outside buffer";
  let cur = { pos = off } in
  match backend with
  | Compact ->
      let v = c.read b ~limit:(off + len) cur in
      if cur.pos <> off + len then
        fail (Printf.sprintf "%d trailing bytes after message" (off + len - cur.pos));
      v
  | Flat ->
      let f = flat_exn c "Codec.decode" in
      if len <> f.f_size then
        fail (Printf.sprintf "flat message size %d, expected %d" len f.f_size);
      f.f_read b ~limit:(off + len) cur

let to_bytes ?(backend = Compact) c v =
  let b = Bytes.create (encoded_size ~backend c v) in
  let final = encode ~backend c b 0 v in
  assert (final = Bytes.length b);
  b

let of_bytes ?(backend = Compact) c b = decode ~backend c b ~off:0 ~len:(Bytes.length b)

(* {2 Lazy positional access (flat layouts)} *)

let leaf_ c b ~base ~leaf what =
  let f = flat_exn c what in
  if leaf < 0 || leaf >= Array.length f.f_leaves then
    invalid_arg (Printf.sprintf "%s: leaf %d out of range (codec has %d)" what leaf
                   (Array.length f.f_leaves));
  let l = f.f_leaves.(leaf) in
  let off = base + l.l_off in
  if base < 0 || off + leaf_width l.l_kind > Bytes.length b then
    fail (Printf.sprintf "%s: leaf %d outside buffer" what leaf);
  (l, off)

let get_leaf_int c b ~base ~leaf =
  let l, off = leaf_ c b ~base ~leaf "Codec.get_leaf_int" in
  match l.l_kind with
  | L_u8 -> Bytes.get_uint8 b off
  | L_u16 -> Bytes.get_uint16_le b off
  | L_u32 -> get_u32 b off
  | L_u64 -> Int64.to_int (Bytes.get_int64_le b off)
  | L_bool -> (
      match Bytes.get_uint8 b off with
      | (0 | 1) as n -> n
      | n -> fail (Printf.sprintf "invalid bool byte %d" n))
  | L_fixed _ | L_bounded _ -> invalid_arg "Codec.get_leaf_int: leaf is not an integer"

let get_leaf_string c b ~base ~leaf =
  let l, off = leaf_ c b ~base ~leaf "Codec.get_leaf_string" in
  match l.l_kind with
  | L_fixed n -> Bytes.sub_string b off n
  | L_bounded cap ->
      let n = get_u32 b off in
      if n > cap then fail (Printf.sprintf "bounded_string length %d exceeds capacity %d" n cap);
      Bytes.sub_string b (off + 4) n
  | _ -> invalid_arg "Codec.get_leaf_string: leaf is not a string"

let leaf_bytes c ~leaf =
  let f = flat_exn c "Codec.leaf_bytes" in
  if leaf < 0 || leaf >= Array.length f.f_leaves then
    invalid_arg "Codec.leaf_bytes: leaf out of range";
  leaf_width f.f_leaves.(leaf).l_kind

exception Decode_error of string

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

(* Readers decode at a cursor and advance it in place, so reading a field
   allocates nothing but the field's own value. A reader never reads at or
   past [limit]. *)
type cur = { mutable pos : int }

type 'a reader = bytes -> limit:int -> cur -> 'a

(* The size and leaf count of a codec whose every value encodes to
   the same number of bytes. *)
type exact = { e_size : int; e_leaves : int }

(* A codec is an exact-size function, limit-aware writers/readers over a
   bytes buffer, a per-value leaf count for the cost model (a "leaf" is one
   primitive field: encoding or decoding costs per-leaf work plus bulk byte
   movement), a static size bound when one exists, and the exact size of
   constant-size codecs. Writers return the next offset. *)
type 'a t = {
  size : 'a -> int;
  write : bytes -> int -> 'a -> int;
  read : 'a reader;
  leaves : 'a -> int;
  bound : int option;
  exact : exact option;
}

(* Constant-size codecs answer [size] and [leaves] without looking at the
   value, so sizing one never runs a [map]'s [from] or a record's getters. *)
let with_exact c =
  match c.exact with
  | Some e -> { c with size = (fun _ -> e.e_size); leaves = (fun _ -> e.e_leaves) }
  | None -> c

let need b ~limit off n what =
  if off < 0 || off + n > limit || off + n > Bytes.length b then
    fail
      (Printf.sprintf "truncated %s at offset %d (need %d, have %d)" what off n
         (min limit (Bytes.length b) - off))

(* {2 Primitives} *)

let fixed ~n ~what ~wr ~rd =
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
  }

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let u8 =
  fixed ~n:1 ~what:"u8"
    ~wr:(fun b off v ->
      if v < 0 || v > 0xFF then invalid_arg "Codec.u8: out of range";
      Bytes.set_uint8 b off v)
    ~rd:Bytes.get_uint8

let u16 =
  fixed ~n:2 ~what:"u16"
    ~wr:(fun b off v ->
      if v < 0 || v > 0xFFFF then invalid_arg "Codec.u16: out of range";
      Bytes.set_uint16_le b off v)
    ~rd:Bytes.get_uint16_le

let u32 =
  fixed ~n:4 ~what:"u32"
    ~wr:(fun b off v ->
      if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.u32: out of range";
      Bytes.set_int32_le b off (Int32.of_int v))
    ~rd:get_u32

let u64 =
  fixed ~n:8 ~what:"u64"
    ~wr:(fun b off v -> Bytes.set_int64_le b off (Int64.of_int v))
    ~rd:(fun b off -> Int64.to_int (Bytes.get_int64_le b off))

let bool =
  fixed ~n:1 ~what:"bool"
    ~wr:(fun b off v -> Bytes.set_uint8 b off (if v then 1 else 0))
    ~rd:(fun b off ->
      match Bytes.get_uint8 b off with
      | 0 -> false
      | 1 -> true
      | n -> fail (Printf.sprintf "invalid bool byte %d" n))

let fixed_string n =
  fixed ~n ~what:"fixed_string"
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
  }

(* Same wire format as [string], but with a declared capacity, which gives
   it a static size bound. *)
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
  }

(* {2 Combinators} *)

let map ~into ~from c =
  with_exact
    {
      size = (fun v -> c.size (from v));
      write = (fun buf off v -> c.write buf off (from v));
      read = (fun buf ~limit cur -> into (c.read buf ~limit cur));
      leaves = (fun v -> c.leaves (from v));
      bound = c.bound;
      exact = c.exact;
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

(* Static bound and exact size of a field sequence; each is [None] as soon
   as one field lacks it. *)
let rec fields_static : type r k. (r, k) fields -> int option * exact option = function
  | [] -> (Some 0, Some { e_size = 0; e_leaves = 0 })
  | f :: rest ->
      let bound, exact = fields_static rest in
      ( (match (f.codec.bound, bound) with Some m, Some n -> Some (m + n) | _ -> None),
        match (f.codec.exact, exact) with
        | Some a, Some b ->
            Some { e_size = a.e_size + b.e_size; e_leaves = a.e_leaves + b.e_leaves }
        | _ -> None )

(* Fields are read left to right into locals and passed to [mk] in one
   full application, which allocates nothing. Records wider than six fields
   fall back to one partial application per extra field. *)
let rec fields_reader : type r k. (r, k) fields -> k -> r reader =
 fun fs mk ->
  match fs with
  | [] -> fun _ ~limit:_ _ -> mk
  | [ a ] ->
      let ra = a.codec.read in
      fun buf ~limit cur -> mk (ra buf ~limit cur)
  | [ a; b ] ->
      let ra = a.codec.read and rb = b.codec.read in
      fun buf ~limit cur ->
        let xa = ra buf ~limit cur in
        let xb = rb buf ~limit cur in
        mk xa xb
  | [ a; b; c ] ->
      let ra = a.codec.read and rb = b.codec.read and rc = c.codec.read in
      fun buf ~limit cur ->
        let xa = ra buf ~limit cur in
        let xb = rb buf ~limit cur in
        let xc = rc buf ~limit cur in
        mk xa xb xc
  | [ a; b; c; d ] ->
      let ra = a.codec.read and rb = b.codec.read and rc = c.codec.read in
      let rd = d.codec.read in
      fun buf ~limit cur ->
        let xa = ra buf ~limit cur in
        let xb = rb buf ~limit cur in
        let xc = rc buf ~limit cur in
        let xd = rd buf ~limit cur in
        mk xa xb xc xd
  | [ a; b; c; d; e ] ->
      let ra = a.codec.read and rb = b.codec.read and rc = c.codec.read in
      let rd = d.codec.read and re = e.codec.read in
      fun buf ~limit cur ->
        let xa = ra buf ~limit cur in
        let xb = rb buf ~limit cur in
        let xc = rc buf ~limit cur in
        let xd = rd buf ~limit cur in
        let xe = re buf ~limit cur in
        mk xa xb xc xd xe
  | [ a; b; c; d; e; f ] ->
      let ra = a.codec.read and rb = b.codec.read and rc = c.codec.read in
      let rd = d.codec.read and re = e.codec.read and rf = f.codec.read in
      fun buf ~limit cur ->
        let xa = ra buf ~limit cur in
        let xb = rb buf ~limit cur in
        let xc = rc buf ~limit cur in
        let xd = rd buf ~limit cur in
        let xe = re buf ~limit cur in
        let xf = rf buf ~limit cur in
        mk xa xb xc xd xe xf
  | a :: rest ->
      let ra = a.codec.read in
      fun buf ~limit cur ->
        let xa = ra buf ~limit cur in
        fields_reader rest (mk xa) buf ~limit cur

let record fields mk =
  let bound, exact = fields_static fields in
  with_exact
    {
      size = (fun v -> fields_size fields v);
      write = (fun buf off v -> fields_write fields buf off v);
      read = fields_reader fields mk;
      leaves = (fun v -> fields_leaves fields v);
      bound;
      exact;
    }

let pair a b = record [ field a fst; field b snd ] (fun x y -> (x, y))

let triple a b c =
  record
    [ field a (fun (x, _, _) -> x); field b (fun (_, y, _) -> y); field c (fun (_, _, z) -> z) ]
    (fun x y z -> (x, y, z))

(* {2 Sizes and entry points} *)

let size c v = c.size v
let bound c = c.bound
let leaf_count c v = c.leaves v
let encode c b off v = c.write b off v

let decode c b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Codec.decode: range outside buffer";
  let cur = { pos = off } in
  let v = c.read b ~limit:(off + len) cur in
  if cur.pos <> off + len then
    fail (Printf.sprintf "%d trailing bytes after message" (off + len - cur.pos));
  v

let to_bytes c v =
  let b = Bytes.create (c.size v) in
  let final = encode c b 0 v in
  assert (final = Bytes.length b);
  b

let of_bytes c b = decode c b ~off:0 ~len:(Bytes.length b)

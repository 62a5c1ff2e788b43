(** Typed wire codecs.

    The paper deliberately keeps eRPC's API at the level of opaque
    DMA-capable buffers: "a library that provides marshalling and
    unmarshalling can be used as a layer on top of eRPC" (§3.1). This is
    that layer. A ['a t] describes how to put values of type ['a] on the
    wire in one format: length-prefixed little-endian binary, where
    variable-size fields cost only what they use. The golden tests in
    [test_codec.ml] pin the KV and Raft wire bytes.

    Codecs also report a per-value {e leaf count} — the number of
    primitive fields touched by an encode or decode — which is what the
    simulator's cost model charges per field, plus the byte footprint for
    bulk-copy charges.

    Decoding failures (truncation, bad tags, checksum mismatch, trailing
    bytes) raise {!Decode_error}; they never raise [Invalid_argument] or
    return garbage. [Invalid_argument] is reserved for caller bugs: values
    out of range for their field.

    Msgbuf integration lives in [Erpc.Typed] (this library is beneath the
    transport so both [erpc] and plain data code can use it). *)

exception Decode_error of string

type 'a t

(** {1 Primitives} *)

val u8 : int t
val u16 : int t
val u32 : int t
val u64 : int t
val bool : bool t

val fixed_string : int -> string t
(** Exactly [n] bytes, no length prefix. Writing a string of any other
    length raises [Invalid_argument]. *)

val string : string t
(** u32 length + bytes. Unbounded. *)

val bounded_string : int -> string t
(** Same wire format as {!string}, but with a declared capacity [cap], so
    the codec has a static {!bound} ([4 + cap]). Writing more than [cap]
    bytes raises [Invalid_argument]; decoding a length > [cap] raises
    {!Decode_error}. *)

(** {1 Combinators} *)

type ('r, 'a) field

val field : 'a t -> ('r -> 'a) -> ('r, 'a) field
(** [field c get]: a field of a record of type ['r], encoded with [c] and
    read out of the record with [get]. *)

(** The fields of a record, in wire order. Written with list syntax:
    [Codec.[ field u32 fst; field string snd ]]. *)
type ('r, 'k) fields =
  | [] : ('r, 'r) fields
  | ( :: ) : ('r, 'a) field * ('r, 'k) fields -> ('r, 'a -> 'k) fields

val record : ('r, 'k) fields -> 'k -> 'r t
(** [record fields make] encodes the fields back to back — the same bytes
    as nested {!pair}s. Decoding passes the fields, in order, to the
    curried constructor [make]; up to six fields, it allocates nothing
    besides what [make] and the field readers return. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val map : into:('a -> 'b) -> from:('b -> 'a) -> 'a t -> 'b t
(** [map ~into ~from c] builds a codec for a richer type from codec [c]. *)

val list : 'a t -> 'a list t
(** u32-count-prefixed list. *)

val array : 'a t -> 'a array t

val tail_list : 'a t -> 'a list t
(** Elements with {e no} count prefix, read until the end of the message.
    Only valid as the final field of a schema. *)

val option : 'a t -> 'a option t
(** Presence byte + payload. *)

val tail_option : 'a t -> 'a option t
(** Presence encoded by message length: [Some] iff any bytes remain before
    the end of the message. Only valid as the final field of a schema. *)

(** {1 Tagged unions} *)

type 'a case

val case : tag:int -> 'b t -> inj:('b -> 'a) -> proj:('a -> 'b option) -> 'a case
(** One constructor of a variant: a u8 [tag] (unique within the variant)
    followed by the payload. [proj] returns [Some] iff the value belongs
    to this case. *)

val variant : name:string -> 'a case list -> 'a t
(** Decoding an unknown tag raises {!Decode_error}. *)

(** {1 Integrity} *)

val with_checksum : 'a t -> 'a t
(** [with_checksum c] appends a u32 FNV-1a checksum of the encoded body;
    decoding verifies it and raises {!Decode_error} on mismatch —
    app-level end-to-end integrity on top of the per-packet wire checksum. *)

(** {1 Sizes} *)

val size : 'a t -> 'a -> int
(** Exact encoded size of a value. A codec whose every value has the same
    size (built only from fixed-width primitives, {!fixed_string},
    {!record}, {!map} and {!with_checksum}) answers without looking at the
    value; so does {!leaf_count}. *)

val bound : 'a t -> int option
(** Static upper bound on the encoded size, when one exists. *)

val leaf_count : 'a t -> 'a -> int

(** {1 Encode / decode} *)

val encode : 'a t -> bytes -> int -> 'a -> int
(** [encode c b off v] writes [v] at [off] and returns the end offset.
    The caller must have sized [b] via {!size}. *)

val decode : 'a t -> bytes -> off:int -> len:int -> 'a
(** Decodes exactly the [len] bytes at [off], requiring full consumption:
    trailing bytes raise {!Decode_error}, as does any truncated or
    malformed prefix. *)

val to_bytes : 'a t -> 'a -> bytes
val of_bytes : 'a t -> bytes -> 'a

(** {1 Checksums} *)

val bytes_checksum : bytes -> off:int -> len:int -> int
(** FNV-1a over a byte range; identical constants to
    [Erpc.Pkthdr.bytes_checksum], so checksummed wire bytes are unchanged
    by this library's independence from the transport. *)

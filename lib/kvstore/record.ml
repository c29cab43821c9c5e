(** Wire format shared by the WAL and the SSTables: length-prefixed
    key/value pairs.  A value length of 0xffffffff marks a tombstone.
    {v
      klen u32, vlen u32, key bytes, value bytes (none for a tombstone)
    v} *)

let tombstone_len = 0xffffffff
let header_size = 8

(* The compiler primitives behind [Bytes.get_int32_le] and friends, used
   directly so the loaded words stay unboxed. *)
external get32_ne : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32_ne : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"
external bswap32 : int32 -> int32 = "%bswap_int32"
external get64_ne : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external bswap64 : int64 -> int64 = "%bswap_int64"

(** Little-endian u32 at [off]. *)
let get_u32 b off =
  let x = get32_ne b off in
  Int32.to_int (if Sys.big_endian then bswap32 x else x) land 0xffffffff

let set_u32 b off v =
  let x = Int32.of_int v in
  set32_ne b off (if Sys.big_endian then bswap32 x else x)

let encoded_size key value =
  8 + String.length key
  + match value with Some v -> String.length v | None -> 0

(** Write one record at [off] in [b]; [None] value encodes a deletion.
    Returns the offset just past it. *)
let encode_into b off key value =
  let klen = String.length key in
  set_u32 b off klen;
  Bytes.blit_string key 0 b (off + header_size) klen;
  let voff = off + header_size + klen in
  match value with
  | Some v ->
      set_u32 b (off + 4) (String.length v);
      Bytes.blit_string v 0 b voff (String.length v);
      voff + String.length v
  | None ->
      set_u32 b (off + 4) tombstone_len;
      voff

(** One record in exactly [encoded_size key value] bytes. *)
let to_bytes key value =
  let b = Bytes.create (encoded_size key value) in
  ignore (encode_into b 0 key value);
  b

(** Decode the record at [off]; returns (key, value option, next_off). *)
let decode b off =
  let klen = get_u32 b off in
  let vlen = get_u32 b (off + 4) in
  let key = Bytes.sub_string b (off + 8) klen in
  if vlen = tombstone_len then (key, None, off + 8 + klen)
  else
    let v = Bytes.sub_string b (off + 8 + klen) vlen in
    (key, Some v, off + 8 + klen + vlen)

(* --- in-place access to an encoded record at [off] ---------------------- *)

let key_len b off = get_u32 b off
let is_tombstone b off = get_u32 b (off + 4) = tombstone_len

(** Bytes of the record at [off], header included. *)
let size_at b off =
  let klen = get_u32 b off and vlen = get_u32 b (off + 4) in
  if vlen = tombstone_len then header_size + klen else header_size + klen + vlen

(* [String.compare] of [la] bytes of [a] from [pa] with [lb] bytes of [b]
   from [pb]: eight bytes at a time while both have them (a big-endian
   word orders as its bytes do, unsigned), then byte by byte, then by
   length. *)
let compare_sub a pa la b pb lb =
  let n = Int.min la lb in
  let i = ref 0 and c = ref 0 in
  while !c = 0 && !i + 8 <= n do
    let x = get64_ne a (pa + !i) and y = get64_ne b (pb + !i) in
    if x = y then i := !i + 8
    else begin
      let x = if Sys.big_endian then x else bswap64 x
      and y = if Sys.big_endian then y else bswap64 y in
      c := if Int64.logxor x Int64.min_int < Int64.logxor y Int64.min_int then -1 else 1
    end
  done;
  while !c = 0 && !i < n do
    c := Char.compare (Bytes.get a (pa + !i)) (Bytes.get b (pb + !i));
    incr i
  done;
  if !c <> 0 then !c else Int.compare la lb

(** [String.compare] of the key at [off] in [a] with the key at [off']
    in [b], without copying either. *)
let compare_keys a off b off' =
  compare_sub a (off + header_size) (get_u32 a off) b (off' + header_size) (get_u32 b off')

(** [String.compare] of the key at [off] in [b] with [key]. *)
let compare_key b off key =
  compare_sub b (off + header_size) (get_u32 b off)
    (Bytes.unsafe_of_string key) 0 (String.length key)

(** Blocked Bloom filter for SSTables: ~10 bits per key, k=6 probes,
    double hashing over a 64-bit base hash. *)

type t = { bits : Bytes.t; nbits : int }

(* FNV-1a over [len] bytes of [b] from [off], local so the kvstore stays
   independent of the FS libraries.  A plain loop keeps the running hash
   unboxed. *)
let[@inline] hash64_sub b off len =
  let h = ref 0xcbf29ce484222325L in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i))))
        0x100000001b3L
  done;
  !h

let[@inline] hash64 (s : string) =
  hash64_sub (Bytes.unsafe_of_string s) 0 (String.length s)

(** A key's two probe hashes packed in one int (h1 above bit 31, h2
    below), so a key hashed once can probe many filters. *)
type hash = int

let[@inline] pack h =
  let h1 = Int64.to_int (Int64.shift_right_logical h 33) in
  let h2 = Int64.to_int (Int64.logand h 0x7fffffffL) lor 1 in
  (h1 lsl 31) lor h2

let hash key = pack (hash64 key)
let hash_sub b off len = pack (hash64_sub b off len)
let probes = 6

let create n_keys =
  let nbits = max 64 (n_keys * 10) in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits }

let set_bit t i =
  let byte = i / 8 and bit = i mod 8 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl bit)))

let get_bit t i =
  let byte = i / 8 and bit = i mod 8 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

(* Probe [k] sets bit (h1 + k * h2) mod nbits.  Both halves are
   non-negative and the sum cannot overflow, so the probes are walked by
   adding h2 mod nbits: two divisions per key instead of one per probe. *)
let first_probe t h = (h lsr 31) mod t.nbits
let probe_step t h = (h land 0x7fffffff) mod t.nbits

let next_probe t i step =
  let i = i + step in
  if i >= t.nbits then i - t.nbits else i

let add_hash t h =
  let step = probe_step t h in
  let i = ref (first_probe t h) in
  for _ = 1 to probes do
    set_bit t !i;
    i := next_probe t !i step
  done

let mem_hash t h =
  let step = probe_step t h in
  let rec go k i = k >= probes || (get_bit t i && go (k + 1) (next_probe t i step)) in
  go 0 (first_probe t h)

let add t key = add_hash t (hash key)
let mem t key = mem_hash t (hash key)

(** Bytes of the serialized filter: nbits u32, then the bits. *)
let serialized_size t = 4 + Bytes.length t.bits

let write_into t b off =
  Record.set_u32 b off t.nbits;
  Bytes.blit t.bits 0 b (off + 4) (Bytes.length t.bits)

let to_bytes t =
  let b = Bytes.create (serialized_size t) in
  write_into t b 0;
  b

let of_bytes b =
  let nbits = Record.get_u32 b 0 in
  { bits = Bytes.sub b 4 ((nbits + 7) / 8); nbits }

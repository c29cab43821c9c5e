(** Reachability marks for recovery's mark-and-sweep and the offline
    checker: an exact set of region offsets.

    {b Invariant}: every key is a slab payload pointer or a block
    address, so it is 8-aligned and lies in [\[0, size)].  The set keeps
    one bit per 8-byte word of the region, in 4 KiB bit-chunks that are
    allocated on first touch: a chunk covers 256 KiB of region, so the
    memory follows the metadata the marks touch (at most 1/64 of the
    region, plus one pointer per 256 KiB) rather than the region size.
    Ascending iteration is a bit scan, so it yields the keys in the
    order [Array.sort compare] would, without sorting. *)

let chunk_bytes = 4096
let chunk_shift = 15 (* log2 of the 8-byte words one chunk covers *)
let chunk_mask = (1 lsl chunk_shift) - 1

(* untouched chunks share this empty sentinel *)
let absent = Bytes.empty

type t = { chunks : Bytes.t array; size : int; mutable card : int }

(** An empty set over the offsets [\[0, size)]. *)
let create ~size =
  let nchunks = ((size + 7) lsr 3 + chunk_mask) lsr chunk_shift in
  { chunks = Array.make nchunks absent; size; card = 0 }

let cardinal t = t.card
let valid t k = k land 7 = 0 && k >= 0 && k < t.size

let mem t k =
  valid t k
  &&
  let w = k lsr 3 in
  let ch = t.chunks.(w lsr chunk_shift) in
  ch != absent
  &&
  let i = w land chunk_mask in
  Char.code (Bytes.unsafe_get ch (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t k =
  if not (valid t k) then
    invalid_arg (Printf.sprintf "Reach.add: %#x is not an 8-aligned offset" k);
  let w = k lsr 3 in
  let c = w lsr chunk_shift in
  let ch =
    let ch = t.chunks.(c) in
    if ch != absent then ch
    else begin
      let ch = Bytes.make chunk_bytes '\000' in
      t.chunks.(c) <- ch;
      ch
    end
  in
  let i = w land chunk_mask in
  let v = Char.code (Bytes.unsafe_get ch (i lsr 3)) in
  let bit = 1 lsl (i land 7) in
  if v land bit = 0 then begin
    Bytes.unsafe_set ch (i lsr 3) (Char.unsafe_chr (v lor bit));
    t.card <- t.card + 1
  end

let remove t k =
  if mem t k then begin
    let w = k lsr 3 in
    let ch = t.chunks.(w lsr chunk_shift) in
    let i = w land chunk_mask in
    let v = Char.code (Bytes.unsafe_get ch (i lsr 3)) in
    let v = v land lnot (1 lsl (i land 7)) in
    Bytes.unsafe_set ch (i lsr 3) (Char.unsafe_chr v);
    t.card <- t.card - 1
  end

(** [iter f t] applies [f] to every key in ascending order. *)
let iter f t =
  Array.iteri
    (fun c ch ->
      if ch != absent then
        (* skip empty 64-bit words, then empty bytes *)
        for q = 0 to (chunk_bytes / 8) - 1 do
          if Bytes.get_int64_ne ch (q * 8) <> 0L then
            for j = q * 8 to (q * 8) + 7 do
              let v = Char.code (Bytes.unsafe_get ch j) in
              if v <> 0 then
                for b = 0 to 7 do
                  if v land (1 lsl b) <> 0 then
                    f (((c lsl chunk_shift) lor (j lsl 3) lor b) lsl 3)
                done
            done
        done)
    t.chunks

(** The keys in ascending order. *)
let to_sorted_array t =
  let a = Array.make t.card 0 in
  let n = ref 0 in
  iter
    (fun k ->
      a.(!n) <- k;
      incr n)
    t;
  a

(** An append-only int vector: a worker's unsynchronized mark shard,
    read back by index range. *)
module Vec = struct
  type v = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

(** Directory hash blocks (paper Section 4.3, "Directory blocks" and
    Fig. 4).

    A directory is a chain of hash blocks linked through a [next] field.
    A name hashes to one row per block; the row's slots across the chain
    hold persistent pointers to file entries.  When a row is full in
    every block, the creating process appends a new hash block to the
    chain (Fig. 5a).  Chain blocks grow geometrically (each appended
    block doubles the row count, up to a cap), which keeps every
    operation logarithmic in the directory size — the paper's "linear
    hash map" blocks are unspecified in size; geometric growth preserves
    their O(1)-ish behaviour at millions of entries and is documented as
    a deviation in DESIGN.md.

    The *first* block of a directory carries a busy flag per row and
    [ring] rename-log slots (the format's [log_ring], at least one).
    Slot updates are single 8-byte stores, so a torn update is
    impossible; crash recovery relies on the file-entry valid/dirty bits
    plus the row/log flags (Fig. 5).

    Block layout:
    {v
      +0    next pptr u62
      +8    rows u32, ring u32
      +16   busy flags, 1 byte per lock row   (64 bytes; first block only)
      +80   log slots: ring x 48 bytes        (first block only)
      +80+ring*48  slots: rows x 8 x 8 bytes
    v}

    The [ring] word makes each block self-describing: a first block
    carries [ring] log slots, so that concurrent renames in one
    directory each run the Fig. 5 protocol in their own slot, and a
    chain block carries none.  Slot 0 is the paper's log entry at +80;
    every slot ends in an epoch word at +40 that orders pending slots
    for recovery.  On the default one-slot format the rows start at
    +128. *)

open Simurgh_nvmm

let first_rows = 64
let max_rows = 65536
let slots_per_row = 8
let header = 80
let ring_slot_bytes = 48

let size_for_rows ?(ring = 0) rows =
  header + (ring * ring_slot_bytes) + (rows * slots_per_row * 8)

let f_next b = b
let f_rows b = b + 8
let f_ring b = b + 12
let f_busy b row = b + 16 + row

let next r b = Region.read_u62 r (f_next b)

let set_next r b v =
  Region.write_u62 r (f_next b) v;
  Region.persist r (f_next b) 8

let rows r b = Region.read_u32 r (f_rows b)

(** Number of log slots in this block: the format's [log_ring] on a
    directory's first block, 0 on a chain block. *)
let ring r b = Region.read_u32 r (f_ring b)

(** Whether a header of [rows] rows and [ring] log slots can belong to a
    directory: a first block has [first_rows] rows and the format's
    [log_ring] slots, a chain block a power of two up to [max_rows] rows
    and none.  A freed block's free-range node (next, count) fails it. *)
let header_ok ~first ~log_ring ~rows ~ring =
  if first then rows = first_rows && ring = log_ring
  else
    ring = 0 && rows >= first_rows && rows <= max_rows
    && rows land (rows - 1) = 0

(** On-media size of this block. *)
let size_of r b = size_for_rows ~ring:(ring r b) (rows r b)

(* row 0 of a block with [ring] log slots *)
let rows_base b ~ring = b + header + (ring * ring_slot_bytes)

let f_slot r b row s =
  rows_base b ~ring:(ring r b) + (((row * slots_per_row) + s) * 8)

let slot r b row s = Region.read_u62 r (f_slot r b row s)

(* A row is [slots_per_row] adjacent u62 slots — exactly one cache line.
   Row scans batch-load it with a single region round into [dst]
   (reused across chain hops) and pick slots out of the DRAM copy. *)
let row_bytes = slots_per_row * 8

let load_row ?(pos = 0) r b row dst =
  Region.read_bytes_into r (f_slot r b row 0) dst ~pos ~len:row_bytes

(** All [nrows] rows of block [b] (with [ring] log slots) in one read,
    row [i] at [i * row_bytes] of [dst]: a whole-block scan such as
    recovery's reads them as one copy. *)
let load_rows r b ~ring ~nrows dst =
  Region.read_bytes_into r (rows_base b ~ring) dst ~pos:0
    ~len:(nrows * row_bytes)

let slot_of_row dst s = Int64.to_int (Bytes.get_int64_le dst (s * 8))

(* Each setter's staged form is the store plus its [clwb]; its fencing
   form adds the [sfence].  A Fig. 5 op that groups several stores into
   one persist epoch stages them and closes the epoch itself. *)
let stage_slot r b row s v =
  let o = f_slot r b row s in
  Region.write_u62 r o v;
  Region.clwb r o 8

let set_slot r b row s v =
  stage_slot r b row s v;
  Region.sfence r

(* Busy (lock) rows always index the first block's 64 rows. *)
let lock_row_of_hash h = h mod first_rows
let lock_row_of_name n = lock_row_of_hash (Name_hash.hash n)

let busy r b row = Region.read_u8 r (f_busy b row) <> 0

let stage_busy r b row v =
  Region.write_u8 r (f_busy b row) (if v then 1 else 0);
  Region.clwb r (f_busy b row) 1

let set_busy r b row v =
  stage_busy r b row v;
  Region.sfence r

(** Initialize a freshly allocated block of [rows] rows with [ring] log
    slots (a directory's first block; chain blocks have none). *)
let init r b ~rows:nrows ?(ring = 0) () =
  Region.zero r b (size_for_rows ~ring nrows);
  Region.write_u32 r (f_rows b) nrows;
  if ring > 0 then Region.write_u32 r (f_ring b) ring;
  Region.persist r b (header + (ring * ring_slot_bytes))

(* --- log entry for renames --------------------------------------------- *)

module Log = struct
  (* A log slot is the Fig. 5 rename log: state u8, kind u8, four u62
     payload words, then an epoch word at +40 that totally orders
     pending slots for recovery.  A first block's [ring] slots of
     [ring_slot_bytes] each start at +80. *)
  let base b slot = b + header + (slot * ring_slot_bytes)

  let f_state o = o
  let f_kind o = o + 1
  let f_src o = o + 8
  let f_dst o = o + 16
  let f_fentry o = o + 24
  let f_newentry o = o + 32
  let f_epoch o = o + 40

  let kind_cross_rename = 1

  let pending r b ~slot = Region.read_u8 r (f_state (base b slot)) <> 0

  (** Epoch stamp of [slot]. *)
  let epoch r b ~slot = Region.read_u62 r (f_epoch (base b slot))

  (** True when any log slot in this block is pending. *)
  let any_pending r b =
    let n = ring r b in
    let rec go s = s < n && (pending r b ~slot:s || go (s + 1)) in
    go 0

  (** All pending slots of this block as [(slot, epoch)], unordered. *)
  let pending_slots r b =
    let acc = ref [] in
    for s = ring r b - 1 downto 0 do
      if pending r b ~slot:s then acc := (s, epoch r b ~slot:s) :: !acc
    done;
    !acc

  let write r b ~slot ~epoch ~src ~dst ~fentry ~new_entry =
    let o = base b slot in
    Region.write_u8 r (f_kind o) kind_cross_rename;
    Region.write_u62 r (f_src o) src;
    Region.write_u62 r (f_dst o) dst;
    Region.write_u62 r (f_fentry o) fentry;
    Region.write_u62 r (f_newentry o) new_entry;
    Region.write_u62 r (f_epoch o) epoch;
    Region.persist r o ring_slot_bytes;
    (* the state bit is set only once the payload is durable *)
    Region.write_u8 r (f_state o) 1;
    Region.persist r (f_state o) 1

  let read r b ~slot =
    let o = base b slot in
    ( Region.read_u62 r (f_src o),
      Region.read_u62 r (f_dst o),
      Region.read_u62 r (f_fentry o),
      Region.read_u62 r (f_newentry o) )

  let clear r b ~slot =
    let o = base b slot in
    Region.write_u8 r (f_state o) 0;
    Region.persist r (f_state o) 1
end

(* --- chain traversal ----------------------------------------------------- *)

(** Iterate the chain starting at [head]: [f depth block]. *)
let iter_chain r head f =
  let rec go depth b =
    if b <> 0 then begin
      f depth b;
      go (depth + 1) (next r b)
    end
  in
  go 0 head

let chain_length r head =
  let n = ref 0 in
  iter_chain r head (fun _ _ -> incr n);
  !n

(** Find the file entry named [name]: checks one row per block along the
    chain.  Returns (block, row, slot, fentry) and the number of blocks
    visited (for charging). *)
let find r ~head ~name =
  let h = Name_hash.hash name in
  let rowbuf = Bytes.create row_bytes in
  let rec go hops b =
    if b = 0 then (None, hops)
    else begin
      let row = h mod rows r b in
      load_row r b row rowbuf;
      let s = ref 0 in
      while
        !s < slots_per_row
        &&
        let p = slot_of_row rowbuf !s in
        p = 0 || not (Fentry.name_equals r p name)
      do
        incr s
      done;
      if !s = slots_per_row then go (hops + 1) (next r b)
      else (Some (b, row, !s, slot_of_row rowbuf !s), hops + 1)
    end
  in
  go 0 head

let rec mem_block b = function [] -> false | x :: l -> x = b || mem_block b l

(** What {!probe} saw of one name's row along a chain. *)
type probe = {
  found : int;  (** the named entry; 0 when the name is absent *)
  blk : int;
  row : int;
  slot : int;
      (** on a hit, where [found] is linked; on a miss, the first free
          slot of the name's row ([blk] = 0 when the row is full in
          every block) *)
  last : int;  (** the chain's last block that is not retired *)
  hops : int;  (** blocks visited (for charging) *)
}

(** One pass over [name]'s row in every chain block: the entry if the
    name is present, else the first free slot seen on the way and the
    chain's last block, which the growth path appends after.  Blocks in
    [retired] (being unlinked by Fig. 5b step 6, hence empty) are
    stepped over: no slot is picked there and none is the last block. *)
let probe ?(retired = []) r ~head ~name =
  let h = Name_hash.hash name in
  let rowbuf = Bytes.create row_bytes in
  let found = ref 0 and fb = ref 0 and frow = ref 0 and fs = ref 0 in
  let b = ref head and last = ref head and hops = ref 0 in
  while !b <> 0 do
    let blk = !b in
    incr hops;
    if mem_block blk retired then b := next r blk
    else begin
      let row = h mod rows r blk in
      load_row r blk row rowbuf;
      let s = ref 0 in
      while !s < slots_per_row do
        let p = slot_of_row rowbuf !s in
        if p = 0 then begin
          if !fb = 0 then begin
            fb := blk;
            frow := row;
            fs := !s
          end;
          incr s
        end
        else if Fentry.name_equals r p name then begin
          found := p;
          fb := blk;
          frow := row;
          fs := !s;
          s := slots_per_row
        end
        else incr s
      done;
      last := blk;
      b := if !found <> 0 then 0 else next r blk
    end
  done;
  {
    found = !found;
    blk = !fb;
    row = !frow;
    slot = !fs;
    last = !last;
    hops = !hops;
  }

(** The first free slot for [hash] along the chain from [head]:
    ((block, row, slot) option, hops, last block visited).  Only the
    growth path's re-check from {!probe}'s [last], under the append
    lock, still needs it: every other search is {!probe}. *)
let find_free_slot ?(retired = []) r ~head ~hash =
  let rowbuf = Bytes.create row_bytes in
  let rec go hops b last =
    if b = 0 then (None, hops, last)
    else if mem_block b retired then go (hops + 1) (next r b) last
    else begin
      let row = hash mod rows r b in
      load_row r b row rowbuf;
      let s = ref 0 in
      while !s < slots_per_row && slot_of_row rowbuf !s <> 0 do
        incr s
      done;
      if !s = slots_per_row then go (hops + 1) (next r b) b
      else (Some (b, row, !s), hops + 1, b)
    end
  in
  go 0 head head

(** Iterate every non-null slot of block [b]: [f row slot fentry]. *)
let iter_block r b f =
  let rowbuf = Bytes.create row_bytes in
  for row = 0 to rows r b - 1 do
    load_row r b row rowbuf;
    for s = 0 to slots_per_row - 1 do
      let p = slot_of_row rowbuf s in
      if p <> 0 then f row s p
    done
  done

(** Iterate every non-null slot in the chain: [f block row slot fentry]. *)
let iter_entries r head f = iter_chain r head (fun _ b -> iter_block r b (f b))

(** Number of live entries in the chain. *)
let count_entries r head =
  let n = ref 0 in
  iter_entries r head (fun _ _ _ _ -> incr n);
  !n

(** True when the block has no used slot (candidate for freeing,
    Fig. 5b step 6). *)
let block_empty r b =
  let used = ref false in
  let nrows = rows r b in
  let rowbuf = Bytes.create row_bytes in
  (try
     for row = 0 to nrows - 1 do
       load_row r b row rowbuf;
       for s = 0 to slots_per_row - 1 do
         if slot_of_row rowbuf s <> 0 then begin
           used := true;
           raise Exit
         end
       done
     done
   with Exit -> ());
  not !used

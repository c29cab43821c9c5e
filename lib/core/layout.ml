(** On-region layout: superblock and the placement of the allocators
    (paper Fig. 3).

    {v
      0        superblock (4 KiB)
      4096     block-allocator header
      ...      slab headers (inode / file-entry / directory-block)
      data     managed block space up to the end of the region
    v} *)

open Simurgh_nvmm

let magic = 0x51309 (* "SIMURGH" would not fit a u32 tag; this does *)
(* 2: every first directory block carries [log_ring >= 1] log slots *)
let version = 2
let superblock_size = 4096
let block_size = 256
let segments_per_core = 2

(* superblock fields *)
let f_magic = 0
let f_version = 4
let f_clean = 8 (* clean shutdown marker *)
let f_region_size = 16
let f_root_fentry = 24 (* pptr to the root directory's file entry *)
let f_balloc = 32 (* offset of the block-allocator header *)
let f_inode_slab = 40
let f_fentry_slab = 48
let f_format = 56 (* rename-log ring size (bits 0-7) and protocol flags *)
let f_regions = 60 (* region count of the sharded namespace; 0 = legacy 1 *)
let f_shard = 64 (* this region's shard index within [f_regions] *)
let f_secure = 68 (* security plane: per-fentry owner words; 0 = legacy *)

(* protocol flags of the format word, above the ring size; a default
   format sets none, so its word is the bare ring size 1 *)
let bit_scaled = 0x100
let bit_range_locks = 0x200
let bit_coarse_dir_locks = 0x400
let bit_relaxed_writes = 0x800

type t = {
  region : Region.t;
  balloc : Simurgh_alloc.Block_alloc.t;
  inode_slab : Simurgh_alloc.Slab_alloc.t;
  fentry_slab : Simurgh_alloc.Slab_alloc.t;
  log_ring : int;
      (** Format-time rename-log ring size, 1-255: each directory's
          first hash block carries this many 48-byte log slots from +80.
          The default 1 is the paper's single log entry (Fig. 5) with
          an epoch word. *)
  regions : int;
      (** Region count of the multi-region (sharded) namespace this
          region belongs to.  Legacy media reads back 0 and is treated
          as 1; the superblock words are only written when sharded, so
          single-region media stays bit-identical. *)
  shard_index : int;  (** this region's index within [regions] *)
  scaled : bool;
      (** Metadata-scalability protocol: the DRAM resolve cache,
          per-thread allocator caches and posted rename-log writes. *)
  range_locks : bool;
      (** Byte-range data-path locking: writers hold only the 4 KiB
          rows they touch, appends reserve bytes with a fetch-and-add
          and publish the size in order, and whole-file operations
          (truncate, O_TRUNC, unlink) fence everyone out through an
          exclusive pass over the per-file lock.  Off = seed behavior,
          one rwlock per file around every data operation. *)
  coarse_dir_locks : bool;
      (** Ablation: one lock per directory instead of per-row locks,
          the "whole-directory lock" counterfactual. *)
  relaxed_writes : bool;
      (** Ablation: no per-file write lock (Fig. 7k "relaxed"). *)
  secure : bool;
      (** Security plane formatted in: file entries carry the packed
          owner/mode word at +72 (80-byte slab objects) and the protected
          entry points enforce per-user permissions against it.  The
          superblock word at [f_secure] is only written when on, so
          legacy media stays bit-identical with the flag off. *)
}

let root_fentry t = Region.read_u62 t.region f_root_fentry
let set_root_fentry t p =
  Region.write_u62 t.region f_root_fentry p;
  Region.persist t.region f_root_fentry 8

let clean_shutdown t = Region.read_u8 t.region f_clean <> 0

(* Region-level variant: lets a mounter consult the flag before paying
   for [attach] (the clean-shutdown fast path in [Recovery.mount_auto]). *)
let clean_shutdown_of_region region = Region.read_u8 region f_clean <> 0

let set_clean_shutdown t v =
  Region.write_u8 t.region f_clean (if v then 1 else 0);
  Region.persist t.region f_clean 1

(** Format [region].  [log_ring] (1-255, default 1) is the number of
    rename-log slots each directory's first block carries.  The protocol
    flags decide which locks a mount takes, so they go to the format
    word, where every mount reads them. *)
let format ?segments ?(log_ring = 1) ?(shard = (0, 1)) ?(secure = false)
    ?(scaled = false) ?(range_locks = false) ?(coarse_dir_locks = false)
    ?(relaxed_writes = false) region ~cores =
  let size = Region.size region in
  if size < 1 lsl 20 then invalid_arg "Layout.format: region too small";
  if log_ring < 1 || log_ring > 255 then
    invalid_arg "Layout.format: log_ring out of range";
  let shard_index, regions = shard in
  if regions < 1 || shard_index < 0 || shard_index >= regions then
    invalid_arg "Layout.format: bad shard index/region count";
  Region.write_u32 region f_magic magic;
  Region.write_u32 region f_version version;
  Region.write_u62 region f_region_size size;
  Region.write_u62 region f_root_fentry 0;
  let bit b on = if on then b else 0 in
  Region.write_u32 region f_format
    (log_ring lor bit bit_scaled scaled
    lor bit bit_range_locks range_locks
    lor bit bit_coarse_dir_locks coarse_dir_locks
    lor bit bit_relaxed_writes relaxed_writes);
  if regions > 1 then begin
    (* only sharded media carries the words: a single-region format
       leaves offsets 60/64 untouched (zero), so legacy images stay
       bit-identical down to the store counters *)
    Region.write_u32 region f_regions regions;
    Region.write_u32 region f_shard shard_index
  end;
  (* like the shard words: only secure media carries the flag, so a
     default format leaves offset 68 untouched and stays bit-identical *)
  if secure then Region.write_u32 region f_secure 1;
  let segments =
    match segments with
    | Some s -> max 1 s
    | None -> max 2 (segments_per_core * cores)
  in
  let balloc_off = superblock_size in
  let balloc_hdr = Simurgh_alloc.Block_alloc.header_size ~segments in
  let inode_slab_off = balloc_off + balloc_hdr in
  let fentry_slab_off = inode_slab_off + Simurgh_alloc.Slab_alloc.header_size in
  let data_base =
    (* align managed space to the block size *)
    let b = fentry_slab_off + Simurgh_alloc.Slab_alloc.header_size in
    (b + block_size - 1) / block_size * block_size
  in
  let blocks = (size - data_base) / block_size in
  Region.write_u62 region f_balloc balloc_off;
  Region.write_u62 region f_inode_slab inode_slab_off;
  Region.write_u62 region f_fentry_slab fentry_slab_off;
  let balloc =
    Simurgh_alloc.Block_alloc.format region ~off:balloc_off ~base:data_base
      ~blocks ~block_size ~segments
  in
  let inode_slab =
    Simurgh_alloc.Slab_alloc.format region ~off:inode_slab_off
      ~obj_size:Inode.payload_size ~block_alloc:balloc ~objs_per_seg:256
  in
  let fentry_obj_size =
    if secure then Fentry.secure_payload_size else Fentry.payload_size
  in
  let fentry_slab =
    Simurgh_alloc.Slab_alloc.format region ~off:fentry_slab_off
      ~obj_size:fentry_obj_size ~block_alloc:balloc ~objs_per_seg:256
  in
  Region.write_u8 region f_clean 1;
  Region.persist region 0 superblock_size;
  {
    region;
    balloc;
    inode_slab;
    fentry_slab;
    log_ring;
    regions;
    shard_index;
    scaled;
    range_locks;
    coarse_dir_locks;
    relaxed_writes;
    secure;
  }

(** Attach to a formatted region.  The slabs' volatile free caches start
    empty: {!Fs.mount} rebuilds them and recovery installs the ones its
    segment sweep builds.  The block allocator's free lists are loaded
    from their media checkpoint only when the clean flag is set: any
    other image is a crash image, whose lists only recovery's rebuild
    may produce. *)
let attach region =
  if Region.read_u32 region f_magic <> magic then
    invalid_arg "Layout.attach: not a Simurgh region";
  if Region.read_u32 region f_version <> version then
    invalid_arg "Layout.attach: version mismatch";
  let balloc_off = Region.read_u62 region f_balloc in
  let balloc =
    Simurgh_alloc.Block_alloc.attach
      ~load:(clean_shutdown_of_region region)
      region ~off:balloc_off
  in
  let slab off =
    Simurgh_alloc.Slab_alloc.attach region ~off ~block_alloc:balloc
  in
  let w = Region.read_u32 region f_format in
  (* a flag this code does not know would be a protocol it cannot run,
     and every format has a log slot *)
  if w lsr 12 <> 0 || w land 0xff = 0 then
    invalid_arg "Layout.attach: bad format word";
  {
    region;
    balloc;
    inode_slab = slab (Region.read_u62 region f_inode_slab);
    fentry_slab = slab (Region.read_u62 region f_fentry_slab);
    log_ring = w land 0xff;
    regions = (match Region.read_u32 region f_regions with 0 -> 1 | n -> n);
    shard_index = Region.read_u32 region f_shard;
    scaled = w land bit_scaled <> 0;
    range_locks = w land bit_range_locks <> 0;
    coarse_dir_locks = w land bit_coarse_dir_locks <> 0;
    relaxed_writes = w land bit_relaxed_writes <> 0;
    secure = Region.read_u32 region f_secure <> 0;
  }

module Balloc = Simurgh_alloc.Block_alloc

(* the end of the block area *)
let block_end t =
  Balloc.base t.balloc
  + (Balloc.total_blocks t.balloc * Balloc.block_size t.balloc)

(** [dir_block_addr t b]: [b] is a block-aligned address inside the
    block area, where a directory block can sit.  Nothing is read at an
    address that fails it. *)
let dir_block_addr t b =
  let base = Balloc.base t.balloc in
  b >= base && b < block_end t && (b - base) mod Balloc.block_size t.balloc = 0

(** [dir_block t ~first b ~rows ~ring]: a block at [b] whose header
    reads [rows] and [ring] can be a first ([first]) or chain directory
    block of [t]: {!dir_block_addr}, a header {!Dirblock.header_ok}
    accepts, and the block ends inside the block area.  Recovery's mark
    and {!Check.run} follow a chain link or a directory entry's head only
    to a block that passes. *)
let dir_block t ~first b ~rows ~ring =
  dir_block_addr t b
  && Dirblock.header_ok ~first ~log_ring:t.log_ring ~rows ~ring
  && b + Dirblock.size_for_rows ~ring rows <= block_end t

(** Persistent inode (paper Section 4.3, "Inode").

    There are no inode numbers: an inode's identity is its 64-bit
    persistent pointer (the slab payload offset), so no number-to-location
    index is needed.  File data is mapped by four inline extents plus a
    chain of overflow extent blocks.

    Layout (payload, 8-aligned offsets):
    {v
      +0   mode   u32   (type bits lor permission bits)
      +4   uid    u32
      +8   gid    u32
      +12  nlink  u32
      +16  size   u62
      +24  mtime  u62
      +32  ctime  u62
      +40  rsvd   u62
      +48  extents[4]          (addr u62, blocks u32, pad u32) x 4 = 64
      +112 overflow pptr u62   (chain of extent blocks)
      +120 end
    v} *)

open Simurgh_nvmm

let payload_size = 120
let inline_extents = 4

(* mode type bits (upper nibble) *)
let type_file = 0x1000
let type_dir = 0x2000
let type_symlink = 0x3000
let type_mask = 0xf000
let perm_mask = 0o777

type kind = File | Dir | Symlink

let kind_of_mode m =
  match m land type_mask with
  | x when x = type_dir -> Dir
  | x when x = type_symlink -> Symlink
  | _ -> File

let mode_of_kind ?(perm = 0o644) = function
  | File -> type_file lor (perm land perm_mask)
  | Dir -> type_dir lor (perm land perm_mask)
  | Symlink -> type_symlink lor (perm land perm_mask)

type t = int (* persistent pointer = payload address *)

let f_mode i = i
let f_uid i = i + 4
let f_gid i = i + 8
let f_nlink i = i + 12
let f_size i = i + 16
let f_mtime i = i + 24
let f_ctime i = i + 32
let f_extent i k = i + 48 + (k * 16)
let f_overflow i = i + 112

let mode r i = Region.read_u32 r (f_mode i)
let uid r i = Region.read_u32 r (f_uid i)
let gid r i = Region.read_u32 r (f_gid i)
let nlink r i = Region.read_u32 r (f_nlink i)
let size r i = Region.read_u62 r (f_size i)
let mtime r i = Region.read_u62 r (f_mtime i)
let ctime r i = Region.read_u62 r (f_ctime i)
let kind r i = kind_of_mode (mode r i)
let perm r i = mode r i land perm_mask

let set_mode r i v = Region.write_u32 r (f_mode i) v
let set_nlink r i v = Region.write_u32 r (f_nlink i) v
let set_size r i v = Region.write_u62 r (f_size i) v
let set_mtime r i v = Region.write_u62 r (f_mtime i) v

(** Initialize a freshly allocated inode, staged: stores plus [clwb]
    (Fig. 5a step 1, "the inode is created and persisted", completes at
    the fence that closes the caller's epoch). *)
let stage_init r i ~mode:m ~uid:u ~gid:g ~now =
  Region.write_u32 r (f_mode i) m;
  Region.write_u32 r (f_uid i) u;
  Region.write_u32 r (f_gid i) g;
  Region.write_u32 r (f_nlink i) 1;
  Region.write_u62 r (f_size i) 0;
  Region.write_u62 r (f_mtime i) now;
  Region.write_u62 r (f_ctime i) now;
  for k = 0 to inline_extents - 1 do
    Region.write_u62 r (f_extent i k) 0;
    Region.write_u62 r (f_extent i k + 8) 0
  done;
  Region.write_u62 r (f_overflow i) 0;
  Region.clwb r i payload_size

(** [stage_init] plus the fence. *)
let init r i ~mode ~uid ~gid ~now =
  stage_init r i ~mode ~uid ~gid ~now;
  Region.sfence r

let stage_nlink r i v =
  set_nlink r i v;
  Region.clwb r (f_nlink i) 4

let read_extent r i k =
  let addr = Region.read_u62 r (f_extent i k) in
  let blocks = Region.read_u32 r (f_extent i k + 8) in
  (addr, blocks)

let write_extent r i k ~addr ~blocks =
  Region.write_u62 r (f_extent i k) addr;
  Region.write_u32 r (f_extent i k + 8) blocks;
  Region.persist r (f_extent i k) 16

(** Batched-writeback variant: store + clwb only, no fence.  A caller
    staging several slots issues one [Region.sfence] for the whole run
    instead of paying a persist barrier per slot. *)
let stage_extent r i k ~addr ~blocks =
  Region.write_u62 r (f_extent i k) addr;
  Region.write_u32 r (f_extent i k + 8) blocks;
  Region.clwb r (f_extent i k) 16

(* Overflow extent blocks hold [overflow_entries] extents plus a next
   pointer; they are plain block-allocator blocks. *)
let overflow_entries = 15
let overflow_bytes = 8 + (overflow_entries * 16) (* fits a 256-byte block *)

let ov_next b = b
let ov_extent b k = b + 8 + (k * 16)

let read_ov_extent r b k =
  (Region.read_u62 r (ov_extent b k), Region.read_u32 r (ov_extent b k + 8))

let write_ov_extent r b k ~addr ~blocks =
  Region.write_u62 r (ov_extent b k) addr;
  Region.write_u32 r (ov_extent b k + 8) blocks;
  Region.persist r (ov_extent b k) 16

(** Fence-free overflow-slot store (see {!stage_extent}). *)
let stage_ov_extent r b k ~addr ~blocks =
  Region.write_u62 r (ov_extent b k) addr;
  Region.write_u32 r (ov_extent b k + 8) blocks;
  Region.clwb r (ov_extent b k) 16

(** Iterate all extents of [i] in file order: [f addr blocks]. *)
let iter_extents r i f =
  for k = 0 to inline_extents - 1 do
    let addr, blocks = read_extent r i k in
    if addr <> 0 then f addr blocks
  done;
  let rec chain b =
    if b <> 0 then begin
      for k = 0 to overflow_entries - 1 do
        let addr, blocks = read_ov_extent r b k in
        if addr <> 0 then f addr blocks
      done;
      chain (Region.read_u62 r (ov_next b))
    end
  in
  chain (Region.read_u62 r (f_overflow i))

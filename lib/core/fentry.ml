(** File entry (paper Fig. 4): the named link between a directory row and
    an inode or a child directory block chain.

    Layout (payload):
    {v
      +0   flags    u8   (bit0 dir, bit1 symlink, bit2 long name)
      +1   name_len u8
      +2   name     bytes[46]       (inline short names)
      +48  target   pptr u62        (inode; for dirs: also dir block head)
      +56  dirblock pptr u62        (directories: first hash block)
      +64  longname pptr u62        (spill block for names > 46 bytes)
      +72  end                      (legacy media)
      +72  owner    u62             (secure media only: uid/gid/mode word)
      +80  end                      (secure media)
    v}

    Directories carry both their inode (ownership, permissions, times)
    and the head of their hash-block chain.

    Volumes formatted with the security plane enabled ([Layout.format
    ~secure:true]) widen the payload by one word: a packed owner/mode
    word ([uid:24 | gid:24 | mode:12], bits 60..0 of a u62) checked by
    the protected entry points on every lookup without touching the
    inode line.  Legacy media keeps the 72-byte payload bit-identical. *)

open Simurgh_nvmm

let payload_size = 72
let secure_payload_size = 80
let inline_name_max = 46
let name_max = 255

let fl_dir = 0x1
let fl_symlink = 0x2
let fl_longname = 0x4

type t = int (* persistent pointer to the payload *)

let f_flags e = e
let f_name_len e = e + 1
let f_name e = e + 2
let f_target e = e + 48
let f_dirblock e = e + 56
let f_longname e = e + 64
let f_owner e = e + 72 (* secure media only *)

let flags r e = Region.read_u8 r (f_flags e)
let is_dir r e = flags r e land fl_dir <> 0
let is_symlink r e = flags r e land fl_symlink <> 0
let target r e = Region.read_u62 r (f_target e)
let dirblock r e = Region.read_u62 r (f_dirblock e)
let set_target r e v =
  Region.write_u62 r (f_target e) v;
  Region.persist r (f_target e) 8

let set_dirblock r e v =
  Region.write_u62 r (f_dirblock e) v;
  Region.persist r (f_dirblock e) 8

let name r e =
  let f = flags r e in
  if f land fl_longname = 0 then begin
    let len = Region.read_u8 r (f_name_len e) in
    Bytes.unsafe_to_string (Region.read_bytes r (f_name e) len)
  end
  else begin
    let spill = Region.read_u62 r (f_longname e) in
    let len = Region.read_u16 r spill in
    Bytes.unsafe_to_string (Region.read_bytes r (spill + 2) len)
  end

(** Write name + flags + target; long names spill into a block supplied
    by [alloc_spill] (one small block-allocator chunk). *)
let init r e ~name:n ~dir ~symlink ~target:tgt ~alloc_spill =
  let len = String.length n in
  if len = 0 || len > name_max then invalid_arg "Fentry.init: bad name length";
  let base_flags =
    (if dir then fl_dir else 0) lor if symlink then fl_symlink else 0
  in
  if len <= inline_name_max then begin
    Region.write_u8 r (f_flags e) base_flags;
    Region.write_u8 r (f_name_len e) len;
    Region.write_string r (f_name e) n;
    Region.write_u62 r (f_longname e) 0
  end
  else begin
    let spill = alloc_spill (2 + len) in
    Region.write_u16 r spill len;
    Region.write_string r (spill + 2) n;
    Region.persist r spill (2 + len);
    Region.write_u8 r (f_flags e) (base_flags lor fl_longname);
    Region.write_u8 r (f_name_len e) 0;
    Region.write_u62 r (f_longname e) spill
  end;
  Region.write_u62 r (f_target e) tgt;
  Region.write_u62 r (f_dirblock e) 0;
  Region.persist r e payload_size

(* --- owner/mode word (secure media only) ----------------------------- *)

(** Pack uid/gid/mode into the +72 owner word: [uid:24 | gid:24 | mode:12]
    (fits the 62-bit persistent word).  Only meaningful on volumes
    formatted with [~secure:true]; legacy 72-byte payloads have no room
    for it and must never call these. *)
let pack_owner ~uid ~gid ~perm =
  ((uid land 0xffffff) lsl 36) lor ((gid land 0xffffff) lsl 12)
  lor (perm land 0xfff)

let set_owner r e ~uid ~gid ~perm =
  Region.write_u62 r (f_owner e) (pack_owner ~uid ~gid ~perm);
  Region.persist r (f_owner e) 8

(** [(uid, gid, mode)] from the owner word. *)
let owner r e =
  let w = Region.read_u62 r (f_owner e) in
  ((w lsr 36) land 0xffffff, (w lsr 12) land 0xffffff, w land 0xfff)

let copy_owner r ~src ~dst =
  Region.write_u62 r (f_owner dst) (Region.read_u62 r (f_owner src));
  Region.persist r (f_owner dst) 8

(** Compare without allocating for the common inline case. *)
let name_equals r e n =
  let f = flags r e in
  if f land fl_longname = 0 then begin
    let len = Region.read_u8 r (f_name_len e) in
    len = String.length n && Region.equal_string r (f_name e) n
  end
  else String.equal (name r e) n

(** The spill block to free on deallocation, if any: (addr, len). *)
let spill r e =
  if flags r e land fl_longname = 0 then None
  else
    let s = Region.read_u62 r (f_longname e) in
    let len = Region.read_u16 r s in
    Some (s, 2 + len)

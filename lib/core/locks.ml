(** Volatile (shared-DRAM) lock registries.

    The persistent busy flags in directory blocks provide crash
    detection; the virtual-time spin locks here provide the mutual
    exclusion and the contention accounting.  Per-file read/write locks
    implement the paper's "read/write lock per file ... exclusive writes
    while allowing concurrent reads", with a relaxed mode that disables
    them (Fig. 7k "relaxed").

    The registries themselves are striped: keys hash to one of
    {!nstripes} independent sub-tables, so registry lookups from
    different threads touch different stripes instead of one global
    structure (in the real system each stripe carries its own guard
    lock; here the striping keeps the shared-DRAM model honest and the
    size accounting per-stripe).

    [striped] additionally stripes the {e append} serialization of one
    directory: instead of a single chain-extension lock per directory,
    each hash row gets its own append lock, and only the two genuinely
    directory-global actions keep a (short) global lock — physically
    linking a new hash block into the chain ({!chain_lock}) and writing
    the directory's single persistent rename-log entry ({!log_lock}). *)

open Simurgh_sim

(** Volatile append/extend coordination of one file (range-lock mode):
    the shared-DRAM words behind concurrent append.  [reserved] is bumped
    with a fetch-and-add to hand each appender a private byte range;
    [published] trails it and equals the persistent size word — an
    appender publishes only once every earlier reservation has published,
    so a crash can never expose unwritten bytes.  Whenever no operation
    is in flight, [reserved = published = persistent size]. *)
type file_state = {
  mutable reserved : int;  (** end of the highest handed-out byte range *)
  mutable published : int;  (** persistent size already made visible *)
}
(** Both [-1] until the first data operation fills them from the inode
    (under the file's extent lock — registry code must not take locks,
    so it cannot read the size itself without racing a publisher). *)

(* Registry keys are ints and int pairs, hashed with {!Simurgh_util.mix}
   instead of the polymorphic [Hashtbl.hash]/[compare] (directory heads
   are block-aligned, hence the mix's fold).  The stripe comes from the
   top bits instead (see {!stripe_of}). *)
let mix = Simurgh_util.mix

let mix_pair (a, b) = mix (mix a + b)

module Registry (K : Hashtbl.HashedType) = struct
  include Hashtbl.Make (K)

  let find_or_create tbl key make =
    match find_opt tbl key with
    | Some l -> l
    | None ->
        let l = make () in
        replace tbl key l;
        l
end

module Itbl = Registry (struct
  type t = int

  let equal = Int.equal
  let hash = mix
end)

module Ptbl = Registry (struct
  type t = int * int

  let equal (a, b) (c, d) = Int.equal a c && Int.equal b d
  let hash = mix_pair
end)

type stripe = {
  row_locks : Vlock.Spin.t Ptbl.t;
      (** (first dir block, row) -> spin lock *)
  file_locks : Vlock.Rw.t Itbl.t;  (** inode pptr -> rwlock *)
  append_locks : Vlock.Spin.t Ptbl.t;
      (** (first dir block, row) -> append lock; legacy mode keys
          everything under row 0 (one chain-extension lock per dir) *)
  aux_locks : Vlock.Spin.t Ptbl.t;
      (** striped mode only: (dir, 0) = chain-link lock,
          (dir, 1) = rename-log lock (legacy single slot),
          (dir, 2 + s) = lock of rename-log ring slot [s] *)
  range_locks : Vlock.Rw.t Ptbl.t;
      (** range-lock mode: (inode pptr, byte row) -> rwlock *)
  extent_locks : Vlock.Rw.t Itbl.t;
      (** range-lock mode: inode pptr -> extent-list/size-word lock *)
  file_states : file_state Itbl.t;
      (** range-lock mode: inode pptr -> append coordination words *)
}

type t = {
  striped : bool;
  stripes : stripe array;
  mutable log_epoch : int;
      (** Mount-global rename-log epoch: each log-ring rename stamps the
          next value into its slot so recovery can totally order pending
          slots.  Volatile on purpose — a crash clears every pending
          slot, so only relative order within one mount matters.  Plain
          increment is atomic under the fiber scheduler (no yield
          point). *)
  mutable log_slot_hint : int;
      (** Rotating claim hint so concurrent renames start probing the
          ring at different slots instead of convoying on slot 0. *)
  mutable log_slot_acquisitions : int;
      (** obs: ring slots successfully claimed ([rename_log/slot_acq]) *)
  mutable log_ring_full_waits : int;
      (** obs: claims that found every ring slot held and had to block
          ([rename_log/ring_full_waits]) *)
}

let stripe_bits = 4
let nstripes = 1 lsl stripe_bits

let create ?(striped = false) () =
  {
    striped;
    stripes =
      Array.init nstripes (fun _ ->
          {
            row_locks = Ptbl.create 64;
            file_locks = Itbl.create 64;
            append_locks = Ptbl.create 16;
            aux_locks = Ptbl.create 16;
            range_locks = Ptbl.create 64;
            extent_locks = Itbl.create 16;
            file_states = Itbl.create 16;
          });
    log_epoch = 0;
    log_slot_hint = 0;
    log_slot_acquisitions = 0;
    log_ring_full_waits = 0;
  }

let striped t = t.striped

(** Next rename-log epoch (monotone within this mount, starts at 1 so a
    stamped slot is never confused with the zeroed legacy epoch). *)
let next_log_epoch t =
  let e = t.log_epoch + 1 in
  t.log_epoch <- e;
  e

(** Next starting slot for a ring claim over [n] slots. *)
let next_log_slot_hint t ~n =
  let h = t.log_slot_hint in
  t.log_slot_hint <- h + 1;
  h mod n

let note_log_slot_acquisition t =
  t.log_slot_acquisitions <- t.log_slot_acquisitions + 1

let note_log_ring_full_wait t =
  t.log_ring_full_waits <- t.log_ring_full_waits + 1

let log_slot_acquisitions t = t.log_slot_acquisitions
let log_ring_full_waits t = t.log_ring_full_waits

(* The top [stripe_bits] bits of the mix.  Taking the stripe from the
   low bits, as the tables take their buckets, would leave every key of
   a stripe in one sixteenth of its buckets. *)
let stripe_shift = Sys.int_size - stripe_bits
let stripe_of t key = t.stripes.(mix key lsr stripe_shift)
let stripe_of_pair t key = t.stripes.(mix_pair key lsr stripe_shift)

let clear t =
  Array.iter
    (fun s ->
      Ptbl.reset s.row_locks;
      Itbl.reset s.file_locks;
      Ptbl.reset s.append_locks;
      Ptbl.reset s.aux_locks;
      Ptbl.reset s.range_locks;
      Itbl.reset s.extent_locks;
      Itbl.reset s.file_states)
    t.stripes

let row_lock t ~dir ~row =
  let key = (dir, row) in
  Ptbl.find_or_create (stripe_of_pair t key).row_locks key (fun () ->
      Vlock.Spin.create ~site:"dir-row" ())

let file_lock t inode =
  Itbl.find_or_create (stripe_of t inode).file_locks inode (fun () ->
      (* striped readers: Simurgh keeps per-core reader indicators in
         shared DRAM, so concurrent readers of one file do not serialize
         on a counter line *)
      Vlock.Rw.create ~site:"file-lock" ~striped:true ())

(* --- byte-range locks (range-lock mode) -------------------------------- *)

(** Byte rows a range lock protects: one row per [range_row_bytes] of
    file offset, matching the allocator's block size so a block-sized
    I/O takes exactly one row. *)
let range_row_bytes = 4096

(** The rows whose byte spans intersect [pos, pos+len), ascending — the
    canonical acquisition order (every holder climbs, so no cycles).
    [len = 0] covers nothing. *)
let rows_of_range ~pos ~len =
  if len <= 0 || pos < 0 then []
  else begin
    let first = pos / range_row_bytes in
    let last = (pos + len - 1) / range_row_bytes in
    List.init (last - first + 1) (fun i -> first + i)
  end

(* Contention sites fold the row index mod 16 so the registry stays
   bounded while BENCH_data can still attribute waits to hot rows
   ("locks/file_range/r03" etc., satellite: no more single-site blur). *)
let range_lock t inode ~row =
  let key = (inode, row) in
  Ptbl.find_or_create (stripe_of_pair t key).range_locks key (fun () ->
      Vlock.Rw.create
        ~site:(Printf.sprintf "file-range/r%02d" (row land 15))
        ~striped:true ())

(** Innermost lock of the data-path hierarchy: guards the extent list
    and the size word.  Extent-list growth and the size publish take it
    exclusive; offset mapping during copies takes it shared. *)
let extent_lock t inode =
  Itbl.find_or_create (stripe_of t inode).extent_locks inode (fun () ->
      Vlock.Rw.create ~site:"file-extent" ~striped:true ())

(** The file's append/extend coordination words, created on first touch
    with [init ()] (the persistent size, read under the extent lock by
    the caller so the probe is ordered against concurrent publishes). *)
let file_state t inode =
  (* lookup + insert runs without a scheduling point, so two threads can
     never each mint their own state for one inode *)
  Itbl.find_or_create (stripe_of t inode).file_states inode (fun () ->
      { reserved = -1; published = -1 })

(** Chain-extension serialization for an insert into [row] of directory
    [dir].  Legacy mode: one lock for the whole directory (every row-full
    insert funnels through it).  Striped mode: one lock per hash row. *)
let dir_append_lock ?(row = 0) t dir =
  let key = (dir, if t.striped then row else 0) in
  Ptbl.find_or_create (stripe_of_pair t key).append_locks key (fun () ->
      Vlock.Spin.create ~site:"dir-append" ())

(** Striped mode: short directory-global lock held only while physically
    linking a freshly initialized hash block into the chain. *)
let chain_lock t dir =
  let key = (dir, 0) in
  Ptbl.find_or_create (stripe_of_pair t key).aux_locks key (fun () ->
      Vlock.Spin.create ~site:"dir-chain" ())

(** Striped mode: serializes the directory's single persistent
    rename-log entry (the first hash block has exactly one log slot). *)
let log_lock t dir =
  let key = (dir, 1) in
  Ptbl.find_or_create (stripe_of_pair t key).aux_locks key (fun () ->
      Vlock.Spin.create ~site:"dir-log" ())

(** Log-ring mode: lock of ring slot [slot] of directory [dir].  Each
    slot has its own lock, so N renames in one directory can run their
    Fig. 5 log windows concurrently — the directory-global (dir, 1)
    serialization point disappears. *)
let log_slot_lock t dir ~slot =
  let key = (dir, 2 + slot) in
  Ptbl.find_or_create (stripe_of_pair t key).aux_locks key (fun () ->
      Vlock.Spin.create ~site:"dir-log" ())

let drop_file_lock t inode =
  let s = stripe_of t inode in
  Itbl.remove s.file_locks inode;
  Itbl.remove s.extent_locks inode;
  Itbl.remove s.file_states inode;
  (* range rows hash by (inode, row), so they can sit in any stripe;
     without range locks every table is empty *)
  Array.iter
    (fun s ->
      if Ptbl.length s.range_locks > 0 then
        let doomed =
          Ptbl.fold
            (fun ((i, _) as key) _ acc -> if i = inode then key :: acc else acc)
            s.range_locks []
        in
        List.iter (Ptbl.remove s.range_locks) doomed)
    t.stripes

(** Reclaim every lock belonging to a deleted directory (its row locks,
    append locks and chain/log locks).  Without this the registries grow
    without bound: rmdir used to leave all of them behind, so a
    create/remove-heavy workload leaked one spin lock per touched hash
    row forever. *)
let drop_dir_locks t ~dir =
  let drop_keyed tbl =
    let doomed =
      Ptbl.fold
        (fun ((d, _) as key) _ acc -> if d = dir then key :: acc else acc)
        tbl []
    in
    List.iter (Ptbl.remove tbl) doomed
  in
  Array.iter
    (fun s ->
      drop_keyed s.row_locks;
      drop_keyed s.append_locks;
      drop_keyed s.aux_locks)
    t.stripes

(** Registry sizes (row, file, dir-append incl. chain/log) — reported
    through the observability snapshot so leaks are visible. *)
let sizes t =
  Array.fold_left
    (fun (r, f, a) s ->
      ( r + Ptbl.length s.row_locks,
        f + Itbl.length s.file_locks,
        a + Ptbl.length s.append_locks + Ptbl.length s.aux_locks ))
    (0, 0, 0) t.stripes

(** Range-mode registry sizes (byte-range rows, extent locks + append
    states) — same leak-visibility rationale as {!sizes}. *)
let range_sizes t =
  Array.fold_left
    (fun (r, e) s ->
      ( r + Ptbl.length s.range_locks,
        e + Itbl.length s.extent_locks + Itbl.length s.file_states ))
    (0, 0) t.stripes

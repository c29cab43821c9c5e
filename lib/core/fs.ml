(** The Simurgh file system (paper Section 4).

    Completely decentralized: every operation is performed by the calling
    process directly against the NVMM region; coordination happens only
    through persistent flags and shared-DRAM locks.  Create, unlink and
    rename follow the Fig. 5 state machines step by step, with a labeled
    crash-hook at every persist point so the test-suite can inject a
    power failure between any two steps and validate recovery. *)

open Simurgh_nvmm
open Simurgh_fs_common
module Hw = Simurgh_hw

type call_mode =
  | Protected  (** entry via jmpp/pret (the paper's +46-cycle surcharge) *)
  | Syscall  (** counterfactual: same FS behind a kernel trap (ablation) *)
  | Plain  (** no entry charge (trusted mode without the kernel module) *)

(** File-system statistics (statfs): capacity and usage of the block
    space and the metadata object pools. *)
type fsstat = {
  block_size : int;
  total_blocks : int;
  free_blocks : int;
  used_blocks : int;
      (** blocks neither free-listed nor quarantined: in use by live
          metadata and data (derived, so the three always partition
          [total_blocks]) *)
  quarantined_blocks : int;
      (** blocks withheld from recycling because an uncorrectable media
          error sits under them — never free, never allocatable *)
  live_inodes : int;
  live_fentries : int;
}

(* The per-mount protected universe (paper Fig. 2): every public FS
   operation has its own entry slot, grouped four-to-a-page (the
   hardware's fixed 1 KiB entry offsets), registered at mount time and
   sealed before the first operation.  Each gate runs the real
   jmpp_check / CPL-switch / pret state machine on this mount's CPU and
   hands the operation body the [privileged] witness that the internal
   mutation paths demand — so unprotected mutation is statically
   unreachable (the witness type has no other constructor).  The gates
   are typed continuations: [g_op k] enters protected mode and applies
   [k] to the witness. *)
type penv = {
  pcpu : Hw.Cpu.t;
  puniv : Hw.Protected.t;
  (* page 0: namespace creation/removal *)
  g_create : (Hw.Protected.privileged -> unit) -> unit;
  g_mkdir : (Hw.Protected.privileged -> unit) -> unit;
  g_unlink : (Hw.Protected.privileged -> unit) -> unit;
  g_rmdir : (Hw.Protected.privileged -> unit) -> unit;
  (* page 1: links and rename *)
  g_rename : (Hw.Protected.privileged -> unit) -> unit;
  g_symlink : (Hw.Protected.privileged -> unit) -> unit;
  g_hardlink : (Hw.Protected.privileged -> unit) -> unit;
  g_readlink : (Hw.Protected.privileged -> string) -> string;
  (* page 2: file descriptors *)
  g_open : (Hw.Protected.privileged -> int) -> int;
  g_close : (Hw.Protected.privileged -> unit) -> unit;
  g_pread : (Hw.Protected.privileged -> bytes) -> bytes;
  g_pwrite : (Hw.Protected.privileged -> int) -> int;
  (* page 3: data path *)
  g_append : (Hw.Protected.privileged -> int) -> int;
  g_fallocate : (Hw.Protected.privileged -> unit) -> unit;
  g_fsync : (Hw.Protected.privileged -> unit) -> unit;
  g_truncate : (Hw.Protected.privileged -> unit) -> unit;
  (* page 4: attributes *)
  g_stat : (Hw.Protected.privileged -> Types.stat) -> Types.stat;
  g_exists : (Hw.Protected.privileged -> bool) -> bool;
  g_readdir : (Hw.Protected.privileged -> string list) -> string list;
  g_chmod : (Hw.Protected.privileged -> unit) -> unit;
  (* page 5: administrative *)
  g_utimes : (Hw.Protected.privileged -> unit) -> unit;
  g_statfs : (Hw.Protected.privileged -> fsstat) -> fsstat;
}

(** How the data path locks a file, fixed by the format (see {!mkfs}).
    [Byte_range]: the file lock is a fence every data operation holds
    shared, below it the 4 KiB row locks, the extent lock and the
    append reservation words.  [Whole_file]: the same file lock, taken
    exclusive by writers and shared by readers, which already covers
    everything the inner levels protect.  [Relaxed]: no lock (Fig. 7k
    "relaxed"). *)
type discipline = Byte_range | Whole_file | Relaxed

type t = {
  layout : Layout.t;
  region : Region.t;
  locks : Locks.t;
  openfiles : Openfile.t;
  mutable euid : int;
  mutable egid : int;
  call_mode : call_mode;
  rcache : Rcache.t option;
      (** Simurgh-side DRAM resolve cache (shared across mounts);
          [None] = seed behavior, every component scanned in NVMM *)
  discipline : discipline;  (** the format's data-path locking *)
  log_ring : int;
      (** format-time rename-log ring size (from the superblock): each
          directory's first hash block carries this many log slots, and
          a rename claims one via its per-slot lock.  1 = the paper's
          single log entry. *)
  mutable crash_hook : string -> unit;
  mutable logical_time : int;
  eio_returns : int ref;
      (** operations that returned [EIO] after hitting a poisoned line *)
  secure : bool;
      (** the volume was formatted with the security plane: file entries
          carry the packed owner/mode word and the protected entry
          points enforce per-user permissions against it *)
  quota : Quota.t;
      (** per-uid block quotas (region-shared volatile state; disabled —
          zero cost — until the first limit is installed) *)
  penv : penv;  (** this mount's protected entry points (one process) *)
  mutable unmounted : bool;
}

type fd = int

let name = "Simurgh"

let hook t label = t.crash_hook label

let now ?ctx t =
  match ctx with
  | Some c -> int_of_float (Simurgh_sim.Machine.now c)
  | None ->
      t.logical_time <- t.logical_time + 1;
      t.logical_time

(* --- construction ------------------------------------------------------ *)

let root_perm = 0o755

let make_root layout =
  let region = layout.Layout.region in
  let inode =
    match Simurgh_alloc.Slab_alloc.alloc layout.Layout.inode_slab with
    | Some i -> i
    | None -> Errno.raise_ ENOSPC "mkfs: no space for root inode"
  in
  Inode.init region inode
    ~mode:(Inode.mode_of_kind ~perm:root_perm Dir)
    ~uid:0 ~gid:0 ~now:0;
  let bs = Simurgh_alloc.Block_alloc.block_size layout.Layout.balloc in
  let ring = layout.Layout.log_ring in
  let db_blocks =
    (Dirblock.size_for_rows ~ring Dirblock.first_rows + bs - 1) / bs
  in
  let dirblock =
    match Simurgh_alloc.Block_alloc.alloc layout.Layout.balloc db_blocks with
    | Some b -> b
    | None -> Errno.raise_ ENOSPC "mkfs: no space for root directory block"
  in
  Dirblock.init region dirblock ~rows:Dirblock.first_rows ~ring ();
  let fentry =
    match Simurgh_alloc.Slab_alloc.alloc layout.Layout.fentry_slab with
    | Some e -> e
    | None -> Errno.raise_ ENOSPC "mkfs: no space for root file entry"
  in
  Fentry.init region fentry ~name:"/" ~dir:true ~symlink:false ~target:inode
    ~alloc_spill:(fun _ -> assert false);
  if layout.Layout.secure then
    Fentry.set_owner region fentry ~uid:0 ~gid:0 ~perm:root_perm;
  Fentry.set_dirblock region fentry dirblock;
  Simurgh_alloc.Slab_alloc.commit layout.Layout.inode_slab inode;
  Simurgh_alloc.Slab_alloc.commit layout.Layout.fentry_slab fentry;
  Layout.set_root_fentry layout fentry

(* Per-mount bootstrap of the protected universe (Fig. 2 steps 3-5): one
   CPU context per "process", the kernel module maps the entry pages (4
   slots each) and the protected stacks, registration happens here and
   nowhere else — the universe is sealed before the mount is returned. *)
let bootstrap_penv ~euid ~egid =
  let cpu = Hw.Cpu.create () in
  let univ = Hw.Protected.bootstrap cpu ~euid ~egid in
  let gate name = Hw.Protected.register univ ~name (fun w k -> k w) in
  let penv =
    {
      pcpu = cpu;
      puniv = univ;
      g_create = gate "simurgh_create";
      g_mkdir = gate "simurgh_mkdir";
      g_unlink = gate "simurgh_unlink";
      g_rmdir = gate "simurgh_rmdir";
      g_rename = gate "simurgh_rename";
      g_symlink = gate "simurgh_symlink";
      g_hardlink = gate "simurgh_hardlink";
      g_readlink = gate "simurgh_readlink";
      g_open = gate "simurgh_open";
      g_close = gate "simurgh_close";
      g_pread = gate "simurgh_read";
      g_pwrite = gate "simurgh_write";
      g_append = gate "simurgh_append";
      g_fallocate = gate "simurgh_fallocate";
      g_fsync = gate "simurgh_fsync";
      g_truncate = gate "simurgh_truncate";
      g_stat = gate "simurgh_stat";
      g_exists = gate "simurgh_exists";
      g_readdir = gate "simurgh_readdir";
      g_chmod = gate "simurgh_chmod";
      g_utimes = gate "simurgh_utimes";
      g_statfs = gate "simurgh_statfs";
    }
  in
  Hw.Protected.seal univ;
  penv

(* Shared-DRAM state per region (paper Section 4: concurrent processes
   are "coordinated through accesses to NVMM and shared DRAM").  Every
   mount of the same region must share the volatile allocator state
   (the block free lists and the slab free caches) and the lock
   registry, otherwise two "processes" would hand out the same blocks
   and objects.  The state lives in the region's user slot, so its
   lifetime is exactly the region's (no global registry to leak), and
   counts the live mounts so that only the last one checkpoints. *)
type shared = {
  s_layout : Layout.t;
  s_locks : Locks.t;
  s_rcache : Rcache.t option;
  s_quota : Quota.t;
  mutable s_mounts : int;
}

exception Shared_state of shared

let lookup_shared region =
  match Region.user_slot region with
  | Some (Shared_state s) -> Some s
  | Some _ | None -> None

(* A process's handle on the region's shared state [s] *)
let of_shared ?(call_mode = Protected) ?(euid = 1000) ?(egid = 1000) s =
  let layout = s.s_layout and locks = s.s_locks and rc = s.s_rcache in
  let fs =
    {
      layout;
      region = layout.Layout.region;
      locks;
      openfiles = Openfile.create ();
      euid;
      egid;
      call_mode;
      rcache = rc;
      discipline =
        (if layout.Layout.range_locks then Byte_range
         else if layout.Layout.relaxed_writes then Relaxed
         else Whole_file);
      log_ring = layout.Layout.log_ring;
      crash_hook = ignore;
      logical_time = 0;
      eio_returns = ref 0;
      secure = layout.Layout.secure;
      quota = s.s_quota;
      penv = bootstrap_penv ~euid ~egid;
      unmounted = false;
    }
  in
  (* the per-process counter joins the experiment's observability
     snapshot (no-op outside the bench driver); the region's shared
     counters are registered once, by {!bring_up} *)
  let eio_returns = fs.eio_returns in
  Simurgh_obs.Collect.note_source (fun () ->
      [ ("faults/eio_returns", float_of_int !eio_returns) ]);
  fs

(* Lock-registry sizes and allocator counters of the region's shared
   state [s], registered once per bring-up so a joining mount does not
   count them again.  The source holds only counter records and DRAM
   tables, never [s] or its layout, so a dropped region can be freed
   before the drain. *)
let note_shared_source s =
  let layout = s.s_layout and locks = s.s_locks and rc = s.s_rcache in
  let ba = layout.Layout.balloc.Simurgh_alloc.Block_alloc.c
  and inodes_live = layout.Layout.inode_slab.Simurgh_alloc.Slab_alloc.live
  and fentries_live = layout.Layout.fentry_slab.Simurgh_alloc.Slab_alloc.live in
  Simurgh_obs.Collect.note_source (fun () ->
      let rows, files, appends = Locks.sizes locks in
      let range_rows, file_states = Locks.range_sizes locks in
      [
        ("locks/row_locks", float_of_int rows);
        ("locks/file_locks", float_of_int files);
        ("locks/dir_append_locks", float_of_int appends);
        ("locks/file_range_locks", float_of_int range_rows);
        ("locks/file_states", float_of_int file_states);
        ( "rename_log/slot_acquisitions",
          float_of_int (Locks.log_slot_acquisitions locks) );
        ( "rename_log/ring_full_waits",
          float_of_int (Locks.log_ring_full_waits locks) );
        ( "alloc/block_allocs",
          float_of_int ba.Simurgh_alloc.Block_alloc.allocs );
        ("alloc/block_frees", float_of_int ba.Simurgh_alloc.Block_alloc.frees);
        ( "alloc/blocks_allocated",
          float_of_int ba.Simurgh_alloc.Block_alloc.blocks_allocated );
        ( "alloc/blocks_freed",
          float_of_int ba.Simurgh_alloc.Block_alloc.blocks_freed );
        ("alloc/inodes_live", float_of_int !inodes_live);
        ("alloc/fentries_live", float_of_int !fentries_live);
      ]
      @
      match rc with
      | None -> []
      | Some rc ->
          let s = Rcache.stats rc in
          [
            ("rcache/hits", float_of_int s.Rcache.hits);
            ("rcache/misses", float_of_int s.Rcache.misses);
            ("rcache/inserts", float_of_int s.Rcache.inserts);
            ("rcache/invalidations", float_of_int s.Rcache.invalidations);
          ])

(** Bring [layout] up as the region's first live mount: fresh shared
    state on the format's protocol (with the allocators' per-thread
    structures when the format is scaled) registered in the region, the
    clean flag cleared, and a handle on it.  {!mkfs}, a {!mount} with no
    live mount and recovery all end here. *)
let bring_up ?call_mode ?euid ?egid layout =
  let scaled = layout.Layout.scaled in
  let s =
    {
      s_layout = layout;
      s_locks = Locks.create ();
      s_rcache = (if scaled then Some (Rcache.create ()) else None);
      s_quota = Quota.create ();
      s_mounts = 1;
    }
  in
  note_shared_source s;
  let fs = of_shared ?call_mode ?euid ?egid s in
  if scaled then begin
    (* the per-thread structures hang off the (shared) layout, so one
       enable covers every mount *)
    Simurgh_alloc.Block_alloc.set_thread_segments layout.Layout.balloc true;
    Simurgh_alloc.Slab_alloc.set_thread_caches layout.Layout.inode_slab true;
    Simurgh_alloc.Slab_alloc.set_thread_caches layout.Layout.fentry_slab true
  end;
  Region.set_user_slot fs.region (Some (Shared_state s));
  (* the FS is live from here: only a clean [unmount] sets the flag
     back, so a crash leaves it clear and forces full recovery *)
  Layout.set_clean_shutdown layout false;
  fs

(** Format a fresh region and return a mounted file system.  [log_ring]
    selects the rename-log ring size (default 1, the paper's single
    per-directory log entry).  The protocol is
    chosen here and recorded in the superblock's format word, which
    every later mount and recovery reads: [scaled] turns on the DRAM
    resolve cache, per-thread allocator caches and posted rename-log
    writes, [range_locks] the byte-range data path, [coarse_dir_locks]
    one lock per directory (an ablation) and [relaxed_writes] no per-file
    write lock (Fig. 7k "relaxed"). *)
let mkfs ?(cores = 10) ?segments ?call_mode ?relaxed_writes ?coarse_dir_locks
    ?scaled ?range_locks ?log_ring ?shard ?secure ?euid ?egid region =
  let layout =
    Layout.format ?segments ?log_ring ?shard ?secure ?scaled ?range_locks
      ?coarse_dir_locks ?relaxed_writes region ~cores
  in
  make_root layout;
  bring_up ?call_mode ?euid ?egid layout

(** Attach to an already-formatted region: a second mount of a region
    joins the existing shared-DRAM state (allocator state, locks,
    resolve cache), so independent "processes" cooperate exactly as the
    paper describes; only the open-file map, the entry mode and the
    credentials are per-process.  Every mount runs the protocol the
    region was formatted with (see {!mkfs}).  With no live shared state
    the region must have been unmounted cleanly (or recovered): a crash
    image raises [Invalid_argument], and is mounted with
    {!Recovery.mount_auto}. *)
let mount ?call_mode ?euid ?egid region =
  match lookup_shared region with
  | Some s ->
      s.s_mounts <- s.s_mounts + 1;
      of_shared ?call_mode ?euid ?egid s
  | None ->
      if not (Layout.clean_shutdown_of_region region) then
        invalid_arg
          "Fs.mount: the region was not unmounted cleanly and no mount is \
           live (a crash image); mount it with Recovery.mount_auto";
      let layout = Layout.attach region in
      Simurgh_alloc.Slab_alloc.rebuild_cache layout.Layout.inode_slab;
      Simurgh_alloc.Slab_alloc.rebuild_cache layout.Layout.fentry_slab;
      bring_up ?call_mode ?euid ?egid layout

(** Forget the shared state of a region (after a crash, the volatile
    state is gone by definition; {!Recovery} calls this). *)
let invalidate_shared region = Region.set_user_slot region None

(** End this mount.  The last live mount of the region checkpoints the
    block free lists to media, sets the clean flag and releases the
    shared state, so the next mount loads the lists instead of
    recovering.  Any other unmount leaves the media alone: the other
    mounts keep writing.  A handle whose shared state is gone (a crash
    wiped it) or that was already unmounted does nothing. *)
let unmount t =
  if not t.unmounted then begin
    t.unmounted <- true;
    match lookup_shared t.region with
    | Some s when s.s_layout == t.layout ->
        s.s_mounts <- s.s_mounts - 1;
        if s.s_mounts = 0 then begin
          Simurgh_alloc.Block_alloc.checkpoint t.layout.Layout.balloc;
          Layout.set_clean_shutdown t.layout true;
          invalidate_shared t.region
        end
    | Some _ | None -> ()
  end

let region t = t.region
let layout t = t.layout
let locks t = t.locks
let discipline t = t.discipline
let set_crash_hook t f = t.crash_hook <- f
let set_creds t ~euid ~egid =
  t.euid <- euid;
  t.egid <- egid

let is_secure t = t.secure
let protected_cpu t = t.penv.pcpu
let protected_universe t = t.penv.puniv

(* --- per-uid block quotas ----------------------------------------------- *)

(** Install (or with [blocks < 0] remove) a per-uid block limit.  The
    quota table is region-shared volatile state: limits installed through
    any mount bind every tenant of the region.  Accounting starts with
    the first limit, so install limits at mount time for exact counts. *)
let set_quota t ~uid ~blocks = Quota.set_limit t.quota ~uid ~blocks

let quota_used t ~uid = Quota.used t.quota ~uid

(* Charge [blocks] to [uid], failing with EDQUOT before any allocation
   happens.  One uncontended atomic models the DRAM fetch-and-add; when
   no limit was ever installed this is a single branch and charges
   nothing, so legacy runs are bit-identical. *)
let quota_charge ?ctx t ~uid blocks =
  if Quota.enabled t.quota && blocks > 0 then begin
    Charge.atomic ?ctx ~contended:false ();
    if not (Quota.charge t.quota ~uid ~blocks) then
      Errno.raise_ EDQUOT
        (Printf.sprintf "uid %d: %d blocks over limit %d" uid
           (Quota.used t.quota ~uid + blocks)
           (Quota.limit t.quota ~uid))
  end

let quota_release t ~uid blocks = Quota.release t.quota ~uid ~blocks

(* The uid owning blocks charged on behalf of [inode]. *)
let quota_uid_of_inode t inode =
  if Quota.enabled t.quota then Some (Inode.uid t.region inode) else None

(* --- charging ----------------------------------------------------------- *)

let cmodel ctx =
  match ctx with
  | None -> Simurgh_sim.Cost_model.default
  | Some c -> Simurgh_sim.Machine.cm c

(* Per externally visible FS call: libc stub plus the entry mechanism. *)
let entry_charge ?ctx t =
  (* pin the calling thread's NVMM traffic to this FS's home region so
     charges reach the right per-region bandwidth server (no-op for the
     legacy single-region layout, whose shard index is 0) *)
  (match ctx with
  | Some c ->
      c.Simurgh_sim.Machine.thr.Simurgh_sim.Sthread.cur_region <-
        t.layout.Layout.shard_index
  | None -> ());
  let cm = cmodel ctx in
  let cycles =
    match t.call_mode with
    | Protected ->
        (* the measured 70-cycle jmpp+pret figure includes the stack
           switch; [protected_stack_cycles] defaults to 0 and exists to
           ablate the relocation separately *)
        cm.Simurgh_sim.Cost_model.jmpp_pret_cycles
        +. cm.Simurgh_sim.Cost_model.protected_stack_cycles
    | Syscall ->
        cm.Simurgh_sim.Cost_model.syscall_cycles
        +. cm.Simurgh_sim.Cost_model.vfs_dispatch_cycles
    | Plain -> cm.Simurgh_sim.Cost_model.call_cycles
  in
  Charge.cpu ?ctx (cycles +. 60.0 (* libc wrapper, argument handling *))

(* Uncorrectable media errors surface to the application as EIO, like a
   machine-check on a real DIMM surfaced through SIGBUS handling.  All
   lock helpers are exception-safe, so the operation fails cleanly: the
   error is returned, locks are released, the process keeps running. *)
let media_guard t f =
  try f () with
  | Region.Media_error off ->
      incr t.eio_returns;
      Errno.raise_ EIO (Printf.sprintf "uncorrectable media error at %#x" off)

(* --- allocation helpers ------------------------------------------------- *)

(* A fresh inode or file entry, claimed (valid+dirty) but staged: the
   caller's persist epoch makes the claim durable with the payload. *)
let claim_inode ?ctx t =
  match
    Simurgh_alloc.Slab_alloc.stage_alloc ?ctx t.layout.Layout.inode_slab
  with
  | Some i -> i
  | None -> Errno.raise_ ENOSPC "out of inode objects"

let claim_fentry ?ctx t =
  match
    Simurgh_alloc.Slab_alloc.stage_alloc ?ctx t.layout.Layout.fentry_slab
  with
  | Some e -> e
  | None -> Errno.raise_ ENOSPC "out of file-entry objects"

(* Close a persist epoch (DESIGN.md §18): every store the
   op staged since its last fence becomes durable at one sfence, charged
   as one write of its [lines] lines. *)
let close_epoch ?ctx t ~lines =
  Region.sfence t.region;
  Charge.write_lines ?ctx lines

let block_size t = Simurgh_alloc.Block_alloc.block_size t.layout.Layout.balloc

(* Directory hash blocks come straight from the block allocator so chain
   blocks can grow geometrically (see Dirblock).  Only a directory's
   *first* block carries the log ring; chain-growth blocks stay plain. *)
(* [owner]: uid to charge the blocks to when quotas are active (the
   directory's owner for chain blocks, the file's owner for spills). *)
let alloc_dirblock ?ctx ?(ring = 0) ?owner t ~rows =
  let bs = block_size t in
  let blocks = (Dirblock.size_for_rows ~ring rows + bs - 1) / bs in
  (match owner with Some uid -> quota_charge ?ctx t ~uid blocks | None -> ());
  match Simurgh_alloc.Block_alloc.alloc ?ctx t.layout.Layout.balloc blocks with
  | Some b ->
      Dirblock.init t.region b ~rows ~ring ();
      b
  | None ->
      (match owner with Some uid -> quota_release t ~uid blocks | None -> ());
      Errno.raise_ ENOSPC "out of blocks for directory"

let free_dirblock ?ctx ?owner t b =
  let bs = block_size t in
  let blocks = (Dirblock.size_of t.region b + bs - 1) / bs in
  (match owner with Some uid -> quota_release t ~uid blocks | None -> ());
  Simurgh_alloc.Block_alloc.free ?ctx t.layout.Layout.balloc ~addr:b blocks

let alloc_spill ?ctx ?owner t bytes =
  let blocks = (bytes + block_size t - 1) / block_size t in
  (match owner with Some uid -> quota_charge ?ctx t ~uid blocks | None -> ());
  match Simurgh_alloc.Block_alloc.alloc ?ctx t.layout.Layout.balloc blocks with
  | Some a -> a
  | None ->
      (match owner with Some uid -> quota_release t ~uid blocks | None -> ());
      Errno.raise_ ENOSPC "out of blocks for long name"

(* --- permission checks --------------------------------------------------- *)

(* The credentials an operation runs with: a thread that declared its own
   identity (multi-tenant scenarios set [Sthread.set_creds]) wins over
   the mount's process-wide credentials. *)
let creds ?ctx t =
  match ctx with
  | Some c ->
      let thr = c.Simurgh_sim.Machine.thr in
      if thr.Simurgh_sim.Sthread.euid >= 0 then
        (thr.Simurgh_sim.Sthread.euid, thr.Simurgh_sim.Sthread.egid)
      else (t.euid, t.egid)
  | None -> (t.euid, t.egid)

let deny ~want ~bits euid =
  Errno.raise_ EACCES
    (Printf.sprintf "need %o, have %o (euid=%d)" want bits euid)

let check_perm ?ctx t inode ~want =
  (* want: 4 read, 2 write, 1 execute/traverse *)
  let euid, egid = creds ?ctx t in
  if euid <> 0 then begin
    let m = Inode.mode t.region inode land Inode.perm_mask in
    let bits =
      if Inode.uid t.region inode = euid then (m lsr 6) land 7
      else if Inode.gid t.region inode = egid then (m lsr 3) land 7
      else m land 7
    in
    if bits land want <> want then deny ~want ~bits euid
  end

(* Fentry-based permission check: on secure media the packed owner/mode
   word sits in the file entry the lookup just read, so the protected
   entry point checks it without touching the inode line (one cached
   word compare, charged as [perm_check_cycles]).  Legacy media falls
   back to the inode-based check above with no extra charge — the
   published figures are unchanged. *)
let check_perm_fe ?ctx t fe ~want =
  if t.secure then begin
    let euid, egid = creds ?ctx t in
    if euid <> 0 then begin
      Charge.cpu ?ctx (cmodel ctx).Simurgh_sim.Cost_model.perm_check_cycles;
      let uid, gid, m = Fentry.owner t.region fe in
      let bits =
        if uid = euid then (m lsr 6) land 7
        else if gid = egid then (m lsr 3) land 7
        else m land 7
      in
      if bits land want <> want then deny ~want ~bits euid
    end
  end
  else check_perm ?ctx t (Fentry.target t.region fe) ~want

(* --- path resolution ----------------------------------------------------- *)

(* A resolved parent directory: its file entry (whose [dirblock] heads the
   hash chain) plus that head pointer. *)
type dirref = { dfentry : int; dhead : int }

let root_dirref t =
  let fe = Layout.root_fentry t.layout in
  { dfentry = fe; dhead = Fentry.dirblock t.region fe }

(* Owner uid of a directory, for quota-charging its chain/spill blocks;
   [None] when quotas were never enabled (the common case, zero cost). *)
let dir_quota_uid t (d : dirref) =
  if Quota.enabled t.quota then
    Some
      (if t.secure then
         let uid, _, _ = Fentry.owner t.region d.dfentry in
         uid
       else Inode.uid t.region (Fentry.target t.region d.dfentry))
  else None

let dir_lookup ?ctx t (d : dirref) comp =
  let found, hops = Dirblock.find t.region ~head:d.dhead ~name:comp in
  Charge.read_lines ?ctx (hops + 1);
  Charge.cpu ?ctx 40.0 (* name hash + compare *);
  found

(* Resolution-path lookup: consult the resolve cache first (one DRAM
   probe on a hit instead of an NVMM row scan), fall back to the row
   scan and warm the cache.  Mutating paths keep calling {!dir_lookup}
   directly — they must observe the rows, not the cache. *)
let dir_lookup_fe ?ctx t (d : dirref) comp =
  match t.rcache with
  | None -> (
      match dir_lookup ?ctx t d comp with
      | None -> None
      | Some (_, _, _, fe) -> Some fe)
  | Some rc -> (
      match Rcache.lookup rc ~dir:d.dhead comp with
      | Some fe ->
          Charge.cpu ?ctx (cmodel ctx).Simurgh_sim.Cost_model.rcache_hit_cycles;
          Some fe
      | None -> (
          match dir_lookup ?ctx t d comp with
          | None -> None
          | Some (_, _, _, fe) ->
              Rcache.insert rc ~dir:d.dhead comp fe;
              Some fe))

(* Linux resolves up to 40 chained symlinks before ELOOP (the historical
   8 matched only POSIX's SYMLOOP_MAX floor and rejected chains real
   applications produce). *)
let max_symlink_depth = 40

(* Resolve the parent directory of [path]; returns the dirref and the
   final component name.  Follows symlinks in intermediate components. *)
let rec resolve_parent ?ctx ?(depth = 0) t path =
  if depth > max_symlink_depth then Errno.raise_ ELOOP path;
  walk_parent ?ctx ~depth t path (Path.split_parent path)

(* [resolve_parent] on a path already parsed into [parents] and [final] *)
and walk_parent ?ctx ~depth t path (parents, final) =
  let rec walk (stack : dirref list) (d : dirref) = function
    | [] -> (d, final)
    | ".." :: rest -> (
        match stack with
        | parent :: up -> walk up parent rest
        | [] -> walk [] d rest (* root/.. = root *))
    | comp :: rest -> (
        check_perm_fe ?ctx t d.dfentry ~want:1;
        match dir_lookup_fe ?ctx t d comp with
        | None -> Errno.raise_ ENOENT path
        | Some fe ->
            if Fentry.is_dir t.region fe then
              walk (d :: stack)
                { dfentry = fe; dhead = Fentry.dirblock t.region fe }
                rest
            else if Fentry.is_symlink t.region fe then begin
              let target = read_symlink_target t fe in
              let joined =
                target ^ "/" ^ String.concat "/" (rest @ [ final ])
              in
              resolve_parent ?ctx ~depth:(depth + 1) t joined
            end
            else Errno.raise_ ENOTDIR path)
  in
  walk [] (root_dirref t) parents

and read_symlink_target t fe =
  let inode = Fentry.target t.region fe in
  let len = Inode.size t.region inode in
  let buf = Buffer.create len in
  let remaining = ref len in
  Inode.iter_extents t.region inode (fun addr blocks ->
      let n = min !remaining (blocks * block_size t) in
      if n > 0 then begin
        Buffer.add_bytes buf (Region.read_bytes t.region addr n);
        remaining := !remaining - n
      end);
  Buffer.contents buf

(* Resolve a full path to its file entry; [follow] resolves a final
   symlink component. *)
let rec resolve ?ctx ?(follow = true) ?(depth = 0) t path =
  if depth > max_symlink_depth then Errno.raise_ ELOOP path;
  match Path.parse path with
  | None -> (* the root itself *) (root_dirref t, Layout.root_fentry t.layout)
  | Some pf -> (
      let d, final = walk_parent ?ctx ~depth:0 t path pf in
      check_perm_fe ?ctx t d.dfentry ~want:1;
      match dir_lookup_fe ?ctx t d final with
      | None -> Errno.raise_ ENOENT path
      | Some fe ->
          if follow && Fentry.is_symlink t.region fe then
            resolve ?ctx ~follow ~depth:(depth + 1) t
              (read_symlink_target t fe)
          else (d, fe))

(* --- row locking --------------------------------------------------------- *)

let release_row ctx (r : Locks.row) () =
  r.Locks.pin <- 0;
  match ctx with
  | None -> ()
  | Some c -> Simurgh_sim.Vlock.Spin.release c r.Locks.lock

(* Lock a directory row: virtual-time spin lock plus the persistent busy
   flag in the first hash block (crash detection).  [f] gets the lock
   row; its release clears the row's pin, so an insert that fails
   between its probe and its fill leaves no block pinned. *)
let lock_row ?ctx t (d : dirref) row f =
  let row = if t.layout.Layout.coarse_dir_locks then 0 else row in
  let r = Locks.row_lock t.locks ~dir:d.dhead ~row in
  (match ctx with
  | None -> ()
  | Some c -> Simurgh_sim.Vlock.Spin.acquire c r.Locks.lock);
  Simurgh_util.bracket release_row ctx r () (fun () -> f r)

let set_row_busy ?ctx t (d : dirref) row v =
  Dirblock.set_busy t.region d.dhead row v;
  Charge.write_lines ?ctx 1

(* --- resolve-cache maintenance ------------------------------------------- *)

let rcache_insert t (d : dirref) name fe =
  match t.rcache with
  | None -> ()
  | Some rc -> Rcache.insert rc ~dir:d.dhead name fe

let rcache_invalidate t (d : dirref) name =
  match t.rcache with
  | None -> ()
  | Some rc -> Rcache.invalidate rc ~dir:d.dhead name

(* A directory died: kill every cached child at once (generation bump). *)
let rcache_invalidate_dir t dhead =
  match t.rcache with
  | None -> ()
  | Some rc -> Rcache.invalidate_dir rc dhead

(* The rename-log window of directory [dir]: run [f ~slot ~epoch] with
   a claimed log slot held from its write to its clear.  A directory has
   [log_ring] slots, each under its own lock, so N renames of one
   directory run their Fig. 5 log windows concurrently on an N-slot
   ring; the default one slot serializes them.  The claim
   probes from a rotating hint for a slot whose lock is free and falls
   back to blocking on the hint slot when every slot is held (counted as
   a ring-full wait).  The epoch is fetched inside the caller's row-lock
   window, so slots of conflicting (row-sharing) renames — which row
   locks serialize — are stamped in their serialization order;
   row-disjoint renames commute, so their relative epoch order only
   needs to be deterministic.

   On a scaled format the held window's line writes are charged as
   posted ntstores, so a saturated device queue does not convoy the
   renames queued on the slot locks; the default format keeps served
   writes (ROADMAP item 13). *)
let with_log_slot ?ctx t dir f =
  let n = t.log_ring in
  let start = Locks.next_log_slot_hint t.locks ~n in
  let rec probe i =
    if i = n then begin
      Locks.note_log_ring_full_wait t.locks;
      start
    end
    else
      let s = (start + i) mod n in
      if Simurgh_sim.Vlock.Spin.locked (Locks.log_slot_lock t.locks dir ~slot:s)
      then probe (i + 1)
      else s
  in
  let slot = probe 0 in
  Charge.with_spin ?ctx (Locks.log_slot_lock t.locks dir ~slot) (fun () ->
      Locks.note_log_slot_acquisition t.locks;
      let epoch = Locks.next_log_epoch t.locks in
      if t.layout.Layout.scaled then
        Charge.posted ?ctx (fun () -> f ~slot ~epoch)
      else f ~slot ~epoch)

(* Chain-structure mutations (linking/unlinking hash blocks) take the
   directory's short chain lock; the append locks are per row. *)
let chain_guard ?ctx t dir f =
  Charge.with_spin ?ctx (Locks.chain_lock t.locks dir) f

(* --- create -------------------------------------------------------------- *)

(* The locked lookup of a create or rename target (Fig. 5a: the row's
   lock is held, then the name is checked): one {!Dirblock.probe} of
   [n]'s row along the chain, which also finds the free slot the insert
   fills.  On a miss that slot's block is pinned in the lock row [r], so
   step 6 of a concurrent unlink cannot free it before the fill.
   Uncharged: the caller charges the walk. *)
let probe_target t (d : dirref) (r : Locks.row) n =
  let p =
    Dirblock.probe ~retired:(Locks.retired t.locks) t.region ~head:d.dhead
      ~name:n
  in
  if p.Dirblock.found = 0 then r.Locks.pin <- p.Dirblock.blk;
  p

(* Stage [fentry] in the probed or reserved slot and drop the pin.  The
   caller's epoch fences the slot and charges its line. *)
let fill_slot t (r : Locks.row) (blk, row, s) fentry =
  Dirblock.stage_slot t.region blk row s fentry;
  r.Locks.pin <- 0

(* A row full in every block: grow the chain from [last] and return —
   pinned in [r], not written — a free slot for [hash]'s row.  The
   caller holds the row lock of that row; since every mutator of a row
   takes its lock first, the slot stays free until the caller fills it
   (chain growth by other rows only adds slots).  Separating the search
   from the write lets rename reserve its destination slot ahead of the
   log window, so the log slot's lock covers only the short persistent
   rename sequence, never a chain scan.  Row-full inserts of different
   rows grow in parallel under per-row append locks; only the physical
   link of a new hash block takes the chain lock. *)
let rec grow_chain ?ctx ?owner t (d : dirref) (r : Locks.row) ~hash ~last =
  let lock_row = Dirblock.lock_row_of_hash hash in
  set_row_busy ?ctx t d lock_row true;
  hook t "insert:busy";
  let reserved =
    Charge.with_spin ?ctx
      (Locks.dir_append_lock t.locks d.dhead ~row:lock_row)
      (fun () ->
        (* re-check under the row's append lock: the chain may have
           grown meanwhile *)
        let slot_ref', hops', last' =
          Dirblock.find_free_slot ~retired:(Locks.retired t.locks) t.region
            ~head:last ~hash
        in
        Charge.read_lines ?ctx (hops' + 1);
        match slot_ref' with
        | Some ((b, _, _) as s) ->
            r.Locks.pin <- b;
            Some s
        | None ->
            (* grow: allocate and initialize the new block outside
               the chain lock, link under it *)
            let new_rows =
              min Dirblock.max_rows (2 * Dirblock.rows t.region last')
            in
            let nb = alloc_dirblock ?ctx ?owner t ~rows:new_rows in
            hook t "insert:newblock";
            let linked =
              chain_guard ?ctx t d.dhead (fun () ->
                  if Dirblock.next t.region last' = 0 then begin
                    Dirblock.set_next t.region last' nb;
                    Charge.write_lines ?ctx 2;
                    true
                  end
                  else false)
            in
            if linked then begin
              hook t "insert:link";
              r.Locks.pin <- nb;
              Some (nb, hash mod new_rows, 0)
            end
            else begin
              (* lost the link race: another row extended the chain
                 after our re-check.  Return our block and rescan —
                 the freshly linked block has a free slot in our
                 row, so the retry terminates. *)
              free_dirblock ?ctx ?owner t nb;
              None
            end)
  in
  hook t "insert:unbusy";
  set_row_busy ?ctx t d lock_row false;
  match reserved with
  | Some s -> s
  | None -> (
      let slot_ref, hops, last =
        Dirblock.find_free_slot ~retired:(Locks.retired t.locks) t.region
          ~head:d.dhead ~hash
      in
      Charge.read_lines ?ctx (hops + 1);
      match slot_ref with
      | Some ((b, _, _) as s) ->
          hook t "insert:slot";
          r.Locks.pin <- b;
          s
      | None -> grow_chain ?ctx ?owner t d r ~hash ~last)

(* Fig. 5a steps 3-4 for [name] in directory [d]: the free slot probe
   [p] found in its row, or one the chain grows for it.  The caller's
   {!fill_slot} stages the pointer (step 5). *)
let reserve_slot ?ctx ?owner t (d : dirref) r ~name (p : Dirblock.probe) =
  if p.Dirblock.blk <> 0 then begin
    hook t "insert:slot";
    (p.Dirblock.blk, p.Dirblock.row, p.Dirblock.slot)
  end
  else
    grow_chain ?ctx ?owner t d r ~hash:(Name_hash.hash name)
      ~last:p.Dirblock.last

(* Fig. 5a steps 1-6 of a create whose row lock [r] is held and whose
   probe [p] missed: inode, file entry, then the pointer into the slot
   [p] found, in three persist epochs (DESIGN.md §18). *)
let create_locked ?ctx t (d : dirref) r (p : Dirblock.probe) ~name:n ~kind
    ~perm ~target_inode =
  let euid, egid = creds ?ctx t in
  (* quota owner of the new object's blocks: a hardlink's name belongs to
     the linked inode's owner, everything else to the creator *)
  let file_owner =
    match target_inode with
    | Some i -> Inode.uid t.region i
    | None -> euid
  in
  let qown = if Quota.enabled t.quota then Some file_owner else None in
  (* epoch 1, Fig. 5a steps 1-2: the inode (or a hardlink's nlink) and
     the file entry, claimed and initialized.  Nothing reaches them
     before the slot pointer, and mark-and-sweep reclaims an unreachable
     object in any state, so their stores need no order among them. *)
  let inode, inode_lines =
    match target_inode with
    | Some i ->
        Inode.stage_nlink t.region i (Inode.nlink t.region i + 1);
        (i, 1)
    | None ->
        let i = claim_inode ?ctx t in
        Inode.stage_init t.region i
          ~mode:(Inode.mode_of_kind ~perm kind)
          ~uid:euid ~gid:egid ~now:(now ?ctx t);
        (i, 3)
  in
  hook t "create:inode";
  let fe = claim_fentry ?ctx t in
  Fentry.stage_init t.region fe ~name:n
    ~dir:(kind = Inode.Dir)
    ~symlink:(kind = Inode.Symlink)
    ~target:inode
    ~alloc_spill:(fun b -> alloc_spill ?ctx ?owner:qown t b);
  (* secure media: stamp the owner/mode word the protected entry
     points check (a hardlink inherits the linked inode's identity) *)
  if t.secure then begin
    match target_inode with
    | Some i ->
        Fentry.stage_owner t.region fe ~uid:(Inode.uid t.region i)
          ~gid:(Inode.gid t.region i)
          ~perm:(Inode.perm t.region i)
    | None -> Fentry.stage_owner t.region fe ~uid:euid ~gid:egid ~perm
  end;
  (* directories get their first hash block before becoming visible *)
  let dir_lines =
    if kind = Inode.Dir then begin
      let db =
        alloc_dirblock ?ctx ~ring:t.log_ring ?owner:qown t
          ~rows:Dirblock.first_rows
      in
      Fentry.stage_dirblock t.region fe db;
      2
    end
    else 0
  in
  close_epoch ?ctx t ~lines:(inode_lines + 3 + dir_lines);
  hook t "create:fentry";
  (* epoch 2, steps 3-5: the pointer into the row publishes the entry;
     the slot store is staged and this epoch fences its one line *)
  let slot = reserve_slot ?ctx ?owner:(dir_quota_uid t d) t d r ~name:n p in
  fill_slot t r slot fe;
  close_epoch ?ctx t ~lines:1;
  hook t "create:slot";
  (* epoch 3, step 6: unset the dirty bits.  Recovery reads a linked
     entry that is still dirty as a create that never happened, and
     commits the inode of a linked live entry, so either commit may
     become durable first. *)
  let commit_lines =
    match target_inode with
    | Some _ -> 1
    | None ->
        Simurgh_alloc.Slab_alloc.stage_commit t.layout.Layout.inode_slab inode;
        2
  in
  Simurgh_alloc.Slab_alloc.stage_commit t.layout.Layout.fentry_slab fe;
  close_epoch ?ctx t ~lines:commit_lines;
  hook t "create:commit";
  rcache_insert t d n fe;
  fe

(* The probe of a create target, charged as the lookup it is: the chain
   rows it read plus the name hash and compare. *)
let charge_probe ?ctx (p : Dirblock.probe) =
  Charge.read_lines ?ctx (p.Dirblock.hops + 1);
  Charge.cpu ?ctx 40.0

let create_at ?ctx t (w : Hw.Protected.privileged) (d : dirref) ~name:n ~kind
    ~perm ~target_inode =
  Hw.Protected.check_privileged w t.penv.pcpu;
  if String.length n > Fentry.name_max then Errno.raise_ ENAMETOOLONG n;
  check_perm_fe ?ctx t d.dfentry ~want:3;
  lock_row ?ctx t d (Dirblock.lock_row_of_name n) (fun r ->
      let p = probe_target t d r n in
      charge_probe ?ctx p;
      if p.Dirblock.found <> 0 then Errno.raise_ EEXIST n;
      create_locked ?ctx t d r p ~name:n ~kind ~perm ~target_inode)

let create_file ?ctx t ?(perm = 0o644) path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_create @@ fun w ->
  let d, n = resolve_parent ?ctx t path in
  ignore
    (create_at ?ctx t w d ~name:n ~kind:Inode.File ~perm ~target_inode:None)

let mkdir ?ctx t ?(perm = 0o755) path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_mkdir @@ fun w ->
  let d, n = resolve_parent ?ctx t path in
  ignore (create_at ?ctx t w d ~name:n ~kind:Inode.Dir ~perm ~target_inode:None)

let symlink ?ctx t ~target path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_symlink @@ fun w ->
  let d, n = resolve_parent ?ctx t path in
  let fe =
    create_at ?ctx t w d ~name:n ~kind:Inode.Symlink ~perm:0o777
      ~target_inode:None
  in
  (* store the destination path as the symlink inode's data *)
  let inode = Fentry.target t.region fe in
  let len = String.length target in
  let blocks = max 1 ((len + block_size t - 1) / block_size t) in
  (match quota_uid_of_inode t inode with
  | Some uid -> quota_charge ?ctx t ~uid blocks
  | None -> ());
  (match Simurgh_alloc.Block_alloc.alloc ?ctx ~hint:inode t.layout.Layout.balloc blocks with
  | None ->
      (match quota_uid_of_inode t inode with
      | Some uid -> quota_release t ~uid blocks
      | None -> ());
      Errno.raise_ ENOSPC "symlink target"
  | Some addr ->
      Region.write_string t.region addr target;
      Region.persist t.region addr len;
      Inode.write_extent t.region inode 0 ~addr ~blocks;
      Inode.set_size t.region inode len;
      Region.persist t.region (Inode.f_size inode) 8);
  Charge.write_lines ?ctx (2 + (len / 64))

let hardlink ?ctx t ~existing path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_hardlink @@ fun w ->
  let _, fe = resolve ?ctx t existing in
  if Fentry.is_dir t.region fe then Errno.raise_ EISDIR existing;
  let inode = Fentry.target t.region fe in
  let d, n = resolve_parent ?ctx t path in
  ignore
    (create_at ?ctx t w d ~name:n ~kind:Inode.File ~perm:0
       ~target_inode:(Some inode))

(* --- data block management ------------------------------------------------ *)

(* Allocate [blocks] (possibly as several extents) and stage them into
   the inode's extent list; returns the number of lines staged.  Every
   slot store is staged (store + clwb): the caller's data epoch
   ([close_data_epoch]) makes the slots durable with the bytes they map,
   before the size that exposes them.  A call that stages several ranges
   fences before each after the first, so the durable slots are always a
   prefix: readers skip empty slots and appends fill the first one, so a
   later slot surviving a lost earlier one would reorder the file.  A
   crash inside the epoch then loses only a suffix of the staged slots,
   all beyond the durable size, leaking blocks the mark-and-sweep pass
   reclaims. *)
let append_extents ?ctx t _w inode blocks =
  let balloc = t.layout.Layout.balloc in
  (* quota gate first: EDQUOT must fire before any block leaves the
     allocator, and an ENOSPC after the charge must hand it back *)
  let quid = quota_uid_of_inode t inode in
  (match quid with Some uid -> quota_charge ?ctx t ~uid blocks | None -> ());
  let rec alloc_ranges n acc =
    if n = 0 then acc
    else
      match Simurgh_alloc.Block_alloc.alloc ?ctx ~hint:inode balloc n with
      | Some addr -> (addr, n) :: acc
      | None ->
          if n = 1 then Errno.raise_ ENOSPC "out of data blocks"
          else
            (* fall back to two half-size requests *)
            let h = n / 2 in
            alloc_ranges (n - h) (alloc_ranges h acc)
  in
  let ranges =
    try List.rev (alloc_ranges blocks [])
    with e ->
      (match quid with Some uid -> quota_release t ~uid blocks | None -> ());
      raise e
  in
  (* stitch into the inode: fill inline slots, then overflow chain *)
  let region = t.region in
  let lines = ref 0 in
  List.iteri
    (fun i (addr, count) ->
      if i > 0 then begin
        Region.sfence region;
        Charge.fence ?ctx ()
      end;
      let placed = ref false in
      (* inline slots *)
      let k = ref 0 in
      while (not !placed) && !k < Inode.inline_extents do
        let a, _ = Inode.read_extent region inode !k in
        if a = 0 then begin
          Inode.stage_extent region inode !k ~addr ~blocks:count;
          placed := true
        end;
        incr k
      done;
      if not !placed then begin
        (* overflow chain: find a free slot or extend *)
        let rec place b prev =
          if b = 0 then begin
            let ov_blocks =
              (Inode.overflow_bytes + block_size t - 1) / block_size t
            in
            (match quid with
            | Some uid -> quota_charge ?ctx t ~uid ov_blocks
            | None -> ());
            let nb =
              match
                Simurgh_alloc.Block_alloc.alloc ?ctx ~hint:inode balloc
                  ov_blocks
              with
              | Some a -> a
              | None ->
                  (match quid with
                  | Some uid -> quota_release t ~uid ov_blocks
                  | None -> ());
                  Errno.raise_ ENOSPC "out of extent blocks"
            in
            (* the zeroed block must be durable before any pointer to it
               can be: a crash that published the link but not the init
               would hand recovery a garbage extent chain *)
            Region.zero region nb Inode.overflow_bytes;
            Region.persist region nb Inode.overflow_bytes;
            let link =
              match prev with
              | None -> Inode.f_overflow inode
              | Some p -> Inode.ov_next p
            in
            Region.write_u62 region link nb;
            Region.clwb region link 8;
            incr lines;
            Inode.stage_ov_extent region nb 0 ~addr ~blocks:count
          end
          else begin
            let placed_here = ref false in
            let k = ref 0 in
            while (not !placed_here) && !k < Inode.overflow_entries do
              let a, _ = Inode.read_ov_extent region b !k in
              if a = 0 then begin
                Inode.stage_ov_extent region b !k ~addr ~blocks:count;
                placed_here := true
              end;
              incr k
            done;
            if not !placed_here then
              place (Region.read_u62 region (Inode.ov_next b)) (Some b)
          end
        in
        place (Region.read_u62 region (Inode.f_overflow inode)) None
      end;
      incr lines)
    ranges;
  !lines

(* Number of data blocks currently mapped. *)
let mapped_blocks t inode =
  let n = ref 0 in
  Inode.iter_extents t.region inode (fun _ b -> n := !n + b);
  !n

(* Ensure the file maps at least [bytes] bytes.  Growing files get a
   64 KiB slack extent so append streams do not pay an allocation per
   call (and a file's blocks stay clustered, Section 4.2). *)
let append_slack_blocks = 256

let ensure_capacity ?ctx t w inode bytes =
  (* a negative target here is always the sign of an integer overflow
     upstream ([pos + len] wrapping past max_int); growing "to" it would
     compute a nonsense block count, so fail the operation cleanly *)
  if bytes < 0 then Errno.raise_ EINVAL "file size overflow";
  let bs = block_size t in
  let have = mapped_blocks t inode in
  let needed = ((bytes + bs - 1) / bs) - have in
  if needed > 0 then
    append_extents ?ctx t w inode
      (if have > 0 then max needed append_slack_blocks else needed)
  else 0

(* Translate a file offset into (region addr, contiguous bytes there). *)
let map_offset t inode pos =
  let bs = block_size t in
  let result = ref None in
  let skip = ref pos in
  (try
     Inode.iter_extents t.region inode (fun addr blocks ->
         let len = blocks * bs in
         if !skip < len then begin
           result := Some (addr + !skip, len - !skip);
           raise Exit
         end
         else skip := !skip - len)
   with Exit -> ());
  !result

(* Zero the file bytes [from, upto) in place and return how many (no
   fence or charge: they join the caller's data epoch).  POSIX requires
   a hole left behind by a past-EOF pwrite or a growing truncate to read
   back as zeros, and blocks arrive from the allocator with whatever
   they last held. *)
let zero_span t inode ~from ~upto =
  let rec loop off remaining =
    if remaining > 0 then
      match map_offset t inode off with
      | None -> Errno.raise_ EINVAL "zero_span: unmapped offset"
      | Some (addr, avail) ->
          let n = min avail remaining in
          Region.zero t.region addr n;
          Region.clwb t.region addr n;
          loop (off + n) (remaining - n)
  in
  if upto > from then begin
    loop from (upto - from);
    upto - from
  end
  else 0

(* Close a size change's data epoch (DESIGN.md §18): the extent slots it
   staged and the hole it zeroed become durable at one sfence, before
   the size word that exposes them, charged as one streaming write of
   [bytes] plus a line per staged slot. *)
let close_data_epoch ?ctx t ~bytes ~lines =
  Region.sfence t.region;
  Charge.nvmm_write ?ctx (bytes + (Region.line_size * lines))

let free_data ?ctx t _w inode =
  let balloc = t.layout.Layout.balloc in
  let quid = quota_uid_of_inode t inode in
  let freed = ref 0 in
  let extents = ref [] in
  Inode.iter_extents t.region inode (fun addr blocks ->
      extents := (addr, blocks) :: !extents);
  List.iter
    (fun (addr, blocks) ->
      freed := !freed + blocks;
      Simurgh_alloc.Block_alloc.free ?ctx balloc ~addr blocks)
    !extents;
  (* free the overflow chain blocks themselves *)
  let bs = block_size t in
  let rec chain b =
    if b <> 0 then begin
      let nxt = Region.read_u62 t.region (Inode.ov_next b) in
      let ov_blocks = (Inode.overflow_bytes + bs - 1) / bs in
      freed := !freed + ov_blocks;
      Simurgh_alloc.Block_alloc.free ?ctx balloc ~addr:b ov_blocks;
      chain nxt
    end
  in
  chain (Region.read_u62 t.region (Inode.f_overflow inode));
  match quid with Some uid -> quota_release t ~uid !freed | None -> ()

(* --- the data path ------------------------------------------------------- *)

(* One path serves every {!discipline}.  Lock order, outermost first —
   every path acquires along this chain, so no cycle is possible:

     directory row (unlink only)
       -> the file lock.  Byte-range: a *fence*, shared by every data
          operation for its full duration, exclusive by truncate /
          O_TRUNC / fallocate / unlink to drain and exclude them all.
          Whole-file: exclusive by writers and by truncate / O_TRUNC /
          fallocate, shared by readers; it then already excludes
          everything the levels below protect, so they are skipped
         -> 4 KiB row locks (byte-range), ascending row order, only the
            rows covering [pos, pos+len) (appends take none: the
            reservation already makes their byte range private)
           -> extent-map lock (byte-range), innermost: shared around
              every map_offset/data copy, exclusive around extent
              staging and the size publish

   The append publish-wait holds only the fence (shared) — predecessors
   need the extent lock and their own reservation, never ours.  The
   byte-range levels build their closures on their own branch only, so
   the whole-file path allocates nothing for them. *)

let with_file_lock ?ctx t inode ~excl f =
  match (ctx, t.discipline) with
  | Some c, (Byte_range | Whole_file) ->
      (* exception-safe: an EIO mid-write must not leave the file
         locked — the process keeps running after a media error *)
      let l = Locks.file_lock t.locks inode in
      if excl then Simurgh_sim.Vlock.Rw.with_write c l f
      else Simurgh_sim.Vlock.Rw.with_read c l f
  | None, _ | Some _, Relaxed -> f ()

(* The byte-range levels: called on byte-range branches only. *)
let with_extent ?ctx t inode ~excl f =
  match ctx with
  | None -> f ()
  | Some c ->
      let l = Locks.extent_lock t.locks inode in
      if excl then Simurgh_sim.Vlock.Rw.with_write c l f
      else Simurgh_sim.Vlock.Rw.with_read c l f

(* Hold every row covering [pos, pos+len) across [f], acquired in
   ascending row order (two writers covering overlapping spans always
   meet on the first shared row, never in opposite order). *)
let with_rows ?ctx t inode ~pos ~len ~excl f =
  match ctx with
  | None -> f ()
  | Some c ->
      let rec go = function
        | [] -> f ()
        | row :: rest ->
            let l = Locks.range_lock t.locks inode ~row in
            if excl then
              Simurgh_sim.Vlock.Rw.with_write c l (fun () -> go rest)
            else Simurgh_sim.Vlock.Rw.with_read c l (fun () -> go rest)
      in
      go (Locks.rows_of_range ~pos ~len)

(* The byte-range reservation words of a file: [reserved] is bumped by a
   fetch-and-add before any byte is written; [published] trails it and
   mirrors the persistent size word.  The registry mints the record
   atomically with both words [-1]; the first data operation fills them
   from the inode under the extent lock (shared), which orders the read
   after any in-flight publisher.  The sentinel check + store sequence
   has no scheduling point, so exactly one thread performs the fill.
   [None] under the other disciplines, which keep no such words. *)
let reservation ?ctx t inode =
  match t.discipline with
  | Whole_file | Relaxed -> None
  | Byte_range ->
      let st = Locks.file_state t.locks inode in
      if st.Locks.published < 0 then
        with_extent ?ctx t inode ~excl:false (fun () ->
            if st.Locks.published < 0 then begin
              let size = Inode.size t.region inode in
              st.Locks.reserved <- size;
              st.Locks.published <- size
            end);
      Some st

(* The size a write of [len] bytes at [pos] starts from, with the tail
   claimed when the write extends the file.  Whole-file: the size word,
   which the exclusive file lock holds still.  Byte-range: an append
   reserves [r0, r0+len) with a fetch-and-add on the volatile size word
   (no row locks — the reservation is the mutual exclusion), local when
   this thread touched the word last; a pwrite
   past the published size first drains in-flight appends (holding only
   the fence shared) so the tail is quiescent, then claims it; an
   overwrite below the published size claims nothing. *)
let reserve ?ctx t inode st ~append ~pos ~len =
  match st with
  | None -> Inode.size t.region inode
  | Some st ->
      let claim old =
        st.Locks.reserved <- pos + len;
        st.Locks.toucher <- Charge.touch_word ?ctx st.Locks.toucher;
        old
      in
      if append then claim st.Locks.reserved
      else if pos + len <= st.Locks.published then st.Locks.published
      else begin
        Simurgh_sim.Schedule.wait_while (fun () ->
            st.Locks.reserved <> st.Locks.published);
        (* an append may have grown the file past us while we waited *)
        if pos + len <= st.Locks.published then st.Locks.published
        else claim st.Locks.published
      end

let rec copy_in t inode ~pos src off remaining =
  if remaining > 0 then
    match map_offset t inode (pos + off) with
    | None -> Errno.raise_ EINVAL "pwrite: unmapped offset"
    | Some (addr, avail) ->
        let n = min avail remaining in
        (* stream straight from the caller's buffer — no Bytes.sub *)
        Region.ntstore_from t.region addr src ~pos:off ~len:n;
        copy_in t inode ~pos src (off + n) (remaining - n)

(* The data epoch's stores, without its fence: the hole between the old
   size [old] and [pos] zeroed (POSIX: it reads back as zeros), then
   [src] streamed in at [pos] with non-temporal stores, charged as one
   streaming write of both plus a line per staged extent slot.  Under
   byte-range locking the charge stays inside the caller's extent-read
   hold: issued after it, it changes how concurrent appenders
   interleave on the extent lock (the data benchmark's byte-range
   shared append at 4 threads fell from 1,938 to 1,659 Kops/s at scale
   1). *)
let stream_data ?ctx t inode ~old ~pos ~lines src =
  let hole = zero_span t inode ~from:old ~upto:pos in
  let len = Bytes.length src in
  copy_in t inode ~pos src 0 len;
  Charge.nvmm_write ?ctx (hole + len + (Region.line_size * lines))

let store_size ?ctx t inode size =
  Inode.set_size t.region inode size;
  Inode.set_mtime t.region inode (now ?ctx t);
  Region.persist t.region (Inode.f_size inode) 16;
  Charge.write_lines ?ctx 1

(* Publish [size] after the data epoch of a write that started from
   [old].  Under byte-range locking in reservation order: wait for every
   earlier reservation to publish, so the size never covers a hole
   another append has not written yet.  The size word is a single
   8-aligned u62 store, so a crash either shows the old size or the new
   one — never a size covering bytes whose sfence had not retired. *)
let publish ?ctx t inode st ~old ~size =
  match st with
  | None -> store_size ?ctx t inode size
  | Some st ->
      Simurgh_sim.Schedule.wait_while (fun () -> st.Locks.published <> old);
      with_extent ?ctx t inode ~excl:true (fun () ->
          store_size ?ctx t inode size;
          st.Locks.published <- size)

(* Stage, stream, fence, publish: the write of [src] at [pos] over a
   file whose size was [old].  The whole-file path maps the range on
   every write (an overwrite stages no slot); the byte-range path only
   when the write extends the file, under the extent lock. *)
let write_span ?ctx t w inode st ~old ~pos src =
  let size = pos + Bytes.length src in
  let extending = size > old in
  let lines =
    match st with
    | None -> ensure_capacity ?ctx t w inode size
    | Some _ when extending ->
        with_extent ?ctx t inode ~excl:true (fun () ->
            ensure_capacity ?ctx t w inode size)
    | Some _ -> 0
  in
  (match st with
  | None -> stream_data ?ctx t inode ~old ~pos ~lines src
  | Some _ ->
      with_extent ?ctx t inode ~excl:false (fun () ->
          stream_data ?ctx t inode ~old ~pos ~lines src));
  Region.sfence t.region;
  Charge.fence ?ctx ();
  if extending then publish ?ctx t inode st ~old ~size

(* The one write path of pwrite and append: [src] at [pos], or at the
   end of the file when [append]; returns the end of the written range.
   Two epochs (paper: metadata updates occur after the data has been
   persisted): extent slots, hole and payload, then the size publish.
   An empty [src] writes nothing (an append still takes its
   reservation). *)
let write_file ?ctx t w inode ~append ~pos src =
  let len = Bytes.length src in
  let excl = match t.discipline with Byte_range -> false | _ -> true in
  with_file_lock ?ctx t inode ~excl @@ fun () ->
  let st = reservation ?ctx t inode in
  let pos =
    if not append then pos
    else
      match st with
      | None -> Inode.size t.region inode
      | Some st -> st.Locks.reserved
  in
  let old = reserve ?ctx t inode st ~append ~pos ~len in
  (if len > 0 then
     match st with
     | Some _ when not append ->
         let from = min pos old in
         with_rows ?ctx t inode ~pos:from ~len:(pos + len - from) ~excl:true
           (fun () -> write_span ?ctx t w inode st ~old ~pos src)
     | _ -> write_span ?ctx t w inode st ~old ~pos src);
  pos + len

let rec copy_out t inode ~pos out off remaining =
  if remaining > 0 then
    match map_offset t inode (pos + off) with
    | None -> Errno.raise_ EINVAL "pread: unmapped offset"
    | Some (addr, avail) ->
        let n = min avail remaining in
        (* fill the result in place — no intermediate copy *)
        Region.read_bytes_into t.region addr out ~pos:off ~len:n;
        copy_out t inode ~pos out (off + n) (remaining - n)

let read_span ?ctx t inode ~pos ~len =
  let out = Bytes.create len in
  copy_out t inode ~pos out 0 len;
  Charge.nvmm_read ?ctx len;
  Charge.memcpy ?ctx len;
  out

(* The one read path: clamped against the size word, or under byte-range
   locking against the volatile published size (reserved-but-unwritten
   bytes are never readable). *)
let read_file ?ctx t inode ~pos ~len =
  with_file_lock ?ctx t inode ~excl:false @@ fun () ->
  match reservation ?ctx t inode with
  | None ->
      let len = max 0 (min len (Inode.size t.region inode - pos)) in
      read_span ?ctx t inode ~pos ~len
  | Some st ->
      let len = max 0 (min len (st.Locks.published - pos)) in
      with_rows ?ctx t inode ~pos ~len ~excl:false @@ fun () ->
      with_extent ?ctx t inode ~excl:false @@ fun () ->
      read_span ?ctx t inode ~pos ~len

(* Truncate, fallocate and O_TRUNC: [body] runs with the file lock held
   exclusive and returns the new size.  Under byte-range locking that
   drained every reservation, so the volatile pair moves to the new
   size (ctx or not — sequential callers rely on this bookkeeping
   too). *)
let exclusive ?ctx t inode body =
  with_file_lock ?ctx t inode ~excl:true @@ fun () ->
  let size = body () in
  match reservation ?ctx t inode with
  | None -> ()
  | Some st ->
      st.Locks.reserved <- size;
      st.Locks.published <- size

(* Set the size of [inode] to [len] (the body of truncate and O_TRUNC).
   A shrink to zero frees every block (the simplest correct strategy);
   a partial shrink keeps its blocks, so growing re-exposes stale file
   contents — POSIX says they read zero. *)
let resize ?ctx t w inode len =
  let size = Inode.size t.region inode in
  if len < size then begin
    if len = 0 then begin
      free_data ?ctx t w inode;
      for k = 0 to Inode.inline_extents - 1 do
        Inode.write_extent t.region inode k ~addr:0 ~blocks:0
      done;
      Region.write_u62 t.region (Inode.f_overflow inode) 0
    end;
    Inode.set_size t.region inode len;
    Region.persist t.region inode Inode.payload_size;
    Charge.write_lines ?ctx 2
  end
  else if len > size then begin
    let lines = ensure_capacity ?ctx t w inode len in
    let hole = zero_span t inode ~from:size ~upto:len in
    close_data_epoch ?ctx t ~bytes:hole ~lines;
    Inode.set_size t.region inode len;
    Region.persist t.region (Inode.f_size inode) 8;
    Charge.write_lines ?ctx 1
  end;
  len


(* --- unlink / rmdir (Fig. 5b) --------------------------------------------- *)

let unretire locks blk () = Locks.unretire locks blk

let remove_entry ?ctx t (w : Hw.Protected.privileged) (d : dirref) ~name:n
    ~check_dir =
  Hw.Protected.check_privileged w t.penv.pcpu;
  let row = Dirblock.lock_row_of_name n in
  check_perm_fe ?ctx t d.dfentry ~want:3;
  (* block frees are deferred past the row critical section: once the
     slot is zeroed the ranges are unreachable, and freeing them inside
     the busy window would nest allocator-segment contention under the
     directory row lock *)
  let deferred : (int * int) list ref = ref [] in
  (* owner uid the deferred blocks were charged to (captured before the
     inode is zeroed below; [None] when nothing is freed or quotas off) *)
  let freed_owner = ref None in
  lock_row ?ctx t d row (fun _ ->
      let found, hops = Dirblock.find t.region ~head:d.dhead ~name:n in
      Charge.read_lines ?ctx (hops + 1);
      match found with
      | None -> Errno.raise_ ENOENT n
      | Some (blk, entry_row, s, fe) ->
          let is_dir = Fentry.is_dir t.region fe in
          (match check_dir with
          | `Must_be_dir when not is_dir -> Errno.raise_ ENOTDIR n
          | `Must_not_be_dir when is_dir -> Errno.raise_ EISDIR n
          | _ -> ());
          let inode = Fentry.target t.region fe in
          let dirhead = if is_dir then Fentry.dirblock t.region fe else 0 in
          if is_dir && Dirblock.count_entries t.region dirhead > 0 then
            Errno.raise_ ENOTEMPTY n;
          (* Fig. 5b step 1: busy flag for the whole line *)
          set_row_busy ?ctx t d row true;
          hook t "unlink:busy";
          (* step 2: file entry valid unset, dirty set *)
          Simurgh_alloc.Slab_alloc.begin_free ?ctx t.layout.Layout.fentry_slab fe;
          hook t "unlink:fentry-dirty";
          (* step 3: inode zeroed (via its own flag protocol) *)
          let nlink = Inode.nlink t.region inode in
          if nlink > 1 then begin
            Inode.set_nlink t.region inode (nlink - 1);
            Region.persist t.region inode 16;
            Charge.write_lines ?ctx 1
          end
          else begin
            let bs = block_size t in
            freed_owner := quota_uid_of_inode t inode;
            (* collect every range now (the inode is zeroed below), free
               them after the row lock is released *)
            Inode.iter_extents t.region inode (fun addr blocks ->
                deferred := (addr, blocks) :: !deferred);
            let rec ov b =
              if b <> 0 then begin
                let nxt = Region.read_u62 t.region (Inode.ov_next b) in
                deferred :=
                  (b, (Inode.overflow_bytes + bs - 1) / bs) :: !deferred;
                ov nxt
              end
            in
            ov (Region.read_u62 t.region (Inode.f_overflow inode));
            (match Fentry.spill t.region fe with
            | Some (addr, len) ->
                deferred := (addr, (len + bs - 1) / bs) :: !deferred
            | None -> ());
            if is_dir then begin
              (* the (empty) hash-block chain *)
              let rec chain b =
                if b <> 0 then begin
                  let nxt = Dirblock.next t.region b in
                  deferred :=
                    (b, (Dirblock.size_of t.region b + bs - 1) / bs)
                    :: !deferred;
                  chain nxt
                end
              in
              chain dirhead
            end;
            (* under range locking, in-flight data operations hold the
               whole-file lock shared for their entire duration (even
               through fds opened before the unlink): one exclusive pass
               drains them all before the inode and its blocks go away.
               Safe under the directory row lock — data ops never wait
               on directory rows, so the holders always finish. *)
            (match (ctx, t.discipline) with
            | Some c, Byte_range ->
                Simurgh_sim.Vlock.Rw.with_write c
                  (Locks.file_lock t.locks inode)
                  (fun () -> ())
            | _ -> ());
            Simurgh_alloc.Slab_alloc.free ?ctx t.layout.Layout.inode_slab inode;
            Locks.drop_file_lock t.locks inode;
            (* the directory is gone: reclaim its row/append locks so the
               volatile registries do not grow without bound, and bump
               its resolve-cache generation (the head address may be
               recycled by a future directory) *)
            if is_dir then begin
              Locks.drop_dir_locks t.locks ~dir:dirhead;
              rcache_invalidate_dir t dirhead
            end
          end;
          hook t "unlink:inode";
          (* step 4: file entry zeroed *)
          Simurgh_alloc.Slab_alloc.finish_free ?ctx t.layout.Layout.fentry_slab fe;
          hook t "unlink:fentry-zero";
          (* step 5: slot pointer zeroed *)
          Dirblock.set_slot t.region blk entry_row s 0;
          Charge.write_lines ?ctx 1;
          rcache_invalidate t d n;
          hook t "unlink:slot";
          (* step 6 (optional): free an empty non-head hash block.
             Under the chain guard it must still be empty and unpinned:
             an insert of another row may hold a probed slot there that
             it fills only after yield points.  The retire mark keeps
             every later probe out of it until it is unlinked. *)
          if blk <> d.dhead && Dirblock.block_empty t.region blk then begin
            chain_guard ?ctx t d.dhead (fun () ->
                if
                  Dirblock.block_empty t.region blk
                  && not
                       (Locks.pinned t.locks ~dir:d.dhead
                          ~rows:Dirblock.first_rows blk)
                then begin
                  Locks.retire t.locks blk;
                  Simurgh_util.bracket unretire t.locks blk () (fun () ->
                      (* find predecessor and unlink *)
                      let rec pred p =
                        if p <> 0 then
                          let nxt = Dirblock.next t.region p in
                          if nxt = blk then begin
                            Dirblock.set_next t.region p
                              (Dirblock.next t.region blk);
                            free_dirblock ?ctx ?owner:(dir_quota_uid t d) t blk
                          end
                          else pred nxt
                      in
                      pred d.dhead)
                end);
            Charge.write_lines ?ctx 2
          end;
          hook t "unlink:done";
          set_row_busy ?ctx t d row false);
  List.iter
    (fun (addr, blocks) ->
      Simurgh_alloc.Block_alloc.free ?ctx t.layout.Layout.balloc ~addr blocks)
    !deferred;
  match !freed_owner with
  | Some uid ->
      quota_release t ~uid (List.fold_left (fun a (_, b) -> a + b) 0 !deferred)
  | None -> ()

let unlink ?ctx t path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_unlink @@ fun w ->
  let d, n = resolve_parent ?ctx t path in
  remove_entry ?ctx t w d ~name:n ~check_dir:`Must_not_be_dir

let rmdir ?ctx t path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_rmdir @@ fun w ->
  let d, n = resolve_parent ?ctx t path in
  remove_entry ?ctx t w d ~name:n ~check_dir:`Must_be_dir

(* --- rename (Fig. 5c / cross-directory) ----------------------------------- *)

(* The destination probe of a rename, under its row lock [r].  An
   existing destination is replaced (POSIX) and the row probed again
   for the slot the removal freed; an absent one is one walk, and its
   free slot is pinned for the insert. *)
let dest_probe ?ctx t w (d : dirref) r ~new_n ~ofe =
  let p = probe_target t d r new_n in
  let p =
    if p.Dirblock.found = 0 then p
    else begin
      remove_entry ?ctx t w d ~name:new_n
        ~check_dir:
          (if Fentry.is_dir t.region ofe then `Must_be_dir
           else `Must_not_be_dir);
      probe_target t d r new_n
    end
  in
  Charge.read_lines ?ctx (p.Dirblock.hops + 1);
  p

(* Fig. 5c steps 1-2, staged in the caller's epoch: a shadow file entry
   named [n] that points at [ofe]'s inode and carries its identity. *)
let stage_shadow ?ctx t ofe ~name:n =
  let inode = Fentry.target t.region ofe in
  let nfe = claim_fentry ?ctx t in
  Fentry.stage_init t.region nfe ~name:n
    ~dir:(Fentry.is_dir t.region ofe)
    ~symlink:(Fentry.is_symlink t.region ofe)
    ~target:inode
    ~alloc_spill:(fun b ->
      alloc_spill ?ctx ?owner:(quota_uid_of_inode t inode) t b);
  if Fentry.is_dir t.region ofe then
    Fentry.stage_dirblock t.region nfe (Fentry.dirblock t.region ofe);
  if t.secure then Fentry.stage_copy_owner t.region ~src:ofe ~dst:nfe;
  nfe

(* Same-directory rename, Fig. 5c, in seven persist epochs (DESIGN.md
   §18).  [d] is the directory, [old_n] the existing name, [new_n] the
   new one. *)
let rename_same_dir ?ctx t w (d : dirref) ~old_n ~new_n =
  Hw.Protected.check_privileged w t.penv.pcpu;
  check_perm_fe ?ctx t d.dfentry ~want:3;
  let old_row = Dirblock.lock_row_of_name old_n in
  let new_row = Dirblock.lock_row_of_name new_n in
  let fentry_slab = t.layout.Layout.fentry_slab in
  (* ascending row order; [f] gets the destination's lock row *)
  let lock2 f =
    if old_row = new_row then lock_row ?ctx t d new_row f
    else if old_row < new_row then
      lock_row ?ctx t d old_row (fun _ -> lock_row ?ctx t d new_row f)
    else
      lock_row ?ctx t d new_row (fun nr ->
          lock_row ?ctx t d old_row (fun _ -> f nr))
  in
  lock2 (fun nr ->
      let found, hops = Dirblock.find t.region ~head:d.dhead ~name:old_n in
      Charge.read_lines ?ctx (hops + 1);
      match found with
      | None -> Errno.raise_ ENOENT old_n
      | Some (oblk, orow, oslot, ofe) ->
          let p = dest_probe ?ctx t w d nr ~new_n ~ofe in
          (* epoch 1, steps 1-2: the shadow, unreachable until step 5 *)
          let nfe = stage_shadow ?ctx t ofe ~name:new_n in
          close_epoch ?ctx t ~lines:3;
          hook t "rename:shadow";
          (* reserve the destination slot before the log window (the
             held row lock keeps it free), so the log slot's lock covers
             only the short persistent rename sequence below, never a
             chain scan *)
          let dst =
            reserve_slot ?ctx ?owner:(dir_quota_uid t d) t d nr ~name:new_n p
          in
          (* the claimed persistent log slot is held from write to clear *)
          with_log_slot ?ctx t d.dhead (fun ~slot ~epoch ->
              (* epochs 2-3, step 3: the log, its payload durable before
                 its state bit *)
              Dirblock.Log.write t.region d.dhead ~slot ~epoch ~src:d.dhead
                ~dst:d.dhead ~fentry:ofe ~new_entry:nfe;
              Charge.write_lines ?ctx 2;
              hook t "rename:log";
              (* epoch 4, steps 4-5: the old line busy, and the old slot
                 now points to the shadow (hash mismatch).  Once the
                 swap is durable, recovery rolls forward. *)
              Dirblock.stage_busy t.region d.dhead old_row true;
              Dirblock.stage_slot t.region oblk orow oslot nfe;
              close_epoch ?ctx t ~lines:2;
              hook t "rename:swap";
              (* epoch 5, steps 6-7: the unreachable old entry freed and
                 the pointer in the new line; the old slot still links
                 the shadow whichever of them is lost *)
              Simurgh_alloc.Slab_alloc.stage_free fentry_slab ofe;
              hook t "rename:oldfree";
              fill_slot t nr dst nfe;
              close_epoch ?ctx t
                ~lines:(Simurgh_alloc.Slab_alloc.free_lines fentry_slab + 1);
              Simurgh_alloc.Slab_alloc.recycle ?ctx fentry_slab ofe;
              hook t "rename:newslot";
              (* epoch 6, step 8: the mismatched pointer goes only once
                 the new one is durable; the shadow's commit and the busy
                 flag are redone by a roll-forward *)
              Dirblock.stage_slot t.region oblk orow oslot 0;
              hook t "rename:oldslot";
              Simurgh_alloc.Slab_alloc.stage_commit fentry_slab nfe;
              Dirblock.stage_busy t.region d.dhead old_row false;
              close_epoch ?ctx t ~lines:3;
              (* epoch 7: the log clear, once every redo is durable *)
              Dirblock.Log.clear t.region d.dhead ~slot;
              Charge.write_lines ?ctx 2;
              hook t "rename:done");
          rcache_invalidate t d old_n;
          rcache_insert t d new_n nfe)

(* Cross-directory rename: one log entry in the source directory marks
   the transaction (paper Fig. 5 text), in six persist epochs (DESIGN.md
   §18). *)
let rename_cross_dir ?ctx t w (ds : dirref) ~old_n (dd : dirref) ~new_n =
  Hw.Protected.check_privileged w t.penv.pcpu;
  check_perm_fe ?ctx t ds.dfentry ~want:3;
  check_perm_fe ?ctx t dd.dfentry ~want:3;
  let src_row = Dirblock.lock_row_of_name old_n in
  let dst_row = Dirblock.lock_row_of_name new_n in
  let fentry_slab = t.layout.Layout.fentry_slab in
  (* deterministic lock order on (dir head, row); [f] gets the
     destination's lock row *)
  let with_locks f =
    if compare (ds.dhead, src_row) (dd.dhead, dst_row) < 0 then
      lock_row ?ctx t ds src_row (fun _ -> lock_row ?ctx t dd dst_row f)
    else
      lock_row ?ctx t dd dst_row (fun dr ->
          lock_row ?ctx t ds src_row (fun _ -> f dr))
  in
  with_locks (fun dr ->
      let found, hops = Dirblock.find t.region ~head:ds.dhead ~name:old_n in
      Charge.read_lines ?ctx (hops + 1);
      match found with
      | None -> Errno.raise_ ENOENT old_n
      | Some (oblk, orow, oslot, ofe) ->
          let p = dest_probe ?ctx t w dd dr ~new_n ~ofe in
          (* epoch 1: the shadow entry for the destination *)
          let nfe = stage_shadow ?ctx t ofe ~name:new_n in
          close_epoch ?ctx t ~lines:3;
          hook t "xrename:shadow";
          (* the destination slot, reserved ahead of the log window as in
             [rename_same_dir] *)
          let dst =
            reserve_slot ?ctx ?owner:(dir_quota_uid t dd) t dd dr ~name:new_n p
          in
          with_log_slot ?ctx t ds.dhead (fun ~slot ~epoch ->
              (* epochs 2-3, steps 1-2: the operation recorded in the
                 source log entry *)
              Dirblock.Log.write t.region ds.dhead ~slot ~epoch ~src:ds.dhead
                ~dst:dd.dhead ~fentry:ofe ~new_entry:nfe;
              Charge.write_lines ?ctx 2;
              hook t "xrename:log";
              (* epoch 4, steps 3-4: both rows busy and the destination
                 link.  Recovery rolls forward iff the shadow is linked
                 (and its flags nonzero), so every store after this
                 epoch is an idempotent redo. *)
              Dirblock.stage_busy t.region ds.dhead src_row true;
              Dirblock.stage_busy t.region dd.dhead dst_row true;
              hook t "xrename:busy";
              fill_slot t dr dst nfe;
              close_epoch ?ctx t ~lines:3;
              hook t "xrename:dstslot";
              (* epoch 5, the redo steps: clear the source slot, free the
                 old entry, commit the shadow, clear both busy flags *)
              Dirblock.stage_slot t.region oblk orow oslot 0;
              hook t "xrename:srcslot";
              Simurgh_alloc.Slab_alloc.stage_free fentry_slab ofe;
              Simurgh_alloc.Slab_alloc.stage_commit fentry_slab nfe;
              hook t "xrename:oldfree";
              Dirblock.stage_busy t.region ds.dhead src_row false;
              Dirblock.stage_busy t.region dd.dhead dst_row false;
              close_epoch ?ctx t
                ~lines:(Simurgh_alloc.Slab_alloc.free_lines fentry_slab + 4);
              Simurgh_alloc.Slab_alloc.recycle ?ctx fentry_slab ofe;
              (* epoch 6: the log clear, once every redo is durable *)
              Dirblock.Log.clear t.region ds.dhead ~slot;
              Charge.write_lines ?ctx 2;
              hook t "xrename:done");
          rcache_invalidate t ds old_n;
          rcache_insert t dd new_n nfe)

(* POSIX: renaming a directory into its own subtree (rename /a /a/b/c)
   must fail EINVAL — performing it would detach the subtree into an
   unreachable cycle.  [sh] heads the source directory's hash chain;
   walk its subtree looking for the destination parent.  Runs before
   the lock window (the locked paths re-find the source), like the
   kernel's lock_rename ancestor check. *)
let check_rename_cycle ?ctx t ~src_head:sh (dd : dirref) path =
  let rec subtree h =
    if h = dd.dhead then Errno.raise_ EINVAL path;
    Charge.read_lines ?ctx 1;
    Dirblock.iter_entries t.region h (fun _ _ _ fe ->
        if Fentry.is_dir t.region fe then
          subtree (Fentry.dirblock t.region fe))
  in
  subtree sh

let rename ?ctx t old_path new_path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_rename @@ fun w ->
  let ds, old_n = resolve_parent ?ctx t old_path in
  let dd, new_n = resolve_parent ?ctx t new_path in
  if ds.dhead = dd.dhead && String.equal old_n new_n then begin
    (* POSIX: renaming a file to itself succeeds and changes nothing *)
    match dir_lookup ?ctx t ds old_n with
    | Some _ -> ()
    | None -> Errno.raise_ ENOENT old_path
  end
  else begin
    (* uncharged peek: only directory sources need the cycle walk (the
       locked paths below re-find the source and charge as before) *)
    (match Dirblock.find t.region ~head:ds.dhead ~name:old_n with
    | Some (_, _, _, ofe), _ when Fentry.is_dir t.region ofe ->
        check_rename_cycle ?ctx t
          ~src_head:(Fentry.dirblock t.region ofe)
          dd new_path
    | _ -> ());
    if ds.dhead = dd.dhead then rename_same_dir ?ctx t w ds ~old_n ~new_n
    else rename_cross_dir ?ctx t w ds ~old_n dd ~new_n
  end

(* --- open / close / read / write ------------------------------------------ *)

let stat_of_inode t inode =
  {
    Types.kind =
      (match Inode.kind t.region inode with
      | Inode.File -> Types.File
      | Inode.Dir -> Types.Dir
      | Inode.Symlink -> Types.Symlink);
    perm = Inode.perm t.region inode;
    uid = Inode.uid t.region inode;
    gid = Inode.gid t.region inode;
    nlink = Inode.nlink t.region inode;
    size = Inode.size t.region inode;
    mtime = Inode.mtime t.region inode;
    ino = inode;
  }

let stat ?ctx t path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_stat @@ fun _w ->
  let _, fe = resolve ?ctx t path in
  Charge.read_lines ?ctx 2;
  stat_of_inode t (Fentry.target t.region fe)

let exists ?ctx t path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_exists @@ fun _w ->
  match resolve ?ctx t path with
  | _ -> true
  | exception Errno.Err ((ENOENT | ENOTDIR), _) -> false

(* open(O_CREAT) as Linux's lookup-with-create: the parent is resolved
   once and the final name is looked up by the locked probe a create
   runs, so an absent name is created in the slot that probe found.
   Write permission on the directory is needed only to create; a final
   symlink is followed as {!resolve} does (a dangling one is EEXIST, as
   the create of its name would be). *)
let open_create ?ctx t w ~excl path =
  match Path.parse path with
  | None ->
      if excl then Errno.raise_ EEXIST path;
      Layout.root_fentry t.layout
  | Some pf -> (
      let d, n = walk_parent ?ctx ~depth:0 t path pf in
      check_perm_fe ?ctx t d.dfentry ~want:1;
      let fe =
        lock_row ?ctx t d (Dirblock.lock_row_of_name n) (fun r ->
            let p = probe_target t d r n in
            charge_probe ?ctx p;
            if p.Dirblock.found <> 0 then begin
              if excl then Errno.raise_ EEXIST path;
              p.Dirblock.found
            end
            else begin
              Hw.Protected.check_privileged w t.penv.pcpu;
              if String.length n > Fentry.name_max then
                Errno.raise_ ENAMETOOLONG n;
              check_perm_fe ?ctx t d.dfentry ~want:3;
              create_locked ?ctx t d r p ~name:n ~kind:Inode.File ~perm:0o644
                ~target_inode:None
            end)
      in
      (* a file just created is never a symlink *)
      if not (Fentry.is_symlink t.region fe) then fe
      else
        match resolve ?ctx ~depth:1 t (read_symlink_target t fe) with
        | _, target -> target
        | exception Errno.Err (ENOENT, _) -> Errno.raise_ EEXIST n)

let openf ?ctx t (flags : Types.open_flags) path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_open @@ fun w ->
  let fe =
    if flags.Types.create then open_create ?ctx t w ~excl:flags.Types.excl path
    else snd (resolve ?ctx t path)
  in
  if Fentry.is_dir t.region fe then Errno.raise_ EISDIR path;
  let inode = Fentry.target t.region fe in
  if flags.Types.read then check_perm_fe ?ctx t fe ~want:4;
  if flags.Types.write then check_perm_fe ?ctx t fe ~want:2;
  if flags.Types.trunc then
    exclusive ?ctx t inode (fun () -> resize ?ctx t w inode 0);
  let mode =
    match (flags.Types.read, flags.Types.write) with
    | true, true -> Openfile.Rdwr
    | false, true -> Openfile.Wronly
    | _ -> Openfile.Rdonly
  in
  Openfile.alloc ?ctx t.openfiles ~mode ~path ~inode ~append:flags.Types.append

let close ?ctx t fd =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_close @@ fun _w ->
  if not (Openfile.close ?ctx t.openfiles fd) then
    Errno.raise_ EBADF (string_of_int fd)

let fd_entry t fd =
  match Openfile.get t.openfiles fd with
  | Some e -> e
  | None -> Errno.raise_ EBADF (string_of_int fd)

let pwrite ?ctx t fd ~pos src =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_pwrite @@ fun w ->
  if pos < 0 then Errno.raise_ EINVAL (Printf.sprintf "pwrite pos %d" pos);
  (* [pos + len] near max_int wraps negative and would sail past the
     negative-arg checks into the size words (and, in range mode, the
     volatile reservation) — reject like Linux's EINVAL on offset+count
     overflow *)
  if pos > max_int - Bytes.length src then
    Errno.raise_ EINVAL (Printf.sprintf "pwrite pos %d + len overflow" pos);
  let e = fd_entry t fd in
  if e.Openfile.mode = Openfile.Rdonly then Errno.raise_ EBADF "read-only fd";
  let len = Bytes.length src in
  (* POSIX: a zero-byte write to a regular file has no other result *)
  if len > 0 then
    ignore (write_file ?ctx t w e.Openfile.inode ~append:false ~pos src);
  len

let append ?ctx t fd src =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_append @@ fun w ->
  let e = fd_entry t fd in
  if e.Openfile.mode = Openfile.Rdonly then Errno.raise_ EBADF "read-only fd";
  e.Openfile.pos <-
    write_file ?ctx t w e.Openfile.inode ~append:true ~pos:0 src;
  Bytes.length src

let pread ?ctx t fd ~pos ~len =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_pread @@ fun _w ->
  if pos < 0 then Errno.raise_ EINVAL (Printf.sprintf "pread pos %d" pos);
  if len < 0 then Errno.raise_ EINVAL (Printf.sprintf "pread len %d" len);
  if pos > max_int - len then
    Errno.raise_ EINVAL (Printf.sprintf "pread pos %d + len %d overflow" pos len);
  let e = fd_entry t fd in
  if e.Openfile.mode = Openfile.Wronly then Errno.raise_ EBADF "write-only fd";
  read_file ?ctx t e.Openfile.inode ~pos ~len

let fallocate ?ctx t fd ~len =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_fallocate @@ fun w ->
  let e = fd_entry t fd in
  if e.Openfile.mode = Openfile.Rdonly then Errno.raise_ EBADF "read-only fd";
  let inode = e.Openfile.inode in
  exclusive ?ctx t inode @@ fun () ->
  let lines = ensure_capacity ?ctx t w inode len in
  if lines > 0 then close_data_epoch ?ctx t ~bytes:0 ~lines;
  let size = Inode.size t.region inode in
  if size >= len then size
  else begin
    Inode.set_size t.region inode len;
    Region.persist t.region (Inode.f_size inode) 8;
    Charge.write_lines ?ctx 1;
    len
  end

(* Simurgh persists synchronously; fsync only needs the entry charge. *)
let fsync ?ctx t fd =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_fsync @@ fun _w ->
  ignore (fd_entry t fd);
  Charge.fence ?ctx ()

let truncate ?ctx t path len =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_truncate @@ fun w ->
  let _, fe = resolve ?ctx t path in
  if Fentry.is_dir t.region fe then Errno.raise_ EISDIR path;
  let inode = Fentry.target t.region fe in
  check_perm_fe ?ctx t fe ~want:2;
  exclusive ?ctx t inode (fun () -> resize ?ctx t w inode len)

let readdir ?ctx t path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_readdir @@ fun _w ->
  let _, fe = resolve ?ctx t path in
  if not (Fentry.is_dir t.region fe) then Errno.raise_ ENOTDIR path;
  check_perm_fe ?ctx t fe ~want:4;
  let head = Fentry.dirblock t.region fe in
  let names = ref [] in
  let blocks = ref 0 in
  Dirblock.iter_chain t.region head (fun _ _ -> incr blocks);
  Dirblock.iter_entries t.region head (fun _ _ _ p ->
      names := Fentry.name t.region p :: !names);
  Charge.read_lines ?ctx (!blocks * 8);
  List.rev !names

let readlink ?ctx t path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_readlink @@ fun _w ->
  let _, fe = resolve ?ctx ~follow:false t path in
  if not (Fentry.is_symlink t.region fe) then Errno.raise_ EINVAL path;
  Charge.read_lines ?ctx 2;
  read_symlink_target t fe

let statfs ?ctx t =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_statfs @@ fun _w ->
  let balloc = t.layout.Layout.balloc in
  let total = Simurgh_alloc.Block_alloc.total_blocks balloc in
  (* the free-list walk never touches quarantined blocks (both the
     runtime [free] and recovery's rebuild withhold them), so free,
     used and quarantined partition the capacity exactly *)
  let free = Simurgh_alloc.Block_alloc.free_blocks balloc in
  let quarantined = Simurgh_alloc.Block_alloc.quarantined_blocks balloc in
  {
    block_size = Simurgh_alloc.Block_alloc.block_size balloc;
    total_blocks = total;
    free_blocks = free;
    used_blocks = total - free - quarantined;
    quarantined_blocks = quarantined;
    live_inodes =
      Simurgh_alloc.Slab_alloc.live_objects t.layout.Layout.inode_slab;
    live_fentries =
      Simurgh_alloc.Slab_alloc.live_objects t.layout.Layout.fentry_slab;
  }

let chmod ?ctx t path perm =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_chmod @@ fun _w ->
  let _, fe = resolve ?ctx t path in
  let inode = Fentry.target t.region fe in
  let euid, _ = creds ?ctx t in
  let owner_uid =
    if t.secure then
      let uid, _, _ = Fentry.owner t.region fe in
      uid
    else Inode.uid t.region inode
  in
  if euid <> 0 && owner_uid <> euid then Errno.raise_ EACCES path;
  let m = Inode.mode t.region inode in
  Inode.set_mode t.region inode
    ((m land lnot Inode.perm_mask) lor (perm land Inode.perm_mask));
  Region.persist t.region inode 8;
  (* keep the fentry-side word the protected checks read in sync; a
     hardlinked inode's sibling names keep their stamped word (documented
     deviation — see DESIGN.md §16) *)
  if t.secure then begin
    let uid, gid, _ = Fentry.owner t.region fe in
    Fentry.set_owner t.region fe ~uid ~gid ~perm:(perm land Inode.perm_mask)
  end;
  Charge.write_lines ?ctx 1

let utimes ?ctx t path mtime =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_utimes @@ fun _w ->
  let _, fe = resolve ?ctx t path in
  let inode = Fentry.target t.region fe in
  Inode.set_mtime t.region inode mtime;
  Region.persist t.region (Inode.f_mtime inode) 8;
  Charge.write_lines ?ctx 1

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

type t = {
  layout : Layout.t;
  region : Region.t;
  locks : Locks.t;
  openfiles : Openfile.t;
  mutable euid : int;
  mutable egid : int;
  call_mode : call_mode;
  relaxed_writes : bool;
      (** disable the per-file write lock (Fig. 7k "relaxed") *)
  coarse_dir_locks : bool;
      (** ablation: one lock per directory instead of per-line busy
          flags — the "whole-directory lock" counterfactual *)
  rcache : Rcache.t option;
      (** Simurgh-side DRAM resolve cache (shared across mounts);
          [None] = seed behavior, every component scanned in NVMM *)
  range_locks : bool;
      (** byte-range data-path locking: writers hold only the 4 KiB
          rows they touch, appends reserve bytes with a fetch-and-add
          and publish the size in order, and whole-file operations
          (truncate, O_TRUNC, unlink) fence everyone out through an
          exclusive pass over the per-file lock.  Off = seed behavior,
          one rwlock per file around every data operation. *)
  log_ring : int;
      (** format-time rename-log ring size (from the superblock): each
          directory's first hash block carries this many log slots, and
          a rename claims one via its per-slot lock instead of the
          directory-global log lock.  0 = the paper's single slot. *)
  mutable crash_hook : string -> unit;
  mutable logical_time : int;
  mutable eio_returns : int;
      (** operations that returned [EIO] after hitting a poisoned line *)
  secure : bool;
      (** the volume was formatted with the security plane: file entries
          carry the packed owner/mode word and the protected entry
          points enforce per-user permissions against it *)
  quota : Quota.t;
      (** per-uid block quotas (region-shared volatile state; disabled —
          zero cost — until the first limit is installed) *)
  penv : penv;  (** this mount's protected entry points (one process) *)
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

let of_layout ?(call_mode = Protected) ?(relaxed_writes = false)
    ?(coarse_dir_locks = false) ?(striped_locks = false) ?(rcache = false)
    ?(range_locks = false) ?shared ?(euid = 1000) ?(egid = 1000) layout =
  (* [shared] joins an existing mount's shared-DRAM state; otherwise the
     requested feature flags shape a fresh registry/cache *)
  let locks, rc, quota =
    match shared with
    | Some (locks, rc, quota) -> (locks, rc, quota)
    | None ->
        ( Locks.create ~striped:striped_locks (),
          (if rcache then Some (Rcache.create ()) else None),
          Quota.create () )
  in
  let fs =
    {
      layout;
      region = layout.Layout.region;
      locks;
      openfiles = Openfile.create ();
      euid;
      egid;
      call_mode;
      relaxed_writes;
      coarse_dir_locks;
      rcache = rc;
      range_locks;
      log_ring = layout.Layout.log_ring;
      crash_hook = ignore;
      logical_time = 0;
      eio_returns = 0;
      secure = layout.Layout.secure;
      quota;
      penv = bootstrap_penv ~euid ~egid;
    }
  in
  (* lock-registry sizes and allocator counters join the experiment's
     observability snapshot (no-op outside the bench driver) *)
  Simurgh_obs.Collect.note_source (fun () ->
      let rows, files, appends = Locks.sizes fs.locks in
      let range_rows, file_states = Locks.range_sizes fs.locks in
      let ba = Simurgh_alloc.Block_alloc.stats layout.Layout.balloc in
      let inodes = Simurgh_alloc.Slab_alloc.stats layout.Layout.inode_slab in
      let fes = Simurgh_alloc.Slab_alloc.stats layout.Layout.fentry_slab in
      [
        ("locks/row_locks", float_of_int rows);
        ("locks/file_locks", float_of_int files);
        ("locks/dir_append_locks", float_of_int appends);
        ("locks/file_range_locks", float_of_int range_rows);
        ("locks/file_states", float_of_int file_states);
        ( "rename_log/slot_acquisitions",
          float_of_int (Locks.log_slot_acquisitions fs.locks) );
        ( "rename_log/ring_full_waits",
          float_of_int (Locks.log_ring_full_waits fs.locks) );
        ( "alloc/block_allocs",
          float_of_int ba.Simurgh_alloc.Block_alloc.allocs );
        ("alloc/block_frees", float_of_int ba.Simurgh_alloc.Block_alloc.frees);
        ( "alloc/blocks_allocated",
          float_of_int ba.Simurgh_alloc.Block_alloc.blocks_allocated );
        ( "alloc/blocks_freed",
          float_of_int ba.Simurgh_alloc.Block_alloc.blocks_freed );
        ( "alloc/inodes_live",
          float_of_int inodes.Simurgh_alloc.Slab_alloc.live );
        ("alloc/fentries_live", float_of_int fes.Simurgh_alloc.Slab_alloc.live);
        ("faults/eio_returns", float_of_int fs.eio_returns);
      ]
      @
      match fs.rcache with
      | None -> []
      | Some rc ->
          let s = Rcache.stats rc in
          [
            ("rcache/hits", float_of_int s.Rcache.hits);
            ("rcache/misses", float_of_int s.Rcache.misses);
            ("rcache/inserts", float_of_int s.Rcache.inserts);
            ("rcache/invalidations", float_of_int s.Rcache.invalidations);
          ]);
  fs

(* Shared-DRAM state per region (paper Section 4: concurrent processes
   are "coordinated through accesses to NVMM and shared DRAM").  Every
   mount of the same region must share the volatile allocator caches and
   the lock registry, otherwise two "processes" would hand out the same
   metadata objects.  The state lives in the region's user slot, so its
   lifetime is exactly the region's (no global registry to leak). *)
exception Shared_state of Layout.t * Locks.t * Rcache.t option * Quota.t

let lookup_shared region =
  match Region.user_slot region with
  | Some (Shared_state (layout, locks, rc, quota)) ->
      Some (layout, locks, rc, quota)
  | Some _ | None -> None

let register_shared region layout locks rcache quota =
  Region.set_user_slot region (Some (Shared_state (layout, locks, rcache, quota)))

(* [alloc_caches] turns on the allocators' per-thread structures; they
   hang off the (shared) layout, so one enable covers every mount. *)
let enable_alloc_caches layout =
  Simurgh_alloc.Block_alloc.set_thread_segments layout.Layout.balloc true;
  Simurgh_alloc.Slab_alloc.set_thread_caches layout.Layout.inode_slab true;
  Simurgh_alloc.Slab_alloc.set_thread_caches layout.Layout.fentry_slab true

(** Format a fresh region and return a mounted file system.  [log_ring]
    selects the rename-log ring size at format time (0 = the paper's
    single per-directory log slot, on-media bit-identical). *)
let mkfs ?(cores = 10) ?segments ?call_mode ?relaxed_writes ?coarse_dir_locks
    ?striped_locks ?rcache ?range_locks ?(alloc_caches = false) ?log_ring
    ?shard ?secure ?euid ?egid region =
  let layout = Layout.format ?segments ?log_ring ?shard ?secure region ~cores in
  make_root layout;
  let fs =
    of_layout ?call_mode ?relaxed_writes ?coarse_dir_locks ?striped_locks
      ?rcache ?range_locks ?euid ?egid layout
  in
  if alloc_caches then enable_alloc_caches layout;
  register_shared region layout fs.locks fs.rcache fs.quota;
  (* the FS is live from here: only a clean [unmount] sets the flag
     back, so a crash leaves it clear and forces full recovery *)
  Layout.set_clean_shutdown layout false;
  fs

(** Attach to an already-formatted region: a second mount of a region
    joins the existing shared-DRAM state (allocator caches, locks,
    resolve cache), so independent "processes" cooperate exactly as the
    paper describes; only the open-file map and the credentials are
    per-process.  Crash recovery is in {!Recovery}. *)
let mount ?call_mode ?relaxed_writes ?coarse_dir_locks ?striped_locks ?rcache
    ?range_locks ?(alloc_caches = false) ?euid ?egid region =
  match lookup_shared region with
  | Some (layout, locks, rc, quota) ->
      (* joining mounts inherit the shared structures; the feature flags
         of the first mount win — except [range_locks], which selects a
         locking *protocol* and must agree across every mount of the
         region (the reservation words live in the shared registry) *)
      of_layout ?call_mode ?relaxed_writes ?coarse_dir_locks ?range_locks
        ~shared:(locks, rc, quota) ?euid ?egid layout
  | None ->
      let layout = Layout.attach region in
      let fs =
        of_layout ?call_mode ?relaxed_writes ?coarse_dir_locks ?striped_locks
          ?rcache ?range_locks ?euid ?egid layout
      in
      if alloc_caches then enable_alloc_caches layout;
      register_shared region layout fs.locks fs.rcache fs.quota;
      Layout.set_clean_shutdown layout false;
      fs

(** Forget the shared state of a region (after a crash, the volatile
    state is gone by definition; {!Recovery} calls this). *)
let invalidate_shared region = Region.set_user_slot region None

let unmount t = Layout.set_clean_shutdown t.layout true

let region t = t.region
let layout t = t.layout
let locks t = t.locks
let locks_of t = t.locks
let rcache_of t = t.rcache
let quota_of t = t.quota
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
let quota_limit t ~uid = Quota.limit t.quota ~uid

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
      t.eio_returns <- t.eio_returns + 1;
      Errno.raise_ EIO (Printf.sprintf "uncorrectable media error at %#x" off)

(* --- allocation helpers ------------------------------------------------- *)

let alloc_inode ?ctx t =
  match Simurgh_alloc.Slab_alloc.alloc ?ctx t.layout.Layout.inode_slab with
  | Some i -> i
  | None -> Errno.raise_ ENOSPC "out of inode objects"

let alloc_fentry ?ctx t =
  match Simurgh_alloc.Slab_alloc.alloc ?ctx t.layout.Layout.fentry_slab with
  | Some e -> e
  | None -> Errno.raise_ ENOSPC "out of file-entry objects"

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

(* Lock a directory row: virtual-time spin lock plus the persistent busy
   flag in the first hash block (crash detection). *)
let lock_row ?ctx t (d : dirref) row =
  let row = if t.coarse_dir_locks then 0 else row in
  Charge.with_spin ?ctx (Locks.row_lock t.locks ~dir:d.dhead ~row)

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
   the chosen log slot held.

   Legacy media (log_ring = 0): the single persistent rename-log slot is
   a genuinely directory-global resource.  Striped mode serializes the
   write..clear window under the (dir, 1) log lock; legacy mode needs no
   extra lock — the (coarser) row/append locking already serializes
   conflicting renames.

   Log-ring media: each rename claims one of the ring's slots via that
   slot's own lock, so N renames of one directory run their Fig. 5 log
   windows concurrently.  The claim probes from a rotating hint for a
   slot whose lock is free and falls back to blocking on the hint slot
   when the whole ring is held (counted as a ring-full wait).  The epoch
   is fetched inside the caller's row-lock window, so slots of
   conflicting (row-sharing) renames — which row locks serialize — are
   stamped in their serialization order; row-disjoint renames commute,
   so their relative epoch order only needs to be deterministic. *)
let with_log_slot ?ctx t dir f =
  let n = t.log_ring in
  if n = 0 then
    if Locks.striped t.locks then
      (* the held window is a short exclusive persistent sequence: charge
         its line writes as posted ntstores so a saturated device queue
         does not convoy every rename behind the directory-global lock *)
      Charge.with_spin ?ctx (Locks.log_lock t.locks dir) (fun () ->
          Charge.posted ?ctx (fun () -> f ~slot:0 ~epoch:0))
    else f ~slot:0 ~epoch:0
  else begin
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
        Charge.posted ?ctx (fun () -> f ~slot ~epoch))
  end

(* Chain-structure mutations (linking/unlinking hash blocks).  Legacy
   mode uses the per-directory append lock; striped mode a dedicated
   short chain lock, because the append locks are per-row there. *)
let chain_guard ?ctx t dir f =
  if Locks.striped t.locks then
    Charge.with_spin ?ctx (Locks.chain_lock t.locks dir) f
  else Charge.with_spin ?ctx (Locks.dir_append_lock t.locks dir) f

(* --- create -------------------------------------------------------------- *)

(* Striped mode: find — growing the chain when the row is full — a free
   slot for [hash]'s row, without writing it.  The caller must hold the
   row lock of that row; since every mutator of a row takes its lock
   first, the returned slot stays free until the caller fills it (chain
   growth by other rows only adds slots).  Separating the search from
   the write lets rename reserve its destination slot ahead of the log
   window, so the directory-global log lock covers only the short
   persistent rename sequence, never a chain scan. *)
let rec striped_reserve ?ctx ?owner t (d : dirref) ~hash =
  let lock_row = Dirblock.lock_row_of_hash hash in
  let slot_ref, hops, last =
    Dirblock.find_free_slot t.region ~head:d.dhead ~hash
  in
  Charge.read_lines ?ctx (hops + 1);
  match slot_ref with
  | Some s ->
      hook t "insert:slot";
      s
  | None -> (
      set_row_busy ?ctx t d lock_row true;
      hook t "insert:busy";
      let reserved =
        Charge.with_spin ?ctx
          (Locks.dir_append_lock ~row:lock_row t.locks d.dhead)
          (fun () ->
            (* re-check under the row's append lock: the chain may have
               grown meanwhile *)
            let slot_ref', hops', last' =
              Dirblock.find_free_slot t.region ~head:last ~hash
            in
            Charge.read_lines ?ctx (hops' + 1);
            match slot_ref' with
            | Some s -> Some s
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
      | None -> striped_reserve ?ctx ?owner t d ~hash)

(* Insert [fentry] into the row of [name] in directory [d], growing the
   chain when the row is full (Fig. 5a steps 3-5). *)
let insert_entry ?ctx ?owner t (d : dirref) ~name:n fentry =
  let hash = Name_hash.hash n in
  let lock_row = Dirblock.lock_row_of_hash hash in
  if not (Locks.striped t.locks) then begin
    (* legacy path: every row-full insert of a directory serializes on
       one chain-extension lock *)
    let slot_ref, hops, last =
      Dirblock.find_free_slot t.region ~head:d.dhead ~hash
    in
    Charge.read_lines ?ctx (hops + 1);
    match slot_ref with
    | Some (blk, row, s) ->
        hook t "insert:slot";
        Dirblock.set_slot t.region blk row s fentry;
        Charge.write_lines ?ctx 1
    | None ->
        (* Fig. 5a: set the busy flag of the whole line, create a new hash
           block, link it, then persist the new entry's pointer. *)
        set_row_busy ?ctx t d lock_row true;
        hook t "insert:busy";
        Charge.with_spin ?ctx (Locks.dir_append_lock t.locks d.dhead)
          (fun () ->
            (* re-check under the append lock: another process may have
               extended the chain meanwhile *)
            let slot_ref', hops', last' =
              Dirblock.find_free_slot t.region ~head:last ~hash
            in
            Charge.read_lines ?ctx (hops' + 1);
            match slot_ref' with
            | Some (blk, row, s) ->
                Dirblock.set_slot t.region blk row s fentry;
                Charge.write_lines ?ctx 1
            | None ->
                let new_rows =
                  min Dirblock.max_rows (2 * Dirblock.rows t.region last')
                in
                let nb = alloc_dirblock ?ctx ?owner t ~rows:new_rows in
                hook t "insert:newblock";
                Dirblock.set_next t.region last' nb;
                Charge.write_lines ?ctx 2;
                hook t "insert:link";
                Dirblock.set_slot t.region nb (hash mod new_rows) 0 fentry;
                Charge.write_lines ?ctx 1);
        hook t "insert:unbusy";
        set_row_busy ?ctx t d lock_row false
  end
  else begin
    (* striped path: row-full inserts of different rows proceed in
       parallel under per-row append locks; only the physical link of a
       new hash block takes the (short) directory-global chain lock *)
    let blk, row, s = striped_reserve ?ctx ?owner t d ~hash in
    Dirblock.set_slot t.region blk row s fentry;
    Charge.write_lines ?ctx 1
  end

let create_at ?ctx t (w : Hw.Protected.privileged) (d : dirref) ~name:n ~kind
    ~perm ~target_inode =
  Hw.Protected.check_privileged w t.penv.pcpu;
  if String.length n > Fentry.name_max then Errno.raise_ ENAMETOOLONG n;
  check_perm_fe ?ctx t d.dfentry ~want:3;
  let euid, egid = creds ?ctx t in
  (* quota owner of the new object's blocks: a hardlink's name belongs to
     the linked inode's owner, everything else to the creator *)
  let file_owner =
    match target_inode with
    | Some i -> Inode.uid t.region i
    | None -> euid
  in
  let qown = if Quota.enabled t.quota then Some file_owner else None in
  let row = Dirblock.lock_row_of_name n in
  lock_row ?ctx t d row (fun () ->
      (match dir_lookup ?ctx t d n with
      | Some _ -> Errno.raise_ EEXIST n
      | None -> ());
      (* Fig. 5a step 1: inode created and persisted (still dirty) *)
      let inode =
        match target_inode with
        | Some i ->
            Inode.set_nlink t.region i (Inode.nlink t.region i + 1);
            Region.persist t.region i 16;
            i
        | None ->
            let i = alloc_inode ?ctx t in
            Inode.init t.region i
              ~mode:(Inode.mode_of_kind ~perm kind)
              ~uid:euid ~gid:egid ~now:(now ?ctx t);
            Charge.write_lines ?ctx 2;
            i
      in
      hook t "create:inode";
      (* step 2: file entry created and linked to the inode *)
      let fe = alloc_fentry ?ctx t in
      Fentry.init t.region fe ~name:n
        ~dir:(kind = Inode.Dir)
        ~symlink:(kind = Inode.Symlink)
        ~target:inode
        ~alloc_spill:(fun b -> alloc_spill ?ctx ?owner:qown t b);
      (* secure media: stamp the owner/mode word the protected entry
         points check (a hardlink inherits the linked inode's identity) *)
      if t.secure then begin
        match target_inode with
        | Some i ->
            Fentry.set_owner t.region fe ~uid:(Inode.uid t.region i)
              ~gid:(Inode.gid t.region i)
              ~perm:(Inode.perm t.region i)
        | None -> Fentry.set_owner t.region fe ~uid:euid ~gid:egid ~perm
      end;
      Charge.write_lines ?ctx 2;
      hook t "create:fentry";
      (* directories get their first hash block before becoming visible *)
      if kind = Inode.Dir then begin
        let db =
          alloc_dirblock ?ctx ~ring:t.log_ring ?owner:qown t
            ~rows:Dirblock.first_rows
        in
        Fentry.set_dirblock t.region fe db;
        Charge.write_lines ?ctx 2
      end;
      (* steps 3-5: persist the pointer into the row *)
      insert_entry ?ctx ?owner:(dir_quota_uid t d) t d ~name:n fe;
      hook t "create:slot";
      (* step 6: unset the dirty bits *)
      (match target_inode with
      | Some _ -> ()
      | None -> Simurgh_alloc.Slab_alloc.commit ?ctx t.layout.Layout.inode_slab inode);
      Simurgh_alloc.Slab_alloc.commit ?ctx t.layout.Layout.fentry_slab fe;
      hook t "create:commit";
      rcache_insert t d n fe;
      fe)

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

(* Allocate [blocks] (possibly as several extents) and append them to the
   inode's extent list.

   [staged]: batched writeback — every slot store is clwb-only and the
   caller issues a single [Region.sfence] for the whole run, instead of
   paying a persist barrier per slot.  A crash inside the window can
   leave any subset of the staged slots: a torn slot (addr set, blocks
   still 0) maps zero bytes, so readers and recovery both ignore it, and
   the mark-and-sweep pass reclaims blocks the lost slots leaked. *)
let append_extents ?ctx ?(staged = false) t _w inode blocks =
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
  List.iter
    (fun (addr, count) ->
      let placed = ref false in
      (* inline slots *)
      let k = ref 0 in
      while (not !placed) && !k < Inode.inline_extents do
        let a, _ = Inode.read_extent region inode !k in
        if a = 0 then begin
          (if staged then Inode.stage_extent region inode !k ~addr ~blocks:count
           else Inode.write_extent region inode !k ~addr ~blocks:count);
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
            (* even staged, the zeroed block must be durable before any
               pointer to it can be: a crash that published the link but
               not the init would hand recovery a garbage extent chain *)
            Region.zero region nb Inode.overflow_bytes;
            Region.persist region nb Inode.overflow_bytes;
            (match prev with
            | None ->
                Region.write_u62 region (Inode.f_overflow inode) nb;
                if staged then Region.clwb region (Inode.f_overflow inode) 8
                else Region.persist region (Inode.f_overflow inode) 8
            | Some p ->
                Region.write_u62 region (Inode.ov_next p) nb;
                if staged then Region.clwb region (Inode.ov_next p) 8
                else Region.persist region (Inode.ov_next p) 8);
            if staged then Inode.stage_ov_extent region nb 0 ~addr ~blocks:count
            else Inode.write_ov_extent region nb 0 ~addr ~blocks:count
          end
          else begin
            let placed_here = ref false in
            let k = ref 0 in
            while (not !placed_here) && !k < Inode.overflow_entries do
              let a, _ = Inode.read_ov_extent region b !k in
              if a = 0 then begin
                Inode.write_ov_extent region b !k ~addr ~blocks:count;
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
      Charge.write_lines ?ctx 1)
    ranges

(* Number of data blocks currently mapped. *)
let mapped_blocks t inode =
  let n = ref 0 in
  Inode.iter_extents t.region inode (fun _ b -> n := !n + b);
  !n

(* Ensure the file maps at least [bytes] bytes.  Growing files get a
   64 KiB slack extent so append streams do not pay an allocation per
   call (and a file's blocks stay clustered, Section 4.2). *)
let append_slack_blocks = 256

let ensure_capacity ?ctx ?staged t w inode bytes =
  (* a negative target here is always the sign of an integer overflow
     upstream ([pos + len] wrapping past max_int); growing "to" it would
     compute a nonsense block count, so fail the operation cleanly *)
  if bytes < 0 then Errno.raise_ EINVAL "file size overflow";
  let bs = block_size t in
  let have = mapped_blocks t inode in
  let needed = ((bytes + bs - 1) / bs) - have in
  if needed > 0 then
    append_extents ?ctx ?staged t w inode
      (if have > 0 then max needed append_slack_blocks else needed)

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

(* Zero the file bytes [from, upto) in place (no fence; callers batch
   one sfence over hole + payload).  POSIX requires a hole left behind
   by a past-EOF pwrite or a growing truncate to read back as zeros,
   and blocks arrive from the allocator with whatever they last held. *)
let zero_span ?ctx t inode ~from ~upto =
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
    Charge.nvmm_write ?ctx (upto - from)
  end

(* Copy [src] into the file at [pos] across extents.  Returns bytes
   written (always all of them; capacity was ensured). *)
let write_data ?ctx t w inode ~pos src =
  let len = Bytes.length src in
  let old_size = Inode.size t.region inode in
  ensure_capacity ?ctx t w inode (pos + len);
  if pos > old_size then zero_span ?ctx t inode ~from:old_size ~upto:pos;
  let rec copy off remaining =
    if remaining > 0 then begin
      match map_offset t inode (pos + off) with
      | None -> Errno.raise_ EINVAL "write_data: unmapped offset"
      | Some (addr, avail) ->
          let n = min avail remaining in
          (* stream straight from the caller's buffer — no Bytes.sub *)
          Region.write_bytes_from t.region addr src ~pos:off ~len:n;
          Region.clwb t.region addr n;
          copy (off + n) (remaining - n)
    end
  in
  copy 0 len;
  (* non-temporal stores + sfence, then metadata update (paper: metadata
     updates occur after the data has been persisted) *)
  Region.sfence t.region;
  (* non-temporal stores stream straight from the user buffer to NVMM —
     no extra kernel copy (the device-rate charge covers the CPU's store
     stream) *)
  Charge.nvmm_write ?ctx len;
  Charge.fence ?ctx ();
  if pos + len > old_size then begin
    Inode.set_size t.region inode (pos + len);
    Inode.set_mtime t.region inode (now ?ctx t);
    Region.persist t.region (Inode.f_size inode) 16;
    Charge.write_lines ?ctx 1
  end;
  len

let read_data ?ctx t inode ~pos ~len =
  let size = Inode.size t.region inode in
  let len = max 0 (min len (size - pos)) in
  let out = Bytes.create len in
  let rec copy off remaining =
    if remaining > 0 then begin
      match map_offset t inode (pos + off) with
      | None -> Errno.raise_ EINVAL "read_data: unmapped offset"
      | Some (addr, avail) ->
          let n = min avail remaining in
          (* fill the result in place — no intermediate copy *)
          Region.read_bytes_into t.region addr out ~pos:off ~len:n;
          copy (off + n) (remaining - n)
    end
  in
  copy 0 len;
  Charge.nvmm_read ?ctx len;
  Charge.memcpy ?ctx len;
  out

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

(* --- byte-range data path (range_locks mode) ------------------------------ *)

(* Lock order, outermost first — every path acquires along this chain,
   so no cycle is possible:

     directory row (unlink only)
       -> whole-file lock, used as a *fence*: shared by every data
          operation for its full duration, exclusive by truncate /
          O_TRUNC / fallocate / unlink to drain and exclude them all
         -> 4 KiB row locks, ascending row order, only the rows
            covering [pos, pos+len) (appends take none: the reservation
            already makes their byte range private)
           -> extent-map lock, innermost: shared around every
              map_offset/data copy, exclusive around extent staging and
              the size publish

   The append publish-wait holds only the fence (shared) — predecessors
   need the extent lock and their own reservation, never ours. *)

let with_fence_shared ?ctx t inode f =
  match ctx with
  | None -> f ()
  | Some c -> Simurgh_sim.Vlock.Rw.with_read c (Locks.file_lock t.locks inode) f

let with_fence_excl ?ctx t inode f =
  match ctx with
  | None -> f ()
  | Some c ->
      Simurgh_sim.Vlock.Rw.with_write c (Locks.file_lock t.locks inode) f

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

let with_extent_read ?ctx t inode f =
  match ctx with
  | None -> f ()
  | Some c ->
      Simurgh_sim.Vlock.Rw.with_read c (Locks.extent_lock t.locks inode) f

let with_extent_write ?ctx t inode f =
  match ctx with
  | None -> f ()
  | Some c ->
      Simurgh_sim.Vlock.Rw.with_write c (Locks.extent_lock t.locks inode) f

(* The volatile size pair of an open file.  [reserved] is bumped by a
   fetch-and-add before any byte is written; [published] trails it and
   mirrors the persistent size word.  The registry mints the record
   atomically with both words [-1]; the first data operation fills them
   from the inode under the extent lock (shared), which orders the read
   after any in-flight publisher.  The sentinel check + store sequence
   has no scheduling point, so exactly one thread performs the fill. *)
let state_of ?ctx t inode =
  let st = Locks.file_state t.locks inode in
  if st.Locks.published < 0 then
    with_extent_read ?ctx t inode (fun () ->
        if st.Locks.published < 0 then begin
          let size = Inode.size t.region inode in
          st.Locks.reserved <- size;
          st.Locks.published <- size
        end);
  st

(* Stream [src] into [pos, pos+len) without a fence: the caller batches
   one sfence over the whole operation (hole zeroing included). *)
let range_copy ?ctx t inode ~pos src =
  let len = Bytes.length src in
  let rec copy off remaining =
    if remaining > 0 then
      match map_offset t inode (pos + off) with
      | None -> Errno.raise_ EINVAL "write_data: unmapped offset"
      | Some (addr, avail) ->
          let n = min avail remaining in
          Region.ntstore_from t.region addr src ~pos:off ~len:n;
          copy (off + n) (remaining - n)
  in
  copy 0 len;
  Charge.nvmm_write ?ctx len

let range_pwrite ?ctx t w inode ~pos src =
  let len = Bytes.length src in
  if len = 0 then 0
  else
    with_fence_shared ?ctx t inode @@ fun () ->
    let st = state_of ?ctx t inode in
    let overwrite () =
      (* bytes below the published size: only the covered rows, extent
         map shared — disjoint writers never touch the same lock *)
      with_rows ?ctx t inode ~pos ~len ~excl:true @@ fun () ->
      with_extent_read ?ctx t inode (fun () ->
          range_copy ?ctx t inode ~pos src);
      Region.sfence t.region;
      Charge.fence ?ctx ();
      len
    in
    if pos + len <= st.Locks.published then overwrite ()
    else begin
      (* extending write: drain in-flight appends so the tail is
         quiescent (holding only the fence shared), then claim it *)
      Simurgh_sim.Schedule.wait_while (fun () ->
          st.Locks.reserved <> st.Locks.published);
      (* an append may have grown the file past us while we waited *)
      if pos + len <= st.Locks.published then overwrite ()
      else begin
        let old_size = st.Locks.published in
        st.Locks.reserved <- pos + len;
        Charge.atomic ?ctx ~contended:true ();
        let from = min pos old_size in
        with_rows ?ctx t inode ~pos:from ~len:(pos + len - from) ~excl:true
        @@ fun () ->
        with_extent_write ?ctx t inode (fun () ->
            ensure_capacity ?ctx ~staged:true t w inode (pos + len));
        (* staged extent slots durable before any data lands in them *)
        Region.sfence t.region;
        with_extent_read ?ctx t inode (fun () ->
            if pos > old_size then
              zero_span ?ctx t inode ~from:old_size ~upto:pos;
            range_copy ?ctx t inode ~pos src);
        Region.sfence t.region;
        Charge.fence ?ctx ();
        (* in-order publish; the drain above made this immediate *)
        Simurgh_sim.Schedule.wait_while (fun () ->
            st.Locks.published <> old_size);
        with_extent_write ?ctx t inode (fun () ->
            Inode.set_size t.region inode (pos + len);
            Inode.set_mtime t.region inode (now ?ctx t);
            Region.persist t.region (Inode.f_size inode) 16;
            Charge.write_lines ?ctx 1;
            st.Locks.published <- pos + len);
        len
      end
    end

(* Concurrent append: reserve [r0, r0+len) with a fetch-and-add on the
   volatile size word (no row locks — the reservation is the mutual
   exclusion), write the bytes, then publish the new size in reservation
   order.  The size word is a single 8-aligned u62 store, so a crash
   either shows the old size or the new one — never a size covering
   bytes whose sfence had not retired. *)
let range_append ?ctx t w inode src =
  let len = Bytes.length src in
  with_fence_shared ?ctx t inode @@ fun () ->
  let st = state_of ?ctx t inode in
  let r0 = st.Locks.reserved in
  st.Locks.reserved <- r0 + len;
  Charge.atomic ?ctx ~contended:true ();
  if len > 0 then begin
    with_extent_write ?ctx t inode (fun () ->
        ensure_capacity ?ctx ~staged:true t w inode (r0 + len));
    Region.sfence t.region;
    with_extent_read ?ctx t inode (fun () ->
        range_copy ?ctx t inode ~pos:r0 src);
    Region.sfence t.region;
    Charge.fence ?ctx ();
    (* wait for every earlier reservation to publish, so the size never
       covers a hole another append has not written yet *)
    Simurgh_sim.Schedule.wait_while (fun () -> st.Locks.published <> r0);
    with_extent_write ?ctx t inode (fun () ->
        Inode.set_size t.region inode (r0 + len);
        Inode.set_mtime t.region inode (now ?ctx t);
        Region.persist t.region (Inode.f_size inode) 16;
        Charge.write_lines ?ctx 1;
        st.Locks.published <- r0 + len)
  end;
  r0 + len

let range_pread ?ctx t inode ~pos ~len =
  with_fence_shared ?ctx t inode @@ fun () ->
  let st = state_of ?ctx t inode in
  (* clamp against the volatile published size: reserved-but-unwritten
     bytes are never readable *)
  let len = max 0 (min len (st.Locks.published - pos)) in
  with_rows ?ctx t inode ~pos ~len ~excl:false @@ fun () ->
  with_extent_read ?ctx t inode @@ fun () ->
  let out = Bytes.create len in
  let rec copy off remaining =
    if remaining > 0 then
      match map_offset t inode (pos + off) with
      | None -> Errno.raise_ EINVAL "read_data: unmapped offset"
      | Some (addr, avail) ->
          let n = min avail remaining in
          Region.read_bytes_into t.region addr out ~pos:off ~len:n;
          copy (off + n) (remaining - n)
  in
  copy 0 len;
  Charge.nvmm_read ?ctx len;
  Charge.memcpy ?ctx len;
  out


(* --- unlink / rmdir (Fig. 5b) --------------------------------------------- *)

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
  lock_row ?ctx t d row (fun () ->
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
            (if t.range_locks then
               match ctx with
               | None -> ()
               | Some c ->
                   Simurgh_sim.Vlock.Rw.with_write c
                     (Locks.file_lock t.locks inode)
                     (fun () -> ()));
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
          (* step 6 (optional): free an empty non-head hash block *)
          if blk <> d.dhead && Dirblock.block_empty t.region blk then begin
            chain_guard ?ctx t d.dhead
              (fun () ->
                (* find predecessor and unlink *)
                let rec pred p =
                  if p = 0 then ()
                  else
                    let nxt = Dirblock.next t.region p in
                    if nxt = blk then begin
                      Dirblock.set_next t.region p (Dirblock.next t.region blk);
                      free_dirblock ?ctx ?owner:(dir_quota_uid t d) t blk
                    end
                    else pred nxt
                in
                pred d.dhead);
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

(* Same-directory rename, Fig. 5c.  [d] is the directory, [old_n] the
   existing name, [new_n] the new one. *)
let rename_same_dir ?ctx t w (d : dirref) ~old_n ~new_n =
  Hw.Protected.check_privileged w t.penv.pcpu;
  check_perm_fe ?ctx t d.dfentry ~want:3;
  let old_row = Dirblock.lock_row_of_name old_n in
  let new_row = Dirblock.lock_row_of_name new_n in
  let lock2 f =
    if old_row = new_row then lock_row ?ctx t d old_row f
    else
      let r1 = min old_row new_row and r2 = max old_row new_row in
      lock_row ?ctx t d r1 (fun () -> lock_row ?ctx t d r2 f)
  in
  lock2 (fun () ->
      let found, hops = Dirblock.find t.region ~head:d.dhead ~name:old_n in
      Charge.read_lines ?ctx (hops + 1);
      match found with
      | None -> Errno.raise_ ENOENT old_n
      | Some (oblk, orow, oslot, ofe) ->
          (* destination exists? POSIX: replace it *)
          (match Dirblock.find t.region ~head:d.dhead ~name:new_n with
          | Some _, _ ->
              remove_entry ?ctx t w d ~name:new_n
                ~check_dir:
                  (if Fentry.is_dir t.region ofe then `Must_be_dir
                   else `Must_not_be_dir)
          | None, h -> Charge.read_lines ?ctx (h + 1));
          let inode = Fentry.target t.region ofe in
          (* step 1-2: shadow file entry pointing at the same inode *)
          let nfe = alloc_fentry ?ctx t in
          Fentry.init t.region nfe ~name:new_n
            ~dir:(Fentry.is_dir t.region ofe)
            ~symlink:(Fentry.is_symlink t.region ofe)
            ~target:inode
            ~alloc_spill:(fun b ->
              alloc_spill ?ctx ?owner:(quota_uid_of_inode t inode) t b);
          if Fentry.is_dir t.region ofe then
            Fentry.set_dirblock t.region nfe (Fentry.dirblock t.region ofe);
          (* the shadow carries the same identity as the original *)
          if t.secure then Fentry.copy_owner t.region ~src:ofe ~dst:nfe;
          Charge.write_lines ?ctx 2;
          hook t "rename:shadow";
          (* striped mode: reserve the destination slot before the log
             window (the held row lock keeps it free), so the
             directory-global log lock covers only the short persistent
             rename sequence below, never a chain scan *)
          let reserved =
            if Locks.striped t.locks then
              Some
                (striped_reserve ?ctx ?owner:(dir_quota_uid t d) t d
                   ~hash:(Name_hash.hash new_n))
            else None
          in
          (* the claimed persistent log slot is held from write to clear *)
          with_log_slot ?ctx t d.dhead (fun ~slot ~epoch ->
              (* step 3-4: mark the hash block and the old line busy *)
              Dirblock.Log.write t.region d.dhead ~slot ~epoch ~src:d.dhead
                ~dst:d.dhead ~fentry:ofe ~new_entry:nfe;
              set_row_busy ?ctx t d old_row true;
              Charge.write_lines ?ctx 2;
              hook t "rename:log";
              (* step 5: old slot now points to the shadow (hash
                 mismatch) *)
              Dirblock.set_slot t.region oblk orow oslot nfe;
              Charge.write_lines ?ctx 1;
              hook t "rename:swap";
              (* step 6: the old file entry is no longer needed *)
              Simurgh_alloc.Slab_alloc.free ?ctx t.layout.Layout.fentry_slab
                ofe;
              hook t "rename:oldfree";
              (* step 7: pointer in the new line *)
              (match reserved with
              | Some (blk, row, s) ->
                  Dirblock.set_slot t.region blk row s nfe;
                  Charge.write_lines ?ctx 1
              | None ->
                  insert_entry ?ctx ?owner:(dir_quota_uid t d) t d ~name:new_n
                    nfe);
              hook t "rename:newslot";
              (* step 8: remove the mismatched pointer from the old line *)
              Dirblock.set_slot t.region oblk orow oslot 0;
              Charge.write_lines ?ctx 1;
              hook t "rename:oldslot";
              Simurgh_alloc.Slab_alloc.commit ?ctx t.layout.Layout.fentry_slab
                nfe;
              set_row_busy ?ctx t d old_row false;
              Dirblock.Log.clear t.region d.dhead ~slot;
              Charge.write_lines ?ctx 2;
              hook t "rename:done");
          rcache_invalidate t d old_n;
          rcache_insert t d new_n nfe)

(* Cross-directory rename: one log entry in the source directory marks
   the transaction (paper Fig. 5 text). *)
let rename_cross_dir ?ctx t w (ds : dirref) ~old_n (dd : dirref) ~new_n =
  Hw.Protected.check_privileged w t.penv.pcpu;
  check_perm_fe ?ctx t ds.dfentry ~want:3;
  check_perm_fe ?ctx t dd.dfentry ~want:3;
  let src_row = Dirblock.lock_row_of_name old_n in
  let dst_row = Dirblock.lock_row_of_name new_n in
  (* deterministic lock order on (dir head, row) *)
  let locks =
    List.sort compare [ (ds.dhead, src_row, ds); (dd.dhead, dst_row, dd) ]
  in
  let rec with_locks ls f =
    match ls with
    | [] -> f ()
    | (_, row, d) :: rest -> lock_row ?ctx t d row (fun () -> with_locks rest f)
  in
  with_locks locks (fun () ->
      let found, hops = Dirblock.find t.region ~head:ds.dhead ~name:old_n in
      Charge.read_lines ?ctx (hops + 1);
      match found with
      | None -> Errno.raise_ ENOENT old_n
      | Some (oblk, orow, oslot, ofe) ->
          (match Dirblock.find t.region ~head:dd.dhead ~name:new_n with
          | Some _, _ ->
              remove_entry ?ctx t w dd ~name:new_n
                ~check_dir:
                  (if Fentry.is_dir t.region ofe then `Must_be_dir
                   else `Must_not_be_dir)
          | None, h -> Charge.read_lines ?ctx (h + 1));
          let inode = Fentry.target t.region ofe in
          (* shadow entry in the destination *)
          let nfe = alloc_fentry ?ctx t in
          Fentry.init t.region nfe ~name:new_n
            ~dir:(Fentry.is_dir t.region ofe)
            ~symlink:(Fentry.is_symlink t.region ofe)
            ~target:inode
            ~alloc_spill:(fun b ->
              alloc_spill ?ctx ?owner:(quota_uid_of_inode t inode) t b);
          if Fentry.is_dir t.region ofe then
            Fentry.set_dirblock t.region nfe (Fentry.dirblock t.region ofe);
          if t.secure then Fentry.copy_owner t.region ~src:ofe ~dst:nfe;
          Charge.write_lines ?ctx 2;
          hook t "xrename:shadow";
          (* striped mode: reserve the destination slot ahead of the log
             window, as in [rename_same_dir] *)
          let reserved =
            if Locks.striped t.locks then
              Some
                (striped_reserve ?ctx ?owner:(dir_quota_uid t dd) t dd
                   ~hash:(Name_hash.hash new_n))
            else None
          in
          with_log_slot ?ctx t ds.dhead (fun ~slot ~epoch ->
              (* step 1-2: the operation recorded in the source log
                 entry *)
              Dirblock.Log.write t.region ds.dhead ~slot ~epoch ~src:ds.dhead
                ~dst:dd.dhead ~fentry:ofe ~new_entry:nfe;
              Charge.write_lines ?ctx 2;
              hook t "xrename:log";
              (* step 3: both rows busy *)
              set_row_busy ?ctx t ds src_row true;
              set_row_busy ?ctx t dd dst_row true;
              hook t "xrename:busy";
              (* step 4: perform — link destination, clear source *)
              (match reserved with
              | Some (blk, row, s) ->
                  Dirblock.set_slot t.region blk row s nfe;
                  Charge.write_lines ?ctx 1
              | None ->
                  insert_entry ?ctx ?owner:(dir_quota_uid t dd) t dd
                    ~name:new_n nfe);
              hook t "xrename:dstslot";
              Dirblock.set_slot t.region oblk orow oslot 0;
              Charge.write_lines ?ctx 1;
              hook t "xrename:srcslot";
              Simurgh_alloc.Slab_alloc.free ?ctx t.layout.Layout.fentry_slab
                ofe;
              Simurgh_alloc.Slab_alloc.commit ?ctx t.layout.Layout.fentry_slab
                nfe;
              hook t "xrename:oldfree";
              set_row_busy ?ctx t ds src_row false;
              set_row_busy ?ctx t dd dst_row false;
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

let openf ?ctx t (flags : Types.open_flags) path =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_open @@ fun w ->
  let fe =
    match resolve ?ctx t path with
    | _, fe ->
        if flags.Types.excl && flags.Types.create then Errno.raise_ EEXIST path;
        fe
    | exception Errno.Err (ENOENT, _) when flags.Types.create ->
        let d, n = resolve_parent ?ctx t path in
        create_at ?ctx t w d ~name:n ~kind:Inode.File ~perm:0o644
          ~target_inode:None
    | exception e -> raise e
  in
  if Fentry.is_dir t.region fe then Errno.raise_ EISDIR path;
  let inode = Fentry.target t.region fe in
  if flags.Types.read then check_perm_fe ?ctx t fe ~want:4;
  if flags.Types.write then check_perm_fe ?ctx t fe ~want:2;
  (if flags.Types.trunc then
     let trunc_body () =
       if Inode.size t.region inode > 0 then begin
         free_data ?ctx t w inode;
         let rec clear_inline k =
           if k < Inode.inline_extents then begin
             Inode.write_extent t.region inode k ~addr:0 ~blocks:0;
             clear_inline (k + 1)
           end
         in
         clear_inline 0;
         Region.write_u62 t.region (Inode.f_overflow inode) 0;
         Inode.set_size t.region inode 0;
         Region.persist t.region inode Inode.payload_size;
         Charge.write_lines ?ctx 2
       end
     in
     if t.range_locks then
       with_fence_excl ?ctx t inode (fun () ->
           trunc_body ();
           let st = state_of ?ctx t inode in
           st.Locks.reserved <- 0;
           st.Locks.published <- 0)
     else trunc_body ());
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

let with_write_lock ?ctx t inode f =
  if t.relaxed_writes then f ()
  else
    match ctx with
    | None -> f ()
    | Some c ->
        let l = Locks.file_lock t.locks inode in
        (* exception-safe: an EIO mid-write must not leave the file
           locked — the process keeps running after a media error *)
        Simurgh_sim.Vlock.Rw.with_write c l f

let with_read_lock ?ctx t inode f =
  if t.relaxed_writes then f ()
  else
    match ctx with
    | None -> f ()
    | Some c ->
        let l = Locks.file_lock t.locks inode in
        Simurgh_sim.Vlock.Rw.with_read c l f

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
  if t.range_locks then range_pwrite ?ctx t w e.Openfile.inode ~pos src
  else
    with_write_lock ?ctx t e.Openfile.inode (fun () ->
        write_data ?ctx t w e.Openfile.inode ~pos src)

let append ?ctx t fd src =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_append @@ fun w ->
  let e = fd_entry t fd in
  if e.Openfile.mode = Openfile.Rdonly then Errno.raise_ EBADF "read-only fd";
  if t.range_locks then begin
    let newpos = range_append ?ctx t w e.Openfile.inode src in
    e.Openfile.pos <- newpos;
    Bytes.length src
  end
  else
    with_write_lock ?ctx t e.Openfile.inode (fun () ->
        let pos = Inode.size t.region e.Openfile.inode in
        let n = write_data ?ctx t w e.Openfile.inode ~pos src in
        e.Openfile.pos <- pos + n;
        n)

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
  if t.range_locks then range_pread ?ctx t e.Openfile.inode ~pos ~len
  else
    with_read_lock ?ctx t e.Openfile.inode (fun () ->
        read_data ?ctx t e.Openfile.inode ~pos ~len)

let fallocate ?ctx t fd ~len =
  entry_charge ?ctx t;
  media_guard t @@ fun () ->
  t.penv.g_fallocate @@ fun w ->
  let e = fd_entry t fd in
  if e.Openfile.mode = Openfile.Rdonly then Errno.raise_ EBADF "read-only fd";
  let inode = e.Openfile.inode in
  let body () =
    ensure_capacity ?ctx t w inode len;
    if Inode.size t.region inode < len then begin
      Inode.set_size t.region inode len;
      Region.persist t.region (Inode.f_size inode) 8;
      Charge.write_lines ?ctx 1
    end
  in
  if t.range_locks then
    with_fence_excl ?ctx t inode (fun () ->
        body ();
        (* the fence drained every reservation, so both words move *)
        let st = state_of ?ctx t inode in
        if len > st.Locks.published then begin
          st.Locks.reserved <- len;
          st.Locks.published <- len
        end)
  else with_write_lock ?ctx t inode body

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
  let body () =
    let size = Inode.size t.region inode in
    if len < size then begin
      (* shrink: simplest correct strategy — free everything beyond a
         block boundary by rebuilding the extent list *)
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
      ensure_capacity ?ctx t w inode len;
      (* a partial shrink keeps its blocks, so the bytes re-exposed by
         growing are stale file contents — POSIX says they read zero *)
      zero_span ?ctx t inode ~from:size ~upto:len;
      Inode.set_size t.region inode len;
      Region.persist t.region (Inode.f_size inode) 8;
      Charge.write_lines ?ctx 1
    end
  in
  if t.range_locks then
    with_fence_excl ?ctx t inode (fun () ->
        body ();
        (* nothing is in flight behind the exclusive fence: reset the
           volatile size pair to the new truth (ctx or not — sequential
           callers rely on this bookkeeping too) *)
        let st = state_of ?ctx t inode in
        st.Locks.reserved <- len;
        st.Locks.published <- len)
  else with_write_lock ?ctx t inode body

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

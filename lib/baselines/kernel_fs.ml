(** Shared engine for the kernel-file-system baselines.

    Implements full file-system semantics (the workloads and the LSM
    store really run on it) while charging virtual time through the
    mechanisms that differentiate the designs in the paper's evaluation:

    - every syscall pays trap + VFS dispatch (SplitFS skips this on the
      data path);
    - path resolution walks the dentry cache component by component,
      bouncing per-dentry lockref lines (Fig. 7e/7f);
    - directory modifications serialize on the parent's VFS inode mutex
      (Fig. 7b/7d);
    - reads/writes go through the per-inode rw-semaphore (Fig. 7i/7k);
    - journaling, allocator and directory-search costs come from the
      per-design {!Profile.t}.

    File contents are held in DRAM buffers — the baselines are cost
    models with real semantics; only Simurgh itself is the genuinely
    persistent implementation (see DESIGN.md). *)

open Simurgh_sim
open Simurgh_fs_common

type node = {
  ino : int;
  mutable kind : Types.kind;
  mutable perm : int;
  mutable uid : int;
  mutable gid : int;
  mutable nlink : int;
  mutable mtime : int;
  mutable size : int;
  mutable data : Bytes.t;  (** regular files *)
  mutable symlink_target : string;
  children : (string, node) Hashtbl.t;  (** directories *)
  rwsem : Vlock.Rw.t;
  dir_mutex : Vlock.Mutex.t;
  mutable staged : int;  (** SplitFS: appends since last relink *)
}

type fd_entry = { node : node; mutable pos : int; flags : Types.open_flags }

type t = {
  profile : Profile.t;
  root : node;
  dcache : node Simurgh_vfs.Dcache.t;
  rename_mutex : Vlock.Mutex.t;  (** s_vfs_rename_mutex *)
  alloc_lock : Vlock.Spin.t;  (** serial allocators only *)
  journal_lock : Vlock.Spin.t;  (** global undo-log / JBD2 access *)
  fds : (int, fd_entry) Hashtbl.t;
  mutable next_fd : int;
  mutable next_ino : int;
  mutable logical_time : int;
  mutable home_region : int;
      (** NVMM region this FS instance's traffic targets in the
          multi-region DIMM/socket model (default 0, the legacy single
          device).  Pinned onto the calling thread at every entry point,
          exactly like Simurgh's [entry_charge] does with its shard
          index. *)
}

type fd = int

let fresh_node t kind perm =
  let ino = t.next_ino in
  t.next_ino <- t.next_ino + 1;
  {
    ino;
    kind;
    perm;
    uid = 1000;
    gid = 1000;
    nlink = 1;
    mtime = 0;
    size = 0;
    data = Bytes.create 0;
    symlink_target = "";
    children = Hashtbl.create 8;
    rwsem = Vlock.Rw.create ~site:"vfs-rwsem" ();
    dir_mutex = Vlock.Mutex.create ~site:"vfs-inode-mutex" ();
    staged = 0;
  }

let create ?(region = 0) profile =
  let t =
    {
      profile;
      root =
        {
          ino = 1;
          kind = Types.Dir;
          perm = 0o755;
          uid = 0;
          gid = 0;
          nlink = 2;
          mtime = 0;
          size = 0;
          data = Bytes.create 0;
          symlink_target = "";
          children = Hashtbl.create 64;
          rwsem = Vlock.Rw.create ~site:"vfs-rwsem" ();
          dir_mutex = Vlock.Mutex.create ~site:"vfs-inode-mutex" ();
          staged = 0;
        };
      dcache = Simurgh_vfs.Dcache.create ();
      rename_mutex = Vlock.Mutex.create ~site:"vfs-rename-mutex" ();
      alloc_lock = Vlock.Spin.create ~site:"fs-alloc" ();
      journal_lock = Vlock.Spin.create ~site:"fs-journal" ();
      fds = Hashtbl.create 64;
      next_fd = 3;
      next_ino = 2;
      logical_time = 0;
      home_region = region;
    }
  in
  (* fold dcache effectiveness into the active experiment's snapshot
     (no-op outside the bench driver), mirroring what the Simurgh side
     reports as rcache/* *)
  Simurgh_obs.Collect.note_source (fun () ->
      let hits, misses = Simurgh_vfs.Dcache.stats t.dcache in
      [
        ("dcache/hits", float_of_int hits);
        ("dcache/misses", float_of_int misses);
      ]);
  t

let name t = t.profile.Profile.name
let set_region t r = t.home_region <- r

let now ?ctx t =
  match ctx with
  | Some c -> int_of_float (Machine.now c)
  | None ->
      t.logical_time <- t.logical_time + 1;
      t.logical_time

(* --- charging ----------------------------------------------------------- *)

let cpu ?ctx cycles =
  match ctx with None -> () | Some c -> Machine.cpu c cycles

let read_lines ?ctx n =
  match ctx with None -> () | Some c -> Machine.nvmm_meta_read_lines c n

let write_lines ?ctx n =
  match ctx with None -> () | Some c -> Machine.nvmm_write_lines c n

let syscall ?ctx t =
  (* route this operation's NVMM charges to the instance's home region *)
  (match ctx with
  | Some c -> c.Machine.thr.Sthread.cur_region <- t.home_region
  | None -> ());
  let cm =
    match ctx with Some c -> Machine.cm c | None -> Cost_model.default
  in
  cpu ?ctx
    (cm.Cost_model.syscall_cycles +. cm.Cost_model.vfs_dispatch_cycles
   +. 60.0 (* libc wrapper *))

let with_mutex ?ctx m f =
  match ctx with
  | None -> f ()
  | Some c ->
      Vlock.Mutex.acquire c m;
      let r = f () in
      Vlock.Mutex.release c m;
      r

let with_spin ?ctx l f =
  match ctx with
  | None -> f ()
  | Some c ->
      Vlock.Spin.acquire c l;
      let r = f () in
      Vlock.Spin.release c l;
      r

(* Journal charge around a metadata mutation. *)
let journal_op ?ctx t f =
  match t.profile.Profile.journal with
  | Profile.Undo_log { writes_per_op } ->
      (* PMFS: global fine-grained log; short critical section to grab
         log entries, then the undo writes *)
      with_spin ?ctx t.journal_lock (fun () -> cpu ?ctx 150.0);
      write_lines ?ctx writes_per_op;
      f ()
  | Profile.Per_inode_log { writes_per_op } ->
      (* NOVA: no global lock; append to the inode's own log *)
      write_lines ?ctx writes_per_op;
      f ()
  | Profile.Jbd2 { handle_cycles; writes_per_op } ->
      (* EXT4: start/stop a handle against the shared transaction *)
      with_spin ?ctx t.journal_lock (fun () -> cpu ?ctx handle_cycles);
      write_lines ?ctx writes_per_op;
      f ()

(* Allocate [n] blocks; the per-design cost function runs under the
   global allocator lock for serial allocators. *)
let alloc_blocks ?ctx t n =
  let work = t.profile.Profile.alloc_cost ~blocks:(max 1 n) in
  match t.profile.Profile.allocator with
  | Profile.Serial -> with_spin ?ctx t.alloc_lock (fun () -> cpu ?ctx work)
  | Profile.Per_cpu -> cpu ?ctx work

(* --- path resolution ------------------------------------------------------ *)

let lookup_child ?ctx t parent comp =
  match Simurgh_vfs.Dcache.lookup ?ctx t.dcache ~parent:parent.ino comp with
  | Some n -> Some n
  | None -> (
      match Hashtbl.find_opt parent.children comp with
      | Some n ->
          (* concrete-FS lookup; cost depends on the design *)
          read_lines ?ctx
            (t.profile.Profile.lookup_reads (Hashtbl.length parent.children));
          Simurgh_vfs.Dcache.insert ?ctx t.dcache ~parent:parent.ino comp n;
          Some n
      | None ->
          read_lines ?ctx
            (t.profile.Profile.lookup_reads (Hashtbl.length parent.children));
          None)

(* the Linux VFS follows up to 40 chained symlinks before ELOOP; the
   kernel baselines share that limit with Simurgh's resolver *)
let max_symlink_depth = 40

let rec resolve_parent ?ctx ?(depth = 0) t path =
  if depth > max_symlink_depth then Errno.raise_ ELOOP path;
  walk_parent ?ctx ~depth t path (Path.split_parent path)

and walk_parent ?ctx ~depth t path (parents, final) =
  let rec walk stack node = function
    | [] -> (node, final)
    | ".." :: rest -> (
        match stack with
        | p :: up -> walk up p rest
        | [] -> walk [] node rest)
    | comp :: rest -> (
        match lookup_child ?ctx t node comp with
        | None -> Errno.raise_ ENOENT path
        | Some n -> (
            match n.kind with
            | Types.Dir -> walk (node :: stack) n rest
            | Types.Symlink ->
                resolve_parent ?ctx ~depth:(depth + 1) t
                  (n.symlink_target ^ "/"
                  ^ String.concat "/" (rest @ [ final ]))
            | Types.File -> Errno.raise_ ENOTDIR path))
  in
  walk [] t.root parents

let rec resolve ?ctx ?(follow = true) ?(depth = 0) t path =
  if depth > max_symlink_depth then Errno.raise_ ELOOP path;
  match Path.parse path with
  | None -> t.root
  | Some pf -> (
      let parent, final = walk_parent ?ctx ~depth:0 t path pf in
      match lookup_child ?ctx t parent final with
      | None -> Errno.raise_ ENOENT path
      | Some n ->
          if follow && n.kind = Types.Symlink then
            resolve ?ctx ~follow ~depth:(depth + 1) t n.symlink_target
          else n)

(* --- metadata operations --------------------------------------------------- *)

let do_create ?ctx t kind perm path ~target =
  let parent, final = resolve_parent ?ctx t path in
  with_mutex ?ctx parent.dir_mutex (fun () ->
      if Hashtbl.mem parent.children final then Errno.raise_ EEXIST path;
      let n =
        match target with
        | Some n ->
            n.nlink <- n.nlink + 1;
            n
        | None -> fresh_node t kind perm
      in
      (* inode allocation, dentry instantiation, security/quota hooks:
         all performed under the parent's inode mutex *)
      cpu ?ctx t.profile.Profile.create_cycles;
      journal_op ?ctx t (fun () ->
          Hashtbl.replace parent.children final n;
          write_lines ?ctx t.profile.Profile.create_writes);
      n.mtime <- now ?ctx t;
      Simurgh_vfs.Dcache.insert ?ctx t.dcache ~parent:parent.ino final n;
      n)

let create_file ?ctx t ?(perm = 0o644) path =
  syscall ?ctx t;
  ignore (do_create ?ctx t Types.File perm path ~target:None)

let mkdir ?ctx t ?(perm = 0o755) path =
  syscall ?ctx t;
  ignore (do_create ?ctx t Types.Dir perm path ~target:None)

let symlink ?ctx t ~target path =
  syscall ?ctx t;
  let n = do_create ?ctx t Types.Symlink 0o777 path ~target:None in
  n.symlink_target <- target;
  n.size <- String.length target

let hardlink ?ctx t ~existing path =
  syscall ?ctx t;
  let n = resolve ?ctx t existing in
  if n.kind = Types.Dir then Errno.raise_ EISDIR existing;
  ignore (do_create ?ctx t n.kind n.perm path ~target:(Some n))

let do_remove ?ctx t ~must_be_dir path =
  let parent, final = resolve_parent ?ctx t path in
  with_mutex ?ctx parent.dir_mutex (fun () ->
      match Hashtbl.find_opt parent.children final with
      | None -> Errno.raise_ ENOENT path
      | Some n ->
          (match (must_be_dir, n.kind) with
          | true, Types.Dir ->
              if Hashtbl.length n.children > 0 then
                Errno.raise_ ENOTEMPTY path
          | true, _ -> Errno.raise_ ENOTDIR path
          | false, Types.Dir -> Errno.raise_ EISDIR path
          | false, _ -> ());
          (* dentry-cache update cost on every unlink (paper Section 5.2:
             "constant updates to the dentry cache lead to the poor
             performance of kernel level file systems") *)
          cpu ?ctx t.profile.Profile.unlink_cycles;
          (* the design-specific directory search to find the dentry *)
          read_lines ?ctx
            (t.profile.Profile.lookup_reads (Hashtbl.length parent.children));
          journal_op ?ctx t (fun () ->
              Hashtbl.remove parent.children final;
              write_lines ?ctx t.profile.Profile.unlink_writes);
          Simurgh_vfs.Dcache.remove ?ctx t.dcache ~parent:parent.ino final;
          n.nlink <- n.nlink - 1;
          if n.nlink <= 0 && n.kind = Types.File then begin
            (* free blocks back to the allocator (empty files have none) *)
            if n.size > 0 then alloc_blocks ?ctx t (1 + (n.size / 4096));
            n.data <- Bytes.create 0;
            n.size <- 0
          end)

let unlink ?ctx t path =
  syscall ?ctx t;
  do_remove ?ctx t ~must_be_dir:false path

let rmdir ?ctx t path =
  syscall ?ctx t;
  do_remove ?ctx t ~must_be_dir:true path

(* POSIX ancestry check (the VFS's lock_rename ancestor walk): renaming
   a directory into its own subtree must fail EINVAL. *)
let rec in_subtree root node =
  root == node
  || Hashtbl.fold
       (fun _ child acc ->
         acc || (child.kind = Types.Dir && in_subtree child node))
       root.children false

let rename ?ctx t old_path new_path =
  syscall ?ctx t;
  let sp, sn = resolve_parent ?ctx t old_path in
  let dp, dn = resolve_parent ?ctx t new_path in
  if sp.ino = dp.ino && String.equal sn dn then begin
    (* POSIX: renaming a name to itself succeeds and changes nothing *)
    if not (Hashtbl.mem sp.children sn) then Errno.raise_ ENOENT old_path
  end
  else begin
  (match Hashtbl.find_opt sp.children sn with
  | Some n when n.kind = Types.Dir && in_subtree n dp ->
      Errno.raise_ EINVAL new_path
  | _ -> ());
  let body () =
    match Hashtbl.find_opt sp.children sn with
    | None -> Errno.raise_ ENOENT old_path
    | Some n ->
        (match Hashtbl.find_opt dp.children dn with
        | Some existing -> (
            (* kind agreement between source and existing destination *)
            match (n.kind, existing.kind) with
            | Types.Dir, Types.Dir ->
                if Hashtbl.length existing.children > 0 then
                  Errno.raise_ ENOTEMPTY new_path
            | Types.Dir, _ -> Errno.raise_ ENOTDIR new_path
            | _, Types.Dir -> Errno.raise_ EISDIR new_path
            | _, _ -> ())
        | None -> ());
        cpu ?ctx t.profile.Profile.rename_cycles;
        journal_op ?ctx t (fun () ->
            Hashtbl.remove sp.children sn;
            Hashtbl.replace dp.children dn n;
            write_lines ?ctx t.profile.Profile.rename_writes);
        Simurgh_vfs.Dcache.remove ?ctx t.dcache ~parent:sp.ino sn;
        Simurgh_vfs.Dcache.insert ?ctx t.dcache ~parent:dp.ino dn n;
        n.mtime <- now ?ctx t
  in
  if sp.ino = dp.ino then with_mutex ?ctx sp.dir_mutex body
  else
    (* cross-directory: the VFS takes s_vfs_rename_mutex plus both
       parents' mutexes in address order *)
    with_mutex ?ctx t.rename_mutex (fun () ->
        let a, b = if sp.ino < dp.ino then (sp, dp) else (dp, sp) in
        with_mutex ?ctx a.dir_mutex (fun () ->
            with_mutex ?ctx b.dir_mutex body))
  end

let stat_of_node (n : node) =
  {
    Types.kind = n.kind;
    perm = n.perm;
    uid = n.uid;
    gid = n.gid;
    nlink = n.nlink;
    size = n.size;
    mtime = n.mtime;
    ino = n.ino;
  }

let stat ?ctx t path =
  syscall ?ctx t;
  let n = resolve ?ctx t path in
  read_lines ?ctx 1;
  cpu ?ctx 120.0 (* copy struct stat to user space *);
  stat_of_node n

let exists ?ctx t path =
  syscall ?ctx t;
  match resolve ?ctx t path with
  | _ -> true
  | exception Errno.Err ((ENOENT | ENOTDIR), _) -> false

let readdir ?ctx t path =
  syscall ?ctx t;
  let n = resolve ?ctx t path in
  if n.kind <> Types.Dir then Errno.raise_ ENOTDIR path;
  read_lines ?ctx (1 + (Hashtbl.length n.children / 16));
  Hashtbl.fold (fun name _ acc -> name :: acc) n.children []

let readlink ?ctx t path =
  syscall ?ctx t;
  let n = resolve ?ctx ~follow:false t path in
  if n.kind <> Types.Symlink then Errno.raise_ EINVAL path;
  n.symlink_target

(* --- data operations --------------------------------------------------------- *)

let openf ?ctx t (flags : Types.open_flags) path =
  syscall ?ctx t;
  let n =
    match resolve ?ctx t path with
    | n ->
        if flags.Types.excl && flags.Types.create then Errno.raise_ EEXIST path;
        n
    | exception Errno.Err (ENOENT, _) when flags.Types.create ->
        do_create ?ctx t Types.File 0o644 path ~target:None
    | exception e -> raise e
  in
  if n.kind = Types.Dir then Errno.raise_ EISDIR path;
  if flags.Types.trunc then begin
    n.data <- Bytes.create 0;
    n.size <- 0
  end;
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Hashtbl.replace t.fds fd { node = n; pos = 0; flags };
  fd

let close ?ctx t fd =
  syscall ?ctx t;
  if not (Hashtbl.mem t.fds fd) then Errno.raise_ EBADF (string_of_int fd);
  Hashtbl.remove t.fds fd

let fd_entry t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some e -> e
  | None -> Errno.raise_ EBADF (string_of_int fd)

(* Charge the data-path entry: a syscall for kernel FSes, a plain user
   space call for SplitFS. *)
let data_entry ?ctx t =
  if t.profile.Profile.data_syscall then syscall ?ctx t
  else begin
    (match ctx with
    | Some c -> c.Machine.thr.Sthread.cur_region <- t.home_region
    | None -> ());
    cpu ?ctx 300.0 (* LD_PRELOAD interception + staging-map lookup *)
  end

let ensure_data_capacity n cap =
  if Bytes.length n.data < cap then begin
    let bigger = Bytes.create (max cap (2 * max 64 (Bytes.length n.data))) in
    Bytes.blit n.data 0 bigger 0 n.size;
    n.data <- bigger
  end

(* Copy [src] into the node's buffer at [pos]: a single blit straight
   from the caller's buffer (no intermediate [Bytes.sub]), shared by the
   journaled write path and the SplitFS staged-append path. *)
let blit_into n ~pos src =
  let len = Bytes.length src in
  ensure_data_capacity n (pos + len);
  Bytes.blit src 0 n.data pos len;
  if pos + len > n.size then n.size <- pos + len;
  len

let charge_read ?ctx t len =
  match ctx with
  | None -> ()
  | Some c ->
      Machine.nvmm_read c len;
      Machine.memcpy_cpu c len;
      ignore t

let charge_write ?ctx t len =
  match ctx with
  | None -> ()
  | Some c ->
      Machine.nvmm_write c len;
      Machine.memcpy_cpu c len;
      ignore t

let with_read_sem ?ctx n f =
  match ctx with
  | None -> f ()
  | Some c -> Vlock.Rw.with_read c n.rwsem f

let with_write_sem ?ctx n f =
  match ctx with
  | None -> f ()
  | Some c -> Vlock.Rw.with_write c n.rwsem f

let pread ?ctx t fd ~pos ~len =
  data_entry ?ctx t;
  if pos < 0 then Errno.raise_ EINVAL (Printf.sprintf "pread pos %d" pos);
  if len < 0 then Errno.raise_ EINVAL (Printf.sprintf "pread len %d" len);
  if pos > max_int - len then
    Errno.raise_ EINVAL (Printf.sprintf "pread pos %d + len %d overflow" pos len);
  let e = fd_entry t fd in
  if not e.flags.Types.read then Errno.raise_ EBADF "write-only fd";
  let n = e.node in
  with_read_sem ?ctx n (fun () ->
      let len = max 0 (min len (n.size - pos)) in
      charge_read ?ctx t len;
      if len = 0 then Bytes.empty
      else begin
        (* exact-size result filled in place: one copy, no resize *)
        let out = Bytes.create len in
        Bytes.blit n.data pos out 0 len;
        out
      end)

let do_write ?ctx t n ~pos src =
  let len = Bytes.length src in
  let new_blocks =
    max 0 (((pos + len + 4095) / 4096) - ((n.size + 4095) / 4096))
  in
  if new_blocks > 0 then alloc_blocks ?ctx t new_blocks;
  let len = blit_into n ~pos src in
  charge_write ?ctx t len;
  write_lines ?ctx t.profile.Profile.append_meta_writes;
  n.mtime <- now ?ctx t;
  len

let pwrite ?ctx t fd ~pos src =
  data_entry ?ctx t;
  if pos < 0 then Errno.raise_ EINVAL (Printf.sprintf "pwrite pos %d" pos);
  if pos > max_int - Bytes.length src then
    Errno.raise_ EINVAL (Printf.sprintf "pwrite pos %d + len overflow" pos);
  let e = fd_entry t fd in
  if not e.flags.Types.write then Errno.raise_ EBADF "read-only fd";
  with_write_sem ?ctx e.node (fun () ->
      (* in-place overwrites skip allocation; extension allocates *)
      journal_op ?ctx t (fun () -> ());
      do_write ?ctx t e.node ~pos src)

let append ?ctx t fd src =
  data_entry ?ctx t;
  let e = fd_entry t fd in
  if not e.flags.Types.write then Errno.raise_ EBADF "read-only fd";
  let n = e.node in
  with_write_sem ?ctx n (fun () ->
      if t.profile.Profile.staged_appends > 0 then begin
        (* SplitFS: append into a pre-allocated mmap'ed staging region —
           no journal, no per-append allocation; one relink syscall (and
           the staging-region allocation) every N appends *)
        n.staged <- n.staged + 1;
        if n.staged >= t.profile.Profile.staged_appends then begin
          n.staged <- 0;
          syscall ?ctx t;
          cpu ?ctx t.profile.Profile.fsync_cycles;
          alloc_blocks ?ctx t t.profile.Profile.staged_appends
        end;
        let len = blit_into n ~pos:n.size src in
        charge_write ?ctx t len;
        write_lines ?ctx t.profile.Profile.append_meta_writes;
        e.pos <- n.size;
        len
      end
      else begin
        journal_op ?ctx t (fun () -> ());
        let r = do_write ?ctx t n ~pos:n.size src in
        e.pos <- n.size;
        r
      end)

let fallocate ?ctx t fd ~len =
  syscall ?ctx t;
  let e = fd_entry t fd in
  if not e.flags.Types.write then Errno.raise_ EBADF "read-only fd";
  let n = e.node in
  with_write_sem ?ctx n (fun () ->
      let new_blocks = max 0 (((len + 4095) / 4096) - ((n.size + 4095) / 4096)) in
      if new_blocks > 0 then begin
        journal_op ?ctx t (fun () -> ());
        alloc_blocks ?ctx t new_blocks;
        write_lines ?ctx t.profile.Profile.append_meta_writes;
        ensure_data_capacity n len;
        if len > n.size then n.size <- len
      end)

let fsync ?ctx t fd =
  (if t.profile.Profile.data_syscall then syscall ?ctx t else cpu ?ctx 300.0);
  let e = fd_entry t fd in
  ignore e;
  cpu ?ctx t.profile.Profile.fsync_cycles

let truncate ?ctx t path len =
  syscall ?ctx t;
  let n = resolve ?ctx t path in
  if n.kind = Types.Dir then Errno.raise_ EISDIR path;
  with_write_sem ?ctx n (fun () ->
      journal_op ?ctx t (fun () -> ());
      if len < n.size then n.size <- len
      else begin
        ensure_data_capacity n len;
        n.size <- len
      end)

let chmod ?ctx t path perm =
  syscall ?ctx t;
  let n = resolve ?ctx t path in
  journal_op ?ctx t (fun () -> n.perm <- perm land 0o777)

let utimes ?ctx t path mtime =
  syscall ?ctx t;
  let n = resolve ?ctx t path in
  journal_op ?ctx t (fun () -> n.mtime <- mtime)

let dcache_stats t = Simurgh_vfs.Dcache.stats t.dcache

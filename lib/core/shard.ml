(** Sharded multi-region namespace (the NUMA substrate's top layer).

    A [Shard.t] stitches N independently formatted Simurgh regions into
    one tree: the top-level component of every path picks the home
    region via {!Name_hash.home}, and the whole subtree under that
    component — directory blocks, file entries, inodes and data — lives
    on that region.  Each region keeps its own allocators, rename logs
    and recovery, so crash consistency stays a strictly per-region
    property and recovery after a failure is [Recovery.run] per region
    with no cross-region reasoning.

    The root directory is virtual: every shard holds its own root, and
    [readdir "/"] merges them (top-level names are disjoint across
    shards because the hash routes each name to exactly one region).

    Cross-region operations follow the block-device precedent:
    [rename] of a {e directory} across regions fails with [EXDEV]
    (moving a subtree between crash domains cannot be made atomic), a
    cross-region file rename degrades to copy + unlink where each step
    is crash-consistent on its own region, and [hardlink] across
    regions is [EXDEV] (a link cannot span devices).

    Every forwarded operation lands in the shard's [Fs.t], whose entry
    charge pins the calling thread's NVMM traffic to the shard's
    region, so the per-region bandwidth servers and the NUMA surcharge
    of {!Simurgh_sim.Machine} see the right target without any
    bookkeeping here. *)

open Simurgh_nvmm
open Simurgh_fs_common

type t = {
  shards : Fs.t array;
  regions : Region.t array;
}

type fd = { fd_region : int; fd_inner : Fs.fd }

let name = "Simurgh-sharded"
let shard_count t = Array.length t.shards
let fs_of t i = t.shards.(i)
let regions t = t.regions

(* first path component, or [None] for the root itself *)
let top_component path =
  let n = String.length path in
  let i = ref 0 in
  while !i < n && path.[!i] = '/' do incr i done;
  let j = ref !i in
  while !j < n && path.[!j] <> '/' do incr j done;
  if !i = !j then None else Some (String.sub path !i (!j - !i))

(** Home region of a path: the hash of its top-level component (the
    root itself lives on region 0). *)
let route t path =
  match top_component path with
  | None -> 0
  | Some c -> Name_hash.home c ~regions:(Array.length t.shards)

let shard_for t path = t.shards.(route t path)

(** Export each shard's allocator counters under a per-region prefix
    ([region0/alloc/...]) so a multi-region bench can tell how the
    block traffic spread.  Named registration: two live shards fighting
    over the same index is a bug and raises [Duplicate_source]. *)
let note_alloc_sources ~prefix t =
  Array.iteri
    (fun i fs ->
      let c = (Fs.layout fs).Layout.balloc.Simurgh_alloc.Block_alloc.c in
      let name = Printf.sprintf "%s%d/alloc" prefix i in
      Simurgh_obs.Collect.note_source ~name (fun () ->
          [
            (name ^ "/blocks_allocated", float_of_int c.blocks_allocated);
            (name ^ "/blocks_freed", float_of_int c.blocks_freed);
            (name ^ "/blocks_quarantined", float_of_int c.blocks_quarantined);
          ]))
    t.shards

(** Create and format an N-region namespace.  Fresh regions are named
    [<prefix>0 .. <prefix>N-1] (default prefix ["region"]) so their
    observability counters stay apart — a bench sweeping several region
    counts under one collector gives each sweep point its own prefix;
    each is formatted as shard [i] of [n] (recorded in its superblock,
    so [mount] can sanity-check the set).  When a [machine] is given,
    its per-region bandwidth servers are grown to match.  [~obs:false]
    creates unnamed regions and registers no named sources — for
    callers (like the crash explorer) that create and re-attach many
    short-lived shard sets under one collector, where exclusive named
    registration would (correctly) refuse the second set. *)
let mkfs ?mode ?machine ?(obs = true) ?(prefix = "region") ?cores ?segments
    ?call_mode ?relaxed_writes ?coarse_dir_locks ?scaled ?range_locks
    ?log_ring ?euid ?egid ~regions:n size =
  if n < 1 then invalid_arg "Shard.mkfs: need at least one region";
  (match machine with
  | Some m -> Simurgh_sim.Machine.set_regions m n
  | None -> ());
  let regions =
    Array.init n (fun i ->
        if obs then
          Region.create ?mode ~name:(Printf.sprintf "%s%d" prefix i) size
        else Region.create ?mode size)
  in
  let shards =
    Array.mapi
      (fun i region ->
        Fs.mkfs ?cores ?segments ?call_mode ?relaxed_writes ?coarse_dir_locks
          ?scaled ?range_locks ?log_ring ~shard:(i, n) ?euid ?egid region)
      regions
  in
  let t = { shards; regions } in
  if obs then note_alloc_sources ~prefix t;
  t

(** Re-attach to an already-formatted region set (after recovery the
    caller runs {!Recovery.run_all} first, exactly as with a single
    region).  Each region's superblock must agree on the set size and
    carry its own index.  [~obs:false] skips the named alloc-source
    registration (see {!mkfs}). *)
let mount ?machine ?(obs = true) ?(prefix = "region") ?call_mode ?euid ?egid
    regions =
  let n = Array.length regions in
  if n < 1 then invalid_arg "Shard.mount: need at least one region";
  (match machine with
  | Some m -> Simurgh_sim.Machine.set_regions m n
  | None -> ());
  let shards =
    Array.mapi
      (fun i region ->
        let fs = Fs.mount ?call_mode ?euid ?egid region in
        let l = Fs.layout fs in
        if l.Layout.regions <> n || l.Layout.shard_index <> i then
          invalid_arg
            (Printf.sprintf
               "Shard.mount: region %d claims shard %d/%d, expected %d/%d" i
               l.Layout.shard_index l.Layout.regions i n);
        fs)
      regions
  in
  let t = { shards; regions } in
  if obs then note_alloc_sources ~prefix t;
  t

let unmount t = Array.iter Fs.unmount t.shards

(* --- namespace operations ------------------------------------------------ *)

let create_file ?ctx t ?perm path =
  Fs.create_file ?ctx (shard_for t path) ?perm path

let mkdir ?ctx t ?perm path = Fs.mkdir ?ctx (shard_for t path) ?perm path
let unlink ?ctx t path = Fs.unlink ?ctx (shard_for t path) path
let rmdir ?ctx t path = Fs.rmdir ?ctx (shard_for t path) path
let stat ?ctx t path = Fs.stat ?ctx (shard_for t path) path
let exists ?ctx t path = Fs.exists ?ctx (shard_for t path) path
let chmod ?ctx t path perm = Fs.chmod ?ctx (shard_for t path) path perm
let utimes ?ctx t path mtime = Fs.utimes ?ctx (shard_for t path) path mtime
let truncate ?ctx t path len = Fs.truncate ?ctx (shard_for t path) path len
let symlink ?ctx t ~target path = Fs.symlink ?ctx (shard_for t path) ~target path
let readlink ?ctx t path = Fs.readlink ?ctx (shard_for t path) path

let hardlink ?ctx t ~existing path =
  let rs = route t existing and rd = route t path in
  if rs <> rd then Errno.raise_ EXDEV path;
  Fs.hardlink ?ctx t.shards.(rd) ~existing path

let readdir ?ctx t path =
  match top_component path with
  | Some _ -> Fs.readdir ?ctx (shard_for t path) path
  | None ->
      (* virtual root: the union of every shard's root listing (names
         are disjoint across shards — the hash sends each top-level
         name to exactly one region) *)
      List.sort String.compare
        (List.concat_map
           (fun fs -> Fs.readdir ?ctx fs path)
           (Array.to_list t.shards))

(* cross-region file rename: copy then unlink.  Not atomic across the
   two regions — a crash can leave both names live (never neither, the
   source is unlinked last) — but every individual step is
   crash-consistent on its own region, which is the strongest guarantee
   a two-crash-domain move can offer (same contract as mv(1) across
   mount points). *)
let copy_chunk = 64 * 1024

let copy_rename ?ctx t ~src_region ~dst_region old_path new_path =
  let fs_s = t.shards.(src_region) and fs_d = t.shards.(dst_region) in
  (* probe with readlink first: [Fs.stat] follows symlinks, and a
     symlink moves between regions by re-creation, not content copy *)
  match Fs.readlink ?ctx fs_s old_path with
  | target ->
      if Fs.exists ?ctx fs_d new_path then Fs.unlink ?ctx fs_d new_path;
      Fs.symlink ?ctx fs_d ~target new_path;
      Fs.unlink ?ctx fs_s old_path
  | exception Errno.Err (EINVAL, _) -> (
      let st = Fs.stat ?ctx fs_s old_path in
      match st.Types.kind with
      | Types.Dir | Types.Symlink ->
          (* a directory cannot move between crash domains atomically *)
          Errno.raise_ EXDEV old_path
      | Types.File ->
      let sfd = Fs.openf ?ctx fs_s Types.rdonly old_path in
      Fun.protect
        ~finally:(fun () -> Fs.close ?ctx fs_s sfd)
        (fun () ->
          let flags = { (Types.creat Types.rdwr) with Types.trunc = true } in
          let dfd = Fs.openf ?ctx fs_d flags new_path in
          Fun.protect
            ~finally:(fun () -> Fs.close ?ctx fs_d dfd)
            (fun () ->
              let pos = ref 0 in
              let continue = ref true in
              while !continue do
                let chunk =
                  Fs.pread ?ctx fs_s sfd ~pos:!pos ~len:copy_chunk
                in
                if Bytes.length chunk = 0 then continue := false
                else begin
                  ignore (Fs.pwrite ?ctx fs_d dfd ~pos:!pos chunk);
                  pos := !pos + Bytes.length chunk
                end
              done;
              Fs.fsync ?ctx fs_d dfd));
          Fs.chmod ?ctx fs_d new_path st.Types.perm;
          Fs.unlink ?ctx fs_s old_path)

let rename ?ctx t old_path new_path =
  let rs = route t old_path and rd = route t new_path in
  if rs = rd then Fs.rename ?ctx t.shards.(rs) old_path new_path
  else copy_rename ?ctx t ~src_region:rs ~dst_region:rd old_path new_path

(* --- file descriptors ----------------------------------------------------- *)

let openf ?ctx t flags path =
  let r = route t path in
  { fd_region = r; fd_inner = Fs.openf ?ctx t.shards.(r) flags path }

let close ?ctx t fd = Fs.close ?ctx t.shards.(fd.fd_region) fd.fd_inner

let pread ?ctx t fd ~pos ~len =
  Fs.pread ?ctx t.shards.(fd.fd_region) fd.fd_inner ~pos ~len

let pwrite ?ctx t fd ~pos src =
  Fs.pwrite ?ctx t.shards.(fd.fd_region) fd.fd_inner ~pos src

let append ?ctx t fd src = Fs.append ?ctx t.shards.(fd.fd_region) fd.fd_inner src

let fallocate ?ctx t fd ~len =
  Fs.fallocate ?ctx t.shards.(fd.fd_region) fd.fd_inner ~len

let fsync ?ctx t fd = Fs.fsync ?ctx t.shards.(fd.fd_region) fd.fd_inner

(* --- whole-namespace statfs ----------------------------------------------- *)

(** Aggregate [Fs.statfs] over every region; the per-region partition
    invariant (free + used + quarantined = capacity) survives the sum. *)
let statfs ?ctx t =
  let z =
    {
      Fs.block_size = Fs.block_size t.shards.(0);
      total_blocks = 0;
      free_blocks = 0;
      used_blocks = 0;
      quarantined_blocks = 0;
      live_inodes = 0;
      live_fentries = 0;
    }
  in
  Array.fold_left
    (fun acc fs ->
      let s = Fs.statfs ?ctx fs in
      {
        acc with
        Fs.total_blocks = acc.Fs.total_blocks + s.Fs.total_blocks;
        free_blocks = acc.Fs.free_blocks + s.Fs.free_blocks;
        used_blocks = acc.Fs.used_blocks + s.Fs.used_blocks;
        quarantined_blocks =
          acc.Fs.quarantined_blocks + s.Fs.quarantined_blocks;
        live_inodes = acc.Fs.live_inodes + s.Fs.live_inodes;
        live_fentries = acc.Fs.live_fentries + s.Fs.live_fentries;
      })
    z t.shards

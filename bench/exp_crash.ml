(** Run id [crash]: the fault plane — adversarial crash images, media
    faults and the fsck-style checker.

    Three parts, mirroring the robustness toolchain:

    + {b explore}: crash-image exploration of every machine of the
      shared table {!Simurgh_core.Explore.machines}: the four Fig. 5
      state machines (create / unlink / same-dir rename / cross-dir
      rename), the mutating ones also scaled (resolve cache +
      allocator caches + posted log writes), the renames on log-ring media, the
      byte-range append/extend and the cross-region shard machines.
      At every NVMM store and every labeled persist point the eviction
      adversary enumerates subsets of the unpersisted cache lines
      (exhaustive up to 10 pending lines, seeded samples beyond); every
      image is recovered ({!Simurgh_core.Recovery.run_all}), must pass
      the offline checker ({!Simurgh_core.Check.run_all}) and the
      machine's atomicity oracle.  Recovery itself is then crashed and
      re-entered ({!Simurgh_core.Explore.run_reentrant}).  Any violating
      or failing image makes the run exit 1.
    + {b media}: a poisoned data line surfaces as an [EIO] error return
      with the process still alive; poisoned metadata is quarantined by
      recovery with the rest of the namespace intact.
    + {b fsck}: the checker validates the final image; its violation
      count (must be 0) is exported.

    With [--json] the run exports the fault-plane counters to
    [BENCH_crash.json]: [faults/crash_points], [faults/images_explored],
    [faults/explorer_failures], [faults/quarantined],
    [faults/checker_violations], plus the region- and fs-level
    [faults/poisoned_lines], [faults/media_errors], [faults/crash_images]
    and [faults/eio_returns] sources and the [recovery/*] totals of
    every recovery run. *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs
module Recovery = Simurgh_core.Recovery
module Check = Simurgh_core.Check
module Explore = Simurgh_core.Explore
module Fentry = Simurgh_core.Fentry
module Dirblock = Simurgh_core.Dirblock
module Inode = Simurgh_core.Inode
module Region = Simurgh_nvmm.Region
module Slab = Simurgh_alloc.Slab_alloc
module Obs = Simurgh_obs

exception Crash_now

(* Media plane: EIO containment on a poisoned data line, then metadata
   quarantine.  Returns (eio_returns_seen, quarantined, violations). *)
let media_plane () =
  let region = Region.create (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/d";
  Fs.create_file fs "/d/data";
  let fd = Fs.openf fs Types.rdwr "/d/data" in
  ignore (Fs.append fs fd (Bytes.make 4096 'x'));
  let addr = ref 0 in
  let _, fe = Fs.resolve fs "/d/data" in
  (try
     Inode.iter_extents region (Fentry.target region fe) (fun a _ ->
         addr := a;
         raise Exit)
   with Exit -> ());
  Region.poison region !addr 1;
  let eio = ref 0 in
  (try ignore (Fs.pread fs fd ~pos:0 ~len:4096)
   with Errno.Err (EIO, _) -> incr eio);
  (try ignore (Fs.pwrite fs fd ~pos:0 (Bytes.make 64 'y'))
   with Errno.Err (EIO, _) -> incr eio);
  Fs.close fs fd;
  (* the process is still alive: more namespace work succeeds *)
  Fs.create_file fs "/d/alive";
  Fs.unlink fs "/d/alive";
  (* now poison a metadata line (a file entry's slab slot) and recover *)
  Fs.create_file fs "/d/victim";
  let _, vfe = Fs.resolve fs "/d/victim" in
  Region.poison region (vfe - Slab.obj_header) 1;
  let _fs', report = Recovery.mount_after_crash ~euid:0 region in
  (!eio, report.Recovery.quarantined, Check.run region)

let run ~scale =
  Util.header
    "crash: adversarial crash images, media faults, fsck-style checker";
  let samples = max 8 (Util.scaled ~scale 32) in
  let machines = List.map (Explore.run_machine ~samples) Explore.machines in
  (* crash-during-recovery: crash the op, then crash RECOVERY at its
     own store points and labeled hooks, re-enter on every eviction
     subset — each image must reach a media fixpoint (idempotence: 2
     passes) and end checker-clean *)
  let reentries =
    List.map Explore.run_reentrant
      [
        Explore.scenario "reenter-rename"
          ~setup:(fun fs ->
            Fs.mkdir fs "/d1";
            Fs.mkdir fs "/d2";
            Fs.create_file fs "/d1/a")
          (Explore.seq (fun fs -> Fs.rename fs "/d1/a" "/d2/b"));
        Explore.scenario "reenter-create"
          ~setup:(fun fs -> Fs.mkdir fs "/d")
          (Explore.seq (fun fs ->
               Fs.create_file fs "/d/f";
               Fs.create_file fs "/d/g"));
      ]
  in
  let explored = machines @ reentries in
  List.iter Util.print_explored explored;
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 in
  let failures = sum (fun st -> List.length st.Explore.failures) explored in
  let media_eio, media_quarantined, media_viols = media_plane () in
  let violations = failures + List.length media_viols in
  Printf.printf
    "  media plane: %d EIO returns (process alive), %d entries \
     quarantined, post-recovery checker violations %d\n"
    media_eio media_quarantined
    (List.length media_viols);
  let points = sum (fun st -> st.Explore.points) machines
  and images = sum (fun st -> st.Explore.runs) machines in
  Obs.Collect.add
    (List.map
       (fun (k, v) -> (k, float_of_int v))
       [
         ("faults/crash_points", points);
         ("faults/images_explored", images);
         ("faults/explorer_failures", failures);
         ("faults/quarantined", media_quarantined);
         ("faults/checker_violations", violations);
         ( "faults/recovery_crash_points",
           sum (fun st -> st.Explore.points) reentries );
         ( "faults/recovery_reentry_images",
           sum (fun st -> st.Explore.runs) reentries );
         ( "faults/recovery_fixpoint_passes",
           List.fold_left (fun m st -> max m st.Explore.max_passes) 0 reentries
         );
       ]);
  Printf.printf
    "  total: %d crash points, %d images explored, %d checker \
     violations%s\n"
    points images violations
    (if violations = 0 then " -- all images recover clean" else " (BUG)");
  (* a violating image fails the run, so the smoke run in [make check]
     gates exploration the way [--check] and [--races] gate theirs *)
  if List.concat_map Util.explore_gate explored <> [] || media_viols <> []
  then exit 1

(** Standalone fsck self-check, used by [--check] / [make fsck]: the
    checker must pass a correctly recovered crash image AND flag a
    deliberately mis-recovered one (negative control, so a trivially
    empty checker cannot pass).  After the one-slot and 4-slot ring
    recoveries, the slabs' free caches recovery installed must also
    equal a fresh rebuild ({!Check.free_caches}); a mismatch is listed
    with the violations.  Damaged images are positive controls too: a
    row slot that links no file entry, a chain link and a directory
    entry's head past the region's end must each cost recovery one
    quarantine and leave the checker clean.  Two positive
    controls cover the block free lists, which live in shared DRAM:
    fsck of a live mount after
    allocation churn (it must read the live allocator, the media copy
    being stale) and fsck across a clean unmount and a mount (the media
    checkpoint, then the lists loaded from it).  Returns a process exit
    code. *)
let fsck () =
  let region = Region.create ~mode:Region.Strict (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/d";
  Fs.mkdir fs "/e";
  for i = 0 to 15 do
    Fs.create_file fs (Printf.sprintf "/d/f%d" i)
  done;
  Fs.create_file fs "/d/m";
  Fs.set_crash_hook fs (fun l ->
      if l = "xrename:dstslot" then raise Crash_now);
  (try Fs.rename fs "/d/m" "/e/m" with Crash_now -> Region.crash region);
  Region.clear_guard region;
  let _ = Recovery.run ~skip_log_resolution:true region in
  let negative = Check.run region in
  let layout, _ = Recovery.run region in
  let clean = Check.run region @ Check.free_caches layout in
  Printf.printf "fsck: negative control (broken recovery): %s\n"
    (if negative <> [] then
       Printf.sprintf "caught (%d violations)" (List.length negative)
     else "MISSED");
  Printf.printf "fsck: full recovery: %d violation(s)\n" (List.length clean);
  List.iter
    (fun v -> print_endline ("  " ^ Check.violation_to_string v))
    clean;
  (* the same gate on log-ring media: a crashed rename leaves a pending
     ring slot; full recovery must empty the ring *)
  let ring_region = Region.create ~mode:Region.Strict (32 * 1024 * 1024) in
  let rfs = Fs.mkfs ~euid:0 ~log_ring:4 ring_region in
  Fs.mkdir rfs "/d";
  Fs.create_file rfs "/d/m";
  Fs.set_crash_hook rfs (fun l -> if l = "rename:swap" then raise Crash_now);
  (try Fs.rename rfs "/d/m" "/d/n" with Crash_now -> Region.crash ring_region);
  Region.clear_guard ring_region;
  let ring_layout, _ = Recovery.run ring_region in
  let ring_clean = Check.run ring_region @ Check.free_caches ring_layout in
  Printf.printf "fsck: log-ring recovery: %d violation(s)\n"
    (List.length ring_clean);
  List.iter
    (fun v -> print_endline ("  " ^ Check.violation_to_string v))
    ring_clean;
  (* broken-merge negative control: drop the marks of every other
     committed directory record during a 2-worker recovery — the sweep
     then frees reachable objects, which the checker must flag (the
     merge step is guarded, not assumed); a full recovery converges the
     damage *)
  let par_region = Region.create ~mode:Region.Strict (32 * 1024 * 1024) in
  let pfs = Fs.mkfs ~euid:0 par_region in
  Fs.mkdir pfs "/d";
  for i = 0 to 15 do
    Fs.create_file pfs (Printf.sprintf "/d/f%d" i)
  done;
  Fs.create_file pfs "/loose";
  Region.persist_all par_region;
  Fs.invalidate_shared par_region;
  let machine = Simurgh_sim.Machine.create () in
  let _ =
    Recovery.run
      ~par:(Recovery.Vtime { machine; workers = 2 })
      ~drop_mark_shard:true par_region
  in
  let par_negative = Check.run par_region in
  Fs.invalidate_shared par_region;
  let _ = Recovery.run par_region in
  let par_clean = Check.run par_region in
  Printf.printf "fsck: negative control (broken parallel sweep): %s\n"
    (if par_negative <> [] then
       Printf.sprintf "caught (%d violations)" (List.length par_negative)
     else "MISSED");
  Printf.printf "fsck: recovery after broken sweep: %d violation(s)\n"
    (List.length par_clean);
  List.iter
    (fun v -> print_endline ("  " ^ Check.violation_to_string v))
    par_clean;
  (* a row slot holding an address inside a directory block, the
     head's ring word, instead of a file entry: recovery detaches it as
     it does an unreadable entry *)
  let slot_region = Region.create ~mode:Region.Strict (32 * 1024 * 1024) in
  let sfs = Fs.mkfs ~euid:0 slot_region in
  Fs.mkdir sfs "/d";
  for i = 0 to 15 do
    Fs.create_file sfs (Printf.sprintf "/d/f%d" i)
  done;
  let head = Fentry.dirblock slot_region (snd (Fs.resolve sfs "/d")) in
  let s =
    List.find
      (fun s -> Dirblock.slot slot_region head 0 s = 0)
      (List.init Dirblock.slots_per_row Fun.id)
  in
  Dirblock.set_slot slot_region head 0 s (Dirblock.f_ring head + 8);
  Region.persist_all slot_region;
  Fs.invalidate_shared slot_region;
  let _, slot_report = Recovery.run slot_region in
  let slot_clean = Check.run slot_region in
  Printf.printf
    "fsck: slot linking no file entry: %d quarantined, %d violation(s)\n"
    slot_report.Recovery.quarantined (List.length slot_clean);
  List.iter
    (fun v -> print_endline ("  " ^ Check.violation_to_string v))
    slot_clean;
  (* a chain link and a directory entry's head past the region's end:
     mark truncates the chain, or quarantines the entry *)
  let wild_clean =
    List.for_all
      (fun (what, head) ->
        let region = Region.create ~mode:Region.Strict (32 * 1024 * 1024) in
        let wfs = Fs.mkfs ~euid:0 region in
        Fs.mkdir wfs "/d";
        Fs.mkdir wfs "/d/sub";
        for i = 0 to 15 do
          Fs.create_file wfs (Printf.sprintf "/d/f%d" i)
        done;
        let past = Region.size region + 4096 in
        let _, fe = Fs.resolve wfs (if head then "/d/sub" else "/d") in
        if head then Fentry.set_dirblock region fe past
        else
          Region.write_u62 region
            (Dirblock.f_next (Fentry.dirblock region fe))
            past;
        Region.persist_all region;
        Fs.invalidate_shared region;
        let _, report = Recovery.run region in
        let viols = Check.run region in
        Printf.printf
          "fsck: %s past the region: %d quarantined, %d violation(s)\n" what
          report.Recovery.quarantined (List.length viols);
        List.iter
          (fun v -> print_endline ("  " ^ Check.violation_to_string v))
          viols;
        report.Recovery.quarantined = 1 && viols = [])
      [ ("chain link", false); ("directory head", true) ]
  in
  (* the free-list controls: churn allocates and frees blocks (data
     extents, directory blocks) long after the format's checkpoint *)
  let live_region = Region.create ~mode:Region.Strict (32 * 1024 * 1024) in
  let lfs = Fs.mkfs ~euid:0 live_region in
  for d = 0 to 5 do
    let dir = Printf.sprintf "/c%d" d in
    Fs.mkdir lfs dir;
    for i = 0 to 11 do
      let path = Printf.sprintf "%s/f%d" dir i in
      let fd = Fs.openf lfs (Types.creat Types.rdwr) path in
      ignore (Fs.append lfs fd (Bytes.make (1000 * (i + 1)) 'c'));
      Fs.close lfs fd;
      if i mod 3 = 0 then Fs.unlink lfs path
    done;
    if d mod 2 = 1 then Fs.mkdir lfs (dir ^ "/sub")
  done;
  Fs.rmdir lfs "/c1/sub";
  let live_clean = Check.run live_region in
  Printf.printf "fsck: live mount after alloc/free churn: %d violation(s)\n"
    (List.length live_clean);
  Fs.unmount lfs;
  let ckpt_clean = Check.run live_region in
  let lfs = Fs.mount ~euid:0 live_region in
  let remount_clean = ckpt_clean @ Check.run live_region in
  Fs.unmount lfs;
  Printf.printf "fsck: after unmount and mount: %d violation(s)\n"
    (List.length remount_clean);
  List.iter
    (fun v -> print_endline ("  " ^ Check.violation_to_string v))
    (live_clean @ remount_clean);
  if negative <> [] && clean = [] && ring_clean = [] && par_negative <> []
     && par_clean = [] && slot_report.Recovery.quarantined = 1
     && slot_clean = [] && wild_clean && live_clean = [] && remount_clean = []
  then 0
  else 1

(* Recovery tests beyond crash injection: mark-and-sweep garbage
   collection, block-allocator reconstruction, runtime per-directory
   repair, and full-tree preservation. *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs
module Recovery = Simurgh_core.Recovery
module Slab = Simurgh_alloc.Slab_alloc
module Layout = Simurgh_core.Layout
module Reach = Simurgh_core.Reach

let fresh_region () = Simurgh_nvmm.Region.create (64 * 1024 * 1024)

let populate fs =
  Fs.mkdir fs "/a";
  Fs.mkdir fs "/a/b";
  for i = 0 to 49 do
    Fs.create_file fs (Printf.sprintf "/a/f%d" i)
  done;
  Fs.create_file fs "/a/b/data";
  let fd = Fs.openf fs Types.wronly "/a/b/data" in
  ignore (Fs.append fs fd (Bytes.make 5000 'd'));
  Fs.close fs fd;
  Fs.symlink fs ~target:"/a/b/data" "/a/link";
  Fs.hardlink fs ~existing:"/a/b/data" "/a/hard"

let test_clean_tree_preserved () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  populate fs;
  let fs', report = Recovery.mount_after_crash ~euid:0 region in
  Alcotest.(check int) "files" 52 report.Recovery.files;
  Alcotest.(check int) "dirs" 2 report.Recovery.dirs;
  Alcotest.(check int) "symlinks" 1 report.Recovery.symlinks;
  Alcotest.(check int) "nothing reclaimed" 0
    (report.Recovery.reclaimed_inodes + report.Recovery.reclaimed_fentries);
  (* data survives *)
  let fd = Fs.openf fs' Types.rdonly "/a/b/data" in
  Alcotest.(check int) "data size" 5000
    (Bytes.length (Fs.pread fs' fd ~pos:0 ~len:10000));
  Fs.close fs' fd;
  Alcotest.(check string) "symlink target" "/a/b/data"
    (Fs.readlink fs' "/a/link")

let test_sweep_reclaims_garbage () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  populate fs;
  let layout = Fs.layout fs in
  (* simulate crash mid-create: allocated but never linked objects *)
  for _ = 1 to 7 do
    ignore (Slab.alloc layout.Layout.inode_slab)
  done;
  for _ = 1 to 5 do
    ignore (Slab.alloc layout.Layout.fentry_slab)
  done;
  let _, report = Recovery.run region in
  Alcotest.(check int) "inodes reclaimed" 7 report.Recovery.reclaimed_inodes;
  Alcotest.(check int) "fentries reclaimed" 5
    report.Recovery.reclaimed_fentries

let test_busy_flags_cleared () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  populate fs;
  (* a crashed holder left a busy row *)
  let region' = Fs.region fs in
  let root = Layout.root_fentry (Fs.layout fs) in
  let head = Simurgh_core.Fentry.dirblock region' root in
  Simurgh_core.Dirblock.set_busy region' head 3 true;
  let _, report = Recovery.run region in
  Alcotest.(check int) "busy cleared" 1 report.Recovery.cleared_busy_flags

let test_block_counts_consistent () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  populate fs;
  let balloc = (Fs.layout fs).Layout.balloc in
  let free_before = Simurgh_alloc.Block_alloc.free_blocks balloc in
  let _, report = Recovery.run region in
  Alcotest.(check int) "free count rebuilt identically" free_before
    report.Recovery.free_blocks;
  Alcotest.(check int) "used + free = total"
    (Simurgh_alloc.Block_alloc.total_blocks balloc)
    (report.Recovery.used_blocks + report.Recovery.free_blocks)

let test_fs_usable_after_recovery () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  populate fs;
  let fs', _ = Recovery.mount_after_crash ~euid:0 region in
  (* the recovered fs supports the full op set *)
  Fs.create_file fs' "/a/after";
  Fs.rename fs' "/a/after" "/a/b/after2";
  Fs.unlink fs' "/a/b/after2";
  Fs.mkdir fs' "/newdir";
  Fs.rmdir fs' "/newdir"

let test_repair_directory_runtime () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/d";
  Fs.create_file fs "/d/a";
  Fs.create_file fs "/d/b";
  (* simulate an interrupted delete: entry valid bit dropped but slot
     still points at it *)
  let layout = Fs.layout fs in
  let _, fe = Fs.resolve fs "/d/a" in
  Slab.begin_free layout.Layout.fentry_slab fe;
  let repaired = Recovery.repair_directory fs "/d" in
  Alcotest.(check bool) "repaired something" true (repaired >= 1);
  Alcotest.(check bool) "b intact" true (Fs.exists fs "/d/b");
  Alcotest.(check bool) "a gone (delete completed)" false (Fs.exists fs "/d/a")

exception Crash_now

(* A *process* crash (not a power failure) mid-rename: the region is
   intact, only the crashed process's progress is half-done, and the
   shared DRAM state outlives it (a process death does not wipe it).
   A second process joins that state and repairs just the affected
   directory with [Recovery.repair_directory] — no global scan — and
   the result passes the full offline checker. *)
let test_repair_directory_process_crash () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/d1";
  Fs.mkdir fs "/d2";
  Fs.create_file fs "/d1/a";
  Fs.create_file fs "/d2/c";
  Fs.set_crash_hook fs (fun l -> if l = "rename:swap" then raise Crash_now);
  (try Fs.rename fs "/d1/a" "/d1/b" with Crash_now -> ());
  (* a new process attaches and repairs only /d1 *)
  let fs' = Fs.mount ~euid:0 region in
  let repaired = Recovery.repair_directory fs' "/d1" in
  Alcotest.(check bool) "repaired something" true (repaired >= 1);
  Alcotest.(check bool) "rename resolved to exactly one name" true
    (Fs.exists fs' "/d1/a" <> Fs.exists fs' "/d1/b");
  Alcotest.(check bool) "other directory untouched" true
    (Fs.exists fs' "/d2/c");
  Alcotest.(check (list string)) "checker clean after local repair" []
    (List.map Simurgh_core.Check.violation_to_string
       (Simurgh_core.Check.run region))

let fsck_clean what region =
  Alcotest.(check (list string)) what []
    (List.map Simurgh_core.Check.violation_to_string
       (Simurgh_core.Check.run region))

let dir_head fs path =
  let _, fe = Fs.resolve fs path in
  Simurgh_core.Fentry.dirblock (Fs.region fs) fe

(* Regression: recovery pass 1 must resolve EVERY pending rename log it
   can reach, not just the first one it finds.  Two processes crashed
   mid-rename in two different directories leave two pending logs; both
   renames must be resolved (each to exactly one name) and the checker
   must find nothing. *)
let test_two_pending_logs_two_dirs () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/d1";
  Fs.mkdir fs "/d2";
  Fs.create_file fs "/d1/a";
  Fs.create_file fs "/d2/c";
  Fs.set_crash_hook fs (fun l -> if l = "rename:swap" then raise Crash_now);
  (try Fs.rename fs "/d1/a" "/d1/b" with Crash_now -> ());
  (try Fs.rename fs "/d2/c" "/d2/d" with Crash_now -> ());
  (* both logs really are pending before recovery (non-vacuous) *)
  let r = Fs.region fs in
  Alcotest.(check int) "d1 log pending" 1
    (List.length (Simurgh_core.Dirblock.Log.pending_slots r (dir_head fs "/d1")));
  Alcotest.(check int) "d2 log pending" 1
    (List.length (Simurgh_core.Dirblock.Log.pending_slots r (dir_head fs "/d2")));
  Fs.invalidate_shared region;
  let _ = Recovery.run region in
  let fs' = Fs.mount ~euid:0 region in
  Alcotest.(check bool) "d1 rename resolved to one name" true
    (Fs.exists fs' "/d1/a" <> Fs.exists fs' "/d1/b");
  Alcotest.(check bool) "d2 rename resolved to one name" true
    (Fs.exists fs' "/d2/c" <> Fs.exists fs' "/d2/d");
  fsck_clean "both pending logs resolved" region

(* Nested crashed renames: /p/x/f -> /q/g crashes at [xrename], then
   /p/x -> /p/y crashes at [rename] before the old entry is gone.  The
   first rename's log sits in /p/x's head, which is then reachable only
   through /p/y, a dirty shadow: recovery must follow allocated entries,
   not only live ones, to find that log with the others and resolve them
   in epoch order, and must not zero the shadow as an interrupted delete
   before the second log is resolved. *)
let test_nested_crashed_renames () =
  List.iter
    (fun (xlabel, label, renames, rolled_back, present, absent) ->
      let what = xlabel ^ " then " ^ label in
      let region = fresh_region () in
      let fs = Fs.mkfs ~euid:0 region in
      List.iter (Fs.mkdir fs) [ "/p"; "/p/x"; "/q" ];
      Fs.create_file fs "/p/x/f";
      Fs.create_file fs "/p/x/h";
      Fs.set_crash_hook fs (fun l -> if l = xlabel then raise Crash_now);
      (try Fs.rename fs "/p/x/f" "/q/g" with Crash_now -> ());
      Fs.set_crash_hook fs (fun l -> if l = label then raise Crash_now);
      (try Fs.rename fs "/p/x" "/p/y" with Crash_now -> ());
      Fs.invalidate_shared region;
      let _, rep = Recovery.run region in
      (* both logs are found by the first pass: a traversal that
         followed only live entries would find /p/x's log only once
         resolving /p commits the shadow, in a third pass *)
      Alcotest.(check (triple int int int))
        (what ^ ": completed and rolled-back renames, log passes")
        (renames, rolled_back, 2)
        ( rep.Recovery.completed_renames,
          rep.Recovery.rolled_back_renames,
          rep.Recovery.resolve_passes );
      fsck_clean (what ^ ": fsck") region;
      let fs' = Fs.mount ~euid:0 region in
      List.iter
        (fun p ->
          Alcotest.(check bool) (what ^ ": " ^ p) true (Fs.exists fs' p))
        present;
      List.iter
        (fun p ->
          Alcotest.(check bool) (what ^ ": no " ^ p) false (Fs.exists fs' p))
        absent;
      Fs.unmount fs')
    [
      ( "xrename:dstslot", "rename:swap", 2, 0,
        [ "/p/y"; "/p/y/h"; "/q/g" ], [ "/p/x"; "/p/y/f" ] );
      ( "xrename:dstslot", "rename:newslot", 2, 0,
        [ "/p/y"; "/p/y/h"; "/q/g" ], [ "/p/x"; "/p/y/f" ] );
      ( "xrename:busy", "rename:swap", 1, 1,
        [ "/p/y"; "/p/y/f"; "/p/y/h" ], [ "/p/x"; "/q/g" ] );
    ]

(* Same regression on log-ring media: two crashed renames in ONE
   directory leave two pending slots of the same first hash block's
   ring.  Recovery must resolve both — in epoch order — and leave the
   ring empty. *)
let test_two_pending_slots_one_ring () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 ~log_ring:4 region in
  Fs.mkdir fs "/d";
  Fs.create_file fs "/d/a";
  Fs.create_file fs "/d/c";
  Fs.set_crash_hook fs (fun l -> if l = "rename:swap" then raise Crash_now);
  (try Fs.rename fs "/d/a" "/d/b" with Crash_now -> ());
  (try Fs.rename fs "/d/c" "/d/d" with Crash_now -> ());
  let r = Fs.region fs in
  let head = dir_head fs "/d" in
  let pending = Simurgh_core.Dirblock.Log.pending_slots r head in
  Alcotest.(check int) "two slots of one ring pending" 2
    (List.length pending);
  (* distinct slots, distinct epochs (the ordering key is usable) *)
  (match pending with
  | [ (s1, e1); (s2, e2) ] ->
      Alcotest.(check bool) "distinct slots" true (s1 <> s2);
      Alcotest.(check bool) "distinct epochs" true (e1 <> e2)
  | _ -> Alcotest.fail "expected exactly two pending slots");
  Fs.invalidate_shared region;
  let _ = Recovery.run region in
  let fs' = Fs.mount ~euid:0 region in
  Alcotest.(check bool) "first rename resolved to one name" true
    (Fs.exists fs' "/d/a" <> Fs.exists fs' "/d/b");
  Alcotest.(check bool) "second rename resolved to one name" true
    (Fs.exists fs' "/d/c" <> Fs.exists fs' "/d/d");
  Alcotest.(check (list (pair int int))) "ring empty after recovery" []
    (Simurgh_core.Dirblock.Log.pending_slots region head);
  fsck_clean "both ring slots resolved" region

(* Clean-shutdown fast path: a set clean flag lets [mount_auto] skip the
   mark-and-sweep entirely; a missing unmount (crash) triggers it. *)
let test_clean_shutdown_fast_path () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/a";
  Fs.create_file fs "/a/f";
  Fs.unmount fs;
  Fs.invalidate_shared region;
  let fs2, rep = Recovery.mount_auto ~euid:0 region in
  Alcotest.(check bool) "clean shutdown skips recovery" true (rep = None);
  Alcotest.(check bool) "tree intact" true (Fs.exists fs2 "/a/f");
  (* mounted but never unmounted = crash: next mount_auto must recover *)
  Fs.create_file fs2 "/a/g";
  Fs.invalidate_shared region;
  let fs3, rep2 = Recovery.mount_auto ~euid:0 region in
  (match rep2 with
  | None -> Alcotest.fail "crash must trigger full recovery"
  | Some _ -> ());
  Alcotest.(check bool) "post-crash tree intact" true (Fs.exists fs3 "/a/g");
  (* recovery + clean unmount re-arm the fast path *)
  Fs.unmount fs3;
  Fs.invalidate_shared region;
  let _, rep3 = Recovery.mount_auto ~euid:0 region in
  Alcotest.(check bool) "fast path re-armed" true (rep3 = None)

let test_double_recovery_stable () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  populate fs;
  let _, r1 = Recovery.run region in
  let _, r2 = Recovery.run region in
  Alcotest.(check int) "same files" r1.Recovery.files r2.Recovery.files;
  Alcotest.(check int) "same dirs" r1.Recovery.dirs r2.Recovery.dirs;
  Alcotest.(check int) "same used blocks" r1.Recovery.used_blocks
    r2.Recovery.used_blocks

(* Satellite regression: recovery on an already-clean image is a media
   no-op — every byte recovery writes (free lists, clean flag) must
   rewrite to the value it already has, so a second pass leaves the
   region bit-identical. *)
let test_clean_image_media_noop () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  populate fs;
  Fs.invalidate_shared region;
  let _ = Recovery.run region in
  let d1 = Simurgh_nvmm.Region.media_digest region in
  Fs.invalidate_shared region;
  let _ = Recovery.run region in
  let d2 = Simurgh_nvmm.Region.media_digest region in
  Alcotest.(check bool) "second pass bit-identical" true (d1 = d2)

(* A populated image with real damage for the parallel drivers to agree
   on: leaked slab objects, a stale busy flag and a rename crashed at
   the swap point. *)
let crashed_fixture ?log_ring () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 ?log_ring region in
  populate fs;
  let layout = Fs.layout fs in
  for _ = 1 to 7 do
    ignore (Slab.alloc layout.Layout.inode_slab)
  done;
  for _ = 1 to 5 do
    ignore (Slab.alloc layout.Layout.fentry_slab)
  done;
  let region' = Fs.region fs in
  let root = Layout.root_fentry layout in
  let head = Simurgh_core.Fentry.dirblock region' root in
  Simurgh_core.Dirblock.set_busy region' head 3 true;
  Fs.set_crash_hook fs (fun l -> if l = "rename:swap" then raise Crash_now);
  (try Fs.rename fs "/a/f0" "/a/g0" with Crash_now -> ());
  region

(* Tentpole invariant: the three pool drivers (sequential reference,
   virtual-time list scheduling, cooperative fibers) recover the same
   image to bit-identical media and byte-identical reports (modulo the
   virtual-time makespan, which only the vtime driver measures). *)
let test_parallel_matches_sequential () =
  let region = crashed_fixture () in
  let cp = Simurgh_nvmm.Region.checkpoint region in
  let norm = Recovery.untimed in
  Fs.invalidate_shared region;
  let _, rs = Recovery.run region in
  let ds = Simurgh_nvmm.Region.media_digest region in
  fsck_clean "sequential recovery fsck" region;
  Simurgh_nvmm.Region.restore region cp;
  Fs.invalidate_shared region;
  let machine = Simurgh_sim.Machine.create () in
  let _, rv =
    Recovery.run ~par:(Recovery.Vtime { machine; workers = 4 }) region
  in
  let dv = Simurgh_nvmm.Region.media_digest region in
  Simurgh_nvmm.Region.restore region cp;
  Fs.invalidate_shared region;
  let _, rf =
    Recovery.run
      ~par:
        (Recovery.Fibers
           {
             schedule = Simurgh_sim.Schedule.random 5L;
             workers = 3;
             sink = ignore;
           })
      region
  in
  let df = Simurgh_nvmm.Region.media_digest region in
  Alcotest.(check bool) "vtime media identical" true (dv = ds);
  Alcotest.(check bool) "fibers media identical" true (df = ds);
  Alcotest.(check bool) "vtime report identical" true (norm rv = norm rs);
  Alcotest.(check bool) "fibers report identical" true (norm rf = norm rs);
  Alcotest.(check bool) "vtime makespan measured" true
    (rv.Recovery.vtime_cycles > 0.0);
  fsck_clean "fibers recovery fsck" region

(* The broken-merge negative control: dropping the marks of every
   other committed directory record loses reachable objects' marks, so
   the sweep frees them and the checker must object — proving the
   checker actually guards the merge.  The records dropped do not
   depend on which worker made them, so the control fires at any worker
   count, and on a ring of any size.  The freed blocks' headers hold
   free-range nodes, which the checker reports instead of following.  A
   full recovery afterwards converges the damaged image back to
   clean. *)
let test_drop_mark_shard_flags () =
  List.iter
    (fun (log_ring, workers) ->
      let region = crashed_fixture ~log_ring () in
      Fs.invalidate_shared region;
      let machine = Simurgh_sim.Machine.create () in
      let _ =
        Recovery.run
          ~par:(Recovery.Vtime { machine; workers })
          ~drop_mark_shard:true region
      in
      Alcotest.(check bool)
        (Printf.sprintf "checker flags the lost marks (ring %d, %d workers)"
           log_ring workers)
        true
        (Simurgh_core.Check.run region <> []);
      Fs.invalidate_shared region;
      let _ = Recovery.run region in
      fsck_clean "full recovery converges the damage" region)
    [ (1, 2); (1, 3); (4, 2) ]

(* A fixed crash image for the golden test: 12 directories of 60
   files (more than one sweep slice of inodes and file entries), a
   nested subtree, leaked slab objects and a cross-directory rename
   crashed after its log entry was written. *)
let golden_fixture () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  populate fs;
  for d = 0 to 11 do
    Fs.mkdir fs (Printf.sprintf "/d%d" d);
    for i = 0 to 59 do
      Fs.create_file fs (Printf.sprintf "/d%d/f%d" d i)
    done
  done;
  let layout = Fs.layout fs in
  for _ = 1 to 9 do
    ignore (Slab.alloc layout.Layout.inode_slab)
  done;
  for _ = 1 to 6 do
    ignore (Slab.alloc layout.Layout.fentry_slab)
  done;
  Fs.set_crash_hook fs (fun l -> if l = "xrename:log" then raise Crash_now);
  (try Fs.rename fs "/d3/f7" "/d8/moved" with Crash_now -> ());
  region

(* Golden: the fixed image recovers to the same report, virtual-time
   makespan and per-pass cycles, media and region access counts under
   every [par] mode, pinned to literal values so that any change which
   moves one of them shows up here.  The counts matter on their own: recovery charges virtual
   time from them, and the [nvmm.*] metrics report them. *)
let test_golden_recovery () =
  let region = golden_fixture () in
  let cp = Simurgh_nvmm.Region.checkpoint region in
  let recover par =
    Simurgh_nvmm.Region.restore region cp;
    Fs.invalidate_shared region;
    let s0 = Simurgh_nvmm.Region.stats region in
    let _, r = Recovery.run ~par region in
    let s1 = Simurgh_nvmm.Region.stats region in
    fsck_clean "golden image fsck" region;
    ( Fmt.str "%a" Recovery.pp_report r,
      String.concat " "
        (Printf.sprintf "%h" r.Recovery.vtime_cycles
        :: List.map
             (fun (pass, c) -> Printf.sprintf "%s=%h" pass c)
             r.Recovery.pass_cycles),
      Digest.to_hex (Simurgh_nvmm.Region.media_digest region),
      Simurgh_nvmm.Region.(
        Printf.sprintf "loads=%d stores=%d load_bytes=%d store_bytes=%d fences=%d"
          (s1.loads - s0.loads) (s1.stores - s0.stores)
          (s1.load_bytes - s0.load_bytes)
          (s1.store_bytes - s0.store_bytes)
          (s1.fences - s0.fences)) )
  in
  let vtime workers =
    Recovery.Vtime { machine = Simurgh_sim.Machine.create (); workers }
  in
  let report =
    "files=772 dirs=14 symlinks=1 completed_deletes=0 completed_renames=0 \
     rolled_back=1 reclaimed(inodes=9 fentries=6) busy_cleared=0 \
     blocks(used=1116 free=261009) quarantined=0 retries=0 passes=2 \
     tasks(mark=15 sweep=23)"
  in
  let digest = "7c53dea9284aa9fff0f060b221812a80" in
  let accesses =
    "loads=491 stores=126 load_bytes=298442 store_bytes=2134 fences=106"
  in
  List.iter
    (fun (what, par, cycles) ->
      let rep, vc, dg, acc = recover par in
      Alcotest.(check string) (what ^ " report") report rep;
      Alcotest.(check string) (what ^ " vtime_cycles") cycles vc;
      Alcotest.(check string) (what ^ " media digest") digest dg;
      Alcotest.(check string) (what ^ " region accesses") accesses acc)
    [
      ("seq", Recovery.Seq, "0x0p+0");
      ( "vtime 1 worker",
        vtime 1,
        "0x1.23a96c4ec4ec2p+17 mark=0x1.0a522c4ec4ec2p+17 \
         segments=0x1.c2p+12 rebuild=0x1.68e8p+12" );
      ( "vtime 4 workers",
        vtime 4,
        "0x1.17260f6f3c244p+16 mark=0x1.df6f1ede78488p+15 \
         segments=0x1.0ep+12 rebuild=0x1.68e8p+12" );
    ]

(* The mark set against a Hashtbl reference: random adds, removes and
   membership tests over 8-aligned offsets, biased toward the edges of
   the 256 KiB windows one bit-chunk covers and the region's last word;
   ascending iteration must equal the sorted distinct keys. *)
let prop_reach_matches_hashtbl =
  let size = (3 lsl 18) + 4096 in
  let window = 1 lsl 18 in
  let key =
    QCheck.Gen.(
      oneof
        [
          map (fun w -> w * 8) (int_bound ((size / 8) - 1));
          map2
            (fun c d -> (c * window) + (d * 8))
            (int_bound 3) (int_range (-2) 1);
          map (fun d -> size - 8 - (d * 8)) (int_bound 2);
        ]
      |> map (fun k -> max 0 (min (size - 8) k)))
  in
  let op = QCheck.Gen.(pair (int_bound 2) key) in
  QCheck.Test.make ~name:"reach set matches a Hashtbl reference" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (pair int int))
       QCheck.Gen.(list_size (int_bound 200) op))
    (fun ops ->
      let set = Reach.create ~size in
      let ref_ = Hashtbl.create 16 in
      List.for_all
        (fun (o, k) ->
          (match o with
          | 0 ->
              Reach.add set k;
              Hashtbl.replace ref_ k ()
          | 1 ->
              Reach.remove set k;
              Hashtbl.remove ref_ k
          | _ -> ());
          Reach.mem set k = Hashtbl.mem ref_ k)
        ops
      && Reach.cardinal set = Hashtbl.length ref_
      && Array.to_list (Reach.to_sorted_array set)
         = List.sort_uniq compare (Hashtbl.fold (fun k () l -> k :: l) ref_ []))

let prop_recovery_preserves_random_trees =
  QCheck.Test.make ~name:"recovery preserves arbitrary populations" ~count:20
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_range 0 30))
    (fun ids ->
      let region = fresh_region () in
      let fs = Fs.mkfs ~euid:0 region in
      Fs.mkdir fs "/p";
      let expected = List.sort_uniq compare ids in
      List.iter
        (fun i ->
          try Fs.create_file fs (Printf.sprintf "/p/f%02d" i)
          with Errno.Err (EEXIST, _) -> ())
        ids;
      let fs', _ = Recovery.mount_after_crash ~euid:0 region in
      let listed = List.sort compare (Fs.readdir fs' "/p") in
      listed = List.map (Printf.sprintf "f%02d") expected)

(* --- one read per object: the snapshot parsers equal the field reads --- *)

module Region = Simurgh_nvmm.Region
module Balloc = Simurgh_alloc.Block_alloc
module Fentry = Simurgh_core.Fentry
module Inode = Simurgh_core.Inode
module Check = Simurgh_core.Check

let small_layout ~secure =
  Layout.format ~secure (Region.create (4 * 1024 * 1024)) ~cores:1

let alloc_blocks layout bytes =
  let bs = Balloc.block_size layout.Layout.balloc in
  Option.get (Balloc.alloc layout.Layout.balloc ((bytes + bs - 1) / bs))

(* an entry's slab state, name, kind (0 file, 1 dir, 2 symlink), target
   and dirblock *)
let gen_entry =
  QCheck.Gen.(
    let* st =
      oneofl
        [
          Slab.flag_valid;
          Slab.flag_valid lor Slab.flag_dirty;
          Slab.flag_dirty;
          0;
        ]
    in
    let* len =
      oneof
        [
          int_range 1 Fentry.inline_name_max;
          int_range (Fentry.inline_name_max + 1) Fentry.name_max;
        ]
    in
    let* name = string_size ~gen:(char_range 'a' 'z') (return len) in
    let* kind = int_bound 2 in
    let* tgt = int_range 1 100_000 in
    let+ db = int_range 1 100_000 in
    (st, name, kind, tgt * 8, db * 8))

(* Mark's view of an entry, built from Fentry's field accessors: a
   non-live entry carries the directory head of an allocated directory
   entry (a rename's shadow is followed for its logs) *)
let entry_reference r slab p =
  if not (Slab.is_live slab p) then
    Error
      (if Slab.obj_flags slab p <> 0 && Fentry.is_dir r p then
         Fentry.dirblock r p
       else 0)
  else
    Ok
      ( Fentry.name r p,
        Fentry.target r p,
        (if Fentry.is_dir r p then `Dir (Fentry.dirblock r p)
         else if Fentry.is_symlink r p then `Sym
         else `File),
        Fentry.spill r p )

let entry_view = function
  | Recovery.Dead head -> Error head
  | Recovery.Live { name; target; kind; spill } ->
      Ok (name, target, kind, spill)

(* Every slot of one file-entry segment holds a generated entry; one
   snapshot of the segment, parsed slot by slot as mark parses it, and
   the field reads of every entry equal the reference. *)
let prop_entry_snapshot =
  QCheck.Test.make ~name:"entry snapshot parse equals the field reads"
    ~count:40
    (QCheck.make QCheck.Gen.(pair bool (list_repeat 256 gen_entry)))
    (fun (secure, entries) ->
      let layout = small_layout ~secure in
      let r = layout.Layout.region and slab = layout.Layout.fentry_slab in
      assert (Slab.objs_per_segment slab = List.length entries);
      let seg = ref 0 in
      Slab.iter_segments slab (fun s -> if !seg = 0 then seg := s);
      let seg = !seg in
      let ps =
        List.mapi
          (fun i (st, name, kind, target, db) ->
            let p = Slab.payload (Slab.obj_addr slab seg i) in
            Fentry.init r p ~name ~dir:(kind = 1) ~symlink:(kind = 2) ~target
              ~alloc_spill:(alloc_blocks layout);
            if kind = 1 then Fentry.set_dirblock r p db;
            if secure then Fentry.set_owner r p ~uid:7 ~gid:8 ~perm:0o640;
            Region.write_u8 r (p - Slab.obj_header) st;
            p)
          entries
      in
      let snap = Option.get (Slab.read_segment slab seg) in
      List.for_all
        (fun p ->
          let want = entry_reference r slab p in
          entry_view
            (Recovery.parse_entry r (snap, p - Slab.obj_header - seg) p)
          = want
          && entry_view (Recovery.read_entry_fields r slab p) = want)
        ps)

(* an extent slot: empty, torn either way, or whole *)
let gen_slot =
  QCheck.Gen.(
    let addr = map (fun a -> a * 256) (int_range 1 4096) in
    let blocks = int_range 1 64 in
    oneof
      [
        return (0, 0);
        map (fun a -> (a, 0)) addr;
        map (fun n -> (0, n)) blocks;
        pair addr blocks;
      ])

(* The sweep's scrub and block marks, built from Inode's field
   accessors *)
let inode_reference r inode =
  let marks = ref [] in
  let scrub read write k =
    let addr, blocks = read k in
    if (addr <> 0) <> (blocks <> 0) then write k ~addr:0 ~blocks:0
  in
  for k = 0 to Inode.inline_extents - 1 do
    scrub (Inode.read_extent r inode) (Inode.write_extent r inode) k
  done;
  let rec ov_scrub b =
    if b <> 0 then begin
      for k = 0 to Inode.overflow_entries - 1 do
        scrub (Inode.read_ov_extent r b) (Inode.write_ov_extent r b) k
      done;
      ov_scrub (Region.read_u62 r (Inode.ov_next b))
    end
  in
  ov_scrub (Region.read_u62 r (Inode.f_overflow inode));
  Inode.iter_extents r inode (fun a n -> marks := `Extent (a, n) :: !marks);
  let rec ov b =
    if b <> 0 then begin
      marks := `Overflow b :: !marks;
      ov (Region.read_u62 r (Inode.ov_next b))
    end
  in
  ov (Region.read_u62 r (Inode.f_overflow inode));
  List.rev !marks

(* [inode]'s extent slots and a fresh chain of overflow blocks, one per
   list of [chain], written through Inode's field accessors *)
let write_inode layout inode (inline, chain) =
  let r = layout.Layout.region in
  Region.write_u8 r (inode - Slab.obj_header) Slab.flag_valid;
  Inode.init r inode ~mode:(Inode.mode_of_kind Inode.File) ~uid:0 ~gid:0
    ~now:0;
  List.iteri
    (fun k (addr, blocks) -> Inode.write_extent r inode k ~addr ~blocks)
    inline;
  let link =
    List.fold_right
      (fun slots next ->
        let b = alloc_blocks layout Inode.overflow_bytes in
        Region.zero r b Inode.overflow_bytes;
        List.iteri
          (fun k (addr, blocks) -> Inode.write_ov_extent r b k ~addr ~blocks)
          slots;
        Region.write_u62 r (Inode.ov_next b) next;
        b)
      chain 0
  in
  Region.write_u62 r (Inode.f_overflow inode) link

(* The inode slab's first segment and its slot [i]'s inode *)
let inode_slot layout i =
  let slab = layout.Layout.inode_slab in
  let seg = ref 0 in
  Slab.iter_segments slab (fun s -> if !seg = 0 then seg := s);
  (!seg, Slab.payload (Slab.obj_addr slab !seg i))

(* The sweep's entry point: scan every inode of [inodes] from its slot
   in the segment snapshot *)
let scan_segment layout seg inodes ~marks =
  Slab.iter_segment_objects layout.Layout.inode_slab seg (fun p _ slot ->
      if List.mem p inodes then
        Recovery.scan_inode layout.Layout.region (Option.get slot) p
          ~extent:(fun a n -> marks p (`Extent (a, n)))
          ~overflow:(fun b -> marks p (`Overflow b)))

let prop_inode_snapshot =
  QCheck.Test.make ~name:"inode snapshot scan equals the field reads"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple
           (* a slot of the 256 in an inode segment, the ends included *)
           (oneof [ oneofl [ 0; 255 ]; int_bound 255 ])
           (list_repeat Inode.inline_extents gen_slot)
           (list_size (int_bound 3)
              (list_repeat Inode.overflow_entries gen_slot))))
    (fun (i, inline, chain) ->
      let layout = small_layout ~secure:false in
      let r = layout.Layout.region in
      let seg, inode = inode_slot layout i in
      write_inode layout inode (inline, chain);
      let cp = Region.checkpoint r in
      let run scan =
        Region.restore r cp;
        let marks = ref [] in
        scan (fun m -> marks := m :: !marks);
        (List.rev !marks, Region.media_digest r)
      in
      Region.restore r cp;
      let want_marks = inode_reference r inode in
      let want = (want_marks, Region.media_digest r) in
      run (fun mark -> scan_segment layout seg [ inode ] ~marks:(fun _ -> mark))
      = want
      && run (fun mark ->
             assert (
               Recovery.scan_inode_fields r inode
                 ~extent:(fun a n -> mark (`Extent (a, n)))
                 ~overflow:(fun b -> mark (`Overflow b))))
         = want)

(* Every slot of a segment at once: slot [i]'s four inline slots are the
   base-4 digits of [i] (each empty, torn either way, or whole, so the
   256 slots hold every combination) and its chain has [i mod 4]
   overflow blocks.  One snapshot scan of the segment, the field reads
   of every inode, and the reference leave the same media and make the
   same marks per inode. *)
let test_inode_snapshot_every_slot () =
  let layout = small_layout ~secure:false in
  let r = layout.Layout.region in
  let n = layout.Layout.inode_slab.Slab.objs_per_seg in
  let slot_of i k =
    let a = 256 * (1 + i) and b = 1 + k in
    match k mod 4 with 0 -> (0, 0) | 1 -> (a, 0) | 2 -> (0, b) | _ -> (a, b)
  in
  let inodes =
    List.init n (fun i ->
        let seg, inode = inode_slot layout i in
        let digit k = (i lsr (2 * k)) land 3 in
        write_inode layout inode
          ( List.init Inode.inline_extents (fun k -> slot_of i (digit k)),
            List.init (i mod 4) (fun c ->
                List.init Inode.overflow_entries (fun k ->
                    slot_of i (c + k + i))) );
        (seg, inode))
  in
  let seg = fst (List.hd inodes) and inodes = List.map snd inodes in
  let cp = Region.checkpoint r in
  (* every scan visits the inodes in slot order *)
  let run scan =
    Region.restore r cp;
    let marks = ref [] in
    scan (fun p m -> marks := (p, m) :: !marks);
    (List.rev !marks, Region.media_digest r)
  in
  let want =
    run (fun mark ->
        List.iter
          (fun p -> List.iter (mark p) (inode_reference r p))
          inodes)
  in
  Alcotest.(check bool) "snapshot scan" true
    (run (fun mark -> scan_segment layout seg inodes ~marks:mark) = want);
  Alcotest.(check bool) "field reads" true
    (run (fun mark ->
         List.iter
           (fun p ->
             assert (
               Recovery.scan_inode_fields r p
                 ~extent:(fun a n -> mark p (`Extent (a, n)))
                 ~overflow:(fun b -> mark p (`Overflow b))))
           inodes)
    = want)

(* --- free caches installed by the segment sweep ------------------------ *)

(* Free slots in several segments of both slabs: every fifth file of
   700 unlinked, leaked objects, and a crashed rename. *)
let holey_fixture () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/h";
  for i = 0 to 699 do
    Fs.create_file fs (Printf.sprintf "/h/f%d" i)
  done;
  for i = 0 to 139 do
    Fs.unlink fs (Printf.sprintf "/h/f%d" (i * 5))
  done;
  let layout = Fs.layout fs in
  for _ = 1 to 4 do
    ignore (Slab.alloc layout.Layout.inode_slab);
    ignore (Slab.alloc layout.Layout.fentry_slab)
  done;
  Fs.mkdir fs "/g";
  Fs.set_crash_hook fs (fun l -> if l = "xrename:log" then raise Crash_now);
  (try Fs.rename fs "/h/f1" "/g/moved" with Crash_now -> ());
  region

(* The caches recovery installs equal a fresh rebuild of the recovered
   image, queue order included, under every driver. *)
let test_installed_free_caches () =
  List.iter
    (fun (what, fixture) ->
      List.iter
        (fun (driver, par) ->
          let region = fixture () in
          Fs.invalidate_shared region;
          let layout, _ = Recovery.run ~par region in
          Alcotest.(check (list string))
            (what ^ " " ^ driver)
            []
            (List.map Check.violation_to_string (Check.free_caches layout)))
        [
          ("seq", Recovery.Seq);
          ( "vtime 4 workers",
            Recovery.Vtime
              { machine = Simurgh_sim.Machine.create (); workers = 4 } );
        ])
    [ ("holey image", holey_fixture); ("golden image", golden_fixture) ]

(* --- media faults: recovery's report and the checker's verdict --------- *)

(* [poison] picks one line of the golden image; the report and the
   checker's violations after recovery are pinned, equal under the
   sequential and the 4-worker drivers.  The pins are the per-field
   reads' outcome: one copy per object falls back to them on a fault. *)
let fault_case poison =
  let outcome par =
    let region = golden_fixture () in
    let layout = Layout.attach region in
    let r = region in
    let resolve path =
      let root = Layout.root_fentry layout in
      List.fold_left
        (fun fe name ->
          match
            Simurgh_core.Dirblock.find r ~head:(Fentry.dirblock r fe) ~name
          with
          | Some (_, _, _, p), _ -> p
          | None, _ -> Alcotest.fail ("no " ^ name))
        root
        (String.split_on_char '/' path |> List.filter (( <> ) ""))
    in
    Region.poison r (poison layout resolve) 1;
    Fs.invalidate_shared region;
    let _, rep = Recovery.run ~par region in
    ( Fmt.str "%a" Recovery.pp_report rep,
      List.map Check.violation_to_string (Check.run region) )
  in
  let seq = outcome Recovery.Seq in
  let vt =
    outcome
      (Recovery.Vtime { machine = Simurgh_sim.Machine.create (); workers = 4 })
  in
  Alcotest.(check (pair string (list string))) "vtime = seq" seq vt;
  seq

let test_fault_parity () =
  let check what (report, viols) got =
    Alcotest.(check string) (what ^ " report") report (fst got);
    Alcotest.(check (list string)) (what ^ " checker") viols (snd got)
  in
  (* the extent slots of a file with data *)
  check "inode extent line"
    ( "files=772 dirs=14 symlinks=1 completed_deletes=0 completed_renames=0 \
       rolled_back=1 reclaimed(inodes=9 fentries=6) busy_cleared=0 \
       blocks(used=1096 free=261029) quarantined=1 retries=0 passes=2 \
       tasks(mark=15 sweep=23)",
      [ "media error at line 0xcca9 while checking" ] )
    (fault_case (fun layout resolve ->
         Inode.f_extent
           (Fentry.target layout.Layout.region (resolve "/a/b/data"))
           0));
  (* the second line of a file entry's slab slot *)
  check "file entry second line"
    ( "files=771 dirs=14 symlinks=1 completed_deletes=0 completed_renames=0 \
       rolled_back=1 reclaimed(inodes=10 fentries=6) busy_cleared=0 \
       blocks(used=1116 free=261009) quarantined=2 retries=2 passes=2 \
       tasks(mark=15 sweep=23)",
      [] )
    (fault_case (fun _ resolve ->
         let fe = resolve "/d5/f3" in
         (((fe - Slab.obj_header) / Region.line_size) + 1) * Region.line_size));
  (* the slab header line of a reachable inode with data: its slot's
     flags and the tail of the previous slot (its last extent slot's
     block count and its overflow pointer) *)
  check "inode slab header line"
    ( "files=772 dirs=14 symlinks=1 completed_deletes=0 completed_renames=0 \
       rolled_back=1 reclaimed(inodes=9 fentries=6) busy_cleared=0 \
       blocks(used=1116 free=261009) quarantined=1 retries=0 passes=2 \
       tasks(mark=15 sweep=23)",
      [ "media error at line 0xcca8 while checking" ] )
    (fault_case (fun layout resolve ->
         Fentry.target layout.Layout.region (resolve "/a/b/data")
         - Slab.obj_header));
  (* the flags line of the first leaked inode, in the newest segment *)
  check "slab segment line"
    ( "files=772 dirs=14 symlinks=1 completed_deletes=0 completed_renames=0 \
       rolled_back=1 reclaimed(inodes=8 fentries=6) busy_cleared=0 \
       blocks(used=1116 free=261009) quarantined=0 retries=0 passes=2 \
       tasks(mark=15 sweep=23)",
      [] )
    (fault_case (fun layout _ ->
         let slab = layout.Layout.inode_slab in
         let leaked = ref 0 in
         Slab.iter_objects slab (fun p f ->
             if !leaked = 0 && f = Slab.flag_valid lor Slab.flag_dirty then
               leaked := p);
         !leaked - Slab.obj_header))

(* Long names live in spill blocks that only the sweep's spill tasks
   mark: a crash image with more long-named entries than one task's
   slice keeps every spill, and a long-named directory whose head is
   unreadable is detached with its spill reclaimed.  The checker sees
   any spill in the free list or any lost spill block. *)
let test_long_names_keep_their_spills () =
  let long i = Printf.sprintf "%s%04d" (String.make 180 'n') i in
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/s";
  for i = 0 to 599 do
    Fs.create_file fs ("/s/" ^ long i)
  done;
  Fs.mkdir fs ("/" ^ long 0);
  Fs.create_file fs ("/" ^ long 0 ^ "/" ^ long 1);
  Fs.mkdir fs ("/q" ^ long 2);
  Fs.create_file fs ("/q" ^ long 2 ^ "/" ^ long 3);
  let r = region in
  let head = Fentry.dirblock r (snd (Fs.resolve fs ("/q" ^ long 2))) in
  let cp = Simurgh_nvmm.Region.checkpoint region in
  let outcome ~poison par =
    Simurgh_nvmm.Region.restore region cp;
    if poison then Region.poison r head 1;
    Fs.invalidate_shared region;
    let _, rep = Recovery.run ~par region in
    let fs' = Fs.mount ~euid:0 region in
    let names = List.length (Fs.readdir fs' "/s") in
    Fs.unmount fs';
    ( (rep.Recovery.files, rep.Recovery.quarantined, names),
      List.map Check.violation_to_string (Check.run region) )
  in
  let vtime () =
    Recovery.Vtime { machine = Simurgh_sim.Machine.create (); workers = 4 }
  in
  List.iter
    (fun (label, poison, want) ->
      List.iter
        (fun par ->
          Alcotest.(check (pair (triple int int int) (list string)))
            label want (outcome ~poison par))
        [ Recovery.Seq; vtime () ])
    [
      ("every spill kept", false, ((602, 0, 600), []));
      ("unreadable long-named directory", true, ((601, 1, 600), []));
    ]

(* --- slot values that are no file entry ----------------------------------- *)

(* A valid directory head whose row 0 slot holds an address inside a
   directory block, the head's own, instead of a file entry's: what a
   word of another structure in a reused or overwritten block looks
   like to mark.  The byte before the address is the low byte of the
   head's ring word, 1, which reads as a valid slab flag. *)
let damaged_slot_fixture () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  populate fs;
  let r = Fs.region fs in
  let head = Fentry.dirblock r (snd (Fs.resolve fs "/a")) in
  let s =
    List.find
      (fun s -> Simurgh_core.Dirblock.slot r head 0 s = 0)
      (List.init Simurgh_core.Dirblock.slots_per_row Fun.id)
  in
  Simurgh_core.Dirblock.set_slot r head 0 s
    (Simurgh_core.Dirblock.f_ring head + 8);
  region

(* Recovery detaches the damaged slot and counts it in [quarantined],
   and nothing else differs from the undamaged image's recovery; the
   checker then finds nothing. *)
let test_damaged_slot_quarantined () =
  let undamaged =
    let region = fresh_region () in
    let fs = Fs.mkfs ~euid:0 region in
    populate fs;
    Fs.invalidate_shared region;
    Recovery.untimed (snd (Recovery.run region))
  in
  List.iter
    (fun (what, par) ->
      let region = damaged_slot_fixture () in
      Fs.invalidate_shared region;
      let _, rep = Recovery.run ~par region in
      Alcotest.(check string)
        (what ^ " report")
        (Fmt.str "%a" Recovery.pp_report { undamaged with quarantined = 1 })
        (Fmt.str "%a" Recovery.pp_report (Recovery.untimed rep));
      fsck_clean (what ^ " fsck") region)
    [
      ("seq", Recovery.Seq);
      ( "vtime 4 workers",
        Recovery.Vtime { machine = Simurgh_sim.Machine.create (); workers = 4 }
      );
    ]

(* --- damaged directory links ---------------------------------------------- *)

(* The head of the directory entry "/a/b" ([`Head]) or the last chain
   block's [next] of "/a" ([`Next]) set to an address past the region's
   end, or the last chain block of "/a" linked to itself ([`Cycle]). *)
let damaged_link_fixture damage =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  populate fs;
  let module Dirblock = Simurgh_core.Dirblock in
  let wild = Region.size region + 4096 and head = dir_head fs "/a" in
  let rec last b = match Dirblock.next region b with 0 -> b | n -> last n in
  (match damage with
  | `Head -> Fentry.set_dirblock region (snd (Fs.resolve fs "/a/b")) wild
  | `Next -> Region.write_u62 region (Dirblock.f_next (last head)) wild
  | `Cycle ->
      let i = ref 0 in
      while Dirblock.next region head = 0 do
        Fs.create_file fs (Printf.sprintf "/a/g%d" !i);
        incr i
      done;
      Region.write_u62 region (Dirblock.f_next (last head)) (last head));
  region

(* Mark truncates the chain at the damaged link, or quarantines the
   entry whose head it is: recovery returns with one quarantine, the
   checker finds nothing, and only the quarantined subtree is gone. *)
let test_damaged_links_quarantined () =
  List.iter
    (fun (what, damage) ->
      List.iter
        (fun (mode, par) ->
          let what = what ^ ", " ^ mode in
          let region = damaged_link_fixture damage in
          Fs.invalidate_shared region;
          let layout, rep = Recovery.run ~par region in
          Alcotest.(check int) (what ^ ": quarantined") 1
            rep.Recovery.quarantined;
          fsck_clean (what ^ ": fsck") region;
          let fs = Fs.bring_up ~euid:0 layout in
          Alcotest.(check (list bool))
            (what ^ ": /a/f49, /a/hard, /a/b")
            [ true; true; damage <> `Head ]
            (List.map (Fs.exists fs) [ "/a/f49"; "/a/hard"; "/a/b" ]))
        [
          ("seq", Recovery.Seq);
          ( "vtime 4 workers",
            Recovery.Vtime
              { machine = Simurgh_sim.Machine.create (); workers = 4 } );
        ])
    [
      ("chain link past the region", `Next);
      ("directory head past the region", `Head);
      ("chain block linked to itself", `Cycle);
    ]

(* --- recovery reads per block, not per entry ------------------------------ *)

(* One directory of [n] files: recovery's load operations, the slab
   segments of both slabs and the directory's chain blocks. *)
let loads_for n =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/d";
  for i = 0 to n - 1 do
    Fs.create_file fs (Printf.sprintf "/d/f%d" i)
  done;
  let layout = Fs.layout fs in
  let segs = ref 0 in
  Slab.iter_segments layout.Layout.inode_slab (fun _ -> incr segs);
  Slab.iter_segments layout.Layout.fentry_slab (fun _ -> incr segs);
  let blocks =
    Simurgh_core.Dirblock.chain_length region
      (Fentry.dirblock region (snd (Fs.resolve fs "/d")))
  in
  Fs.invalidate_shared region;
  let s0 = Region.stats region in
  let _ = Recovery.run region in
  ((Region.stats region).Region.loads - s0.Region.loads, !segs, blocks)

(* Mark parses entries out of the segment snapshots, so twice the files
   cost only the added segments (each one link of the segment list and
   one snapshot) and chain blocks (each its header and its rows): no
   load per entry. *)
let test_loads_per_block () =
  let l1, s1, b1 = loads_for 500 and l2, s2, b2 = loads_for 1000 in
  Alcotest.(check bool)
    (Printf.sprintf "loads %d -> %d within 2 x (%d segments + %d blocks)" l1 l2
       (s2 - s1) (b2 - b1))
    true
    (l2 - l1 <= 2 * (s2 - s1 + (b2 - b1)))

let () =
  Alcotest.run "recovery"
    [
      ( "mark-and-sweep",
        [
          Alcotest.test_case "clean tree preserved" `Quick
            test_clean_tree_preserved;
          Alcotest.test_case "garbage reclaimed" `Quick
            test_sweep_reclaims_garbage;
          Alcotest.test_case "busy flags cleared" `Quick
            test_busy_flags_cleared;
          Alcotest.test_case "block counts consistent" `Quick
            test_block_counts_consistent;
          Alcotest.test_case "usable after recovery" `Quick
            test_fs_usable_after_recovery;
          Alcotest.test_case "runtime repair" `Quick
            test_repair_directory_runtime;
          Alcotest.test_case "process-crash directory repair" `Quick
            test_repair_directory_process_crash;
          Alcotest.test_case "two pending logs, two directories" `Quick
            test_two_pending_logs_two_dirs;
          Alcotest.test_case "nested crashed renames" `Quick
            test_nested_crashed_renames;
          Alcotest.test_case "two pending slots, one log ring" `Quick
            test_two_pending_slots_one_ring;
          Alcotest.test_case "clean shutdown fast path" `Quick
            test_clean_shutdown_fast_path;
          Alcotest.test_case "double recovery stable" `Quick
            test_double_recovery_stable;
          Alcotest.test_case "clean image media no-op" `Quick
            test_clean_image_media_noop;
          Alcotest.test_case "parallel drivers match sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "dropped mark shard is caught" `Quick
            test_drop_mark_shard_flags;
          Alcotest.test_case "long names keep their spills" `Quick
            test_long_names_keep_their_spills;
          Alcotest.test_case "golden crash image" `Quick test_golden_recovery;
          Alcotest.test_case "slot that links no file entry" `Quick
            test_damaged_slot_quarantined;
          Alcotest.test_case "damaged directory links" `Quick
            test_damaged_links_quarantined;
          QCheck_alcotest.to_alcotest prop_recovery_preserves_random_trees;
          QCheck_alcotest.to_alcotest prop_reach_matches_hashtbl;
        ] );
      ( "read once",
        [
          QCheck_alcotest.to_alcotest prop_entry_snapshot;
          QCheck_alcotest.to_alcotest prop_inode_snapshot;
          Alcotest.test_case "inode snapshot scan at every slot" `Quick
            test_inode_snapshot_every_slot;
          Alcotest.test_case "loads grow with blocks, not entries" `Quick
            test_loads_per_block;
          Alcotest.test_case "installed free caches equal a rebuild" `Quick
            test_installed_free_caches;
          Alcotest.test_case "media faults: report and checker pinned" `Quick
            test_fault_parity;
        ] );
    ]

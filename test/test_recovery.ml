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
   intact, only the crashed process's progress is half-done.  A second
   process repairs just the affected directory with
   [Recovery.repair_directory] — no global scan — and the result passes
   the full offline checker. *)
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
  Fs.invalidate_shared region;
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
let crashed_fixture () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
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
  let norm (r : Recovery.report) = { r with Recovery.vtime_cycles = 0.0 } in
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
           { schedule = Simurgh_sim.Schedule.random 5L; workers = 3 })
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

(* The broken-parallel-sweep negative control: dropping every mark
   shard but worker 0's loses the subtree marks made by other workers,
   so the sweep frees reachable objects and the checker must object —
   proving the checker actually guards the parallel merge.  A full
   recovery afterwards converges the damaged image back to clean. *)
let test_drop_mark_shard_flags () =
  let region = crashed_fixture () in
  Fs.invalidate_shared region;
  let machine = Simurgh_sim.Machine.create () in
  let _ =
    Recovery.run
      ~par:(Recovery.Vtime { machine; workers = 2 })
      ~drop_mark_shard:true region
  in
  Alcotest.(check bool) "checker flags the lost marks" true
    (Simurgh_core.Check.run region <> []);
  Fs.invalidate_shared region;
  let _ = Recovery.run region in
  fsck_clean "full recovery converges the damage" region

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
   makespan and media under every driver, pinned to literal values so
   that any change which moves one of them shows up here. *)
let test_golden_recovery () =
  let region = golden_fixture () in
  let cp = Simurgh_nvmm.Region.checkpoint region in
  let recover par =
    Simurgh_nvmm.Region.restore region cp;
    Fs.invalidate_shared region;
    let _, r = Recovery.run ~par region in
    fsck_clean "golden image fsck" region;
    ( Fmt.str "%a" Recovery.pp_report r,
      Printf.sprintf "%h" r.Recovery.vtime_cycles,
      Digest.to_hex (Simurgh_nvmm.Region.media_digest region) )
  in
  let vtime workers =
    Recovery.Vtime { machine = Simurgh_sim.Machine.create (); workers }
  in
  let report =
    "files=772 dirs=14 symlinks=1 completed_deletes=0 completed_renames=0 \
     rolled_back=1 reclaimed(inodes=9 fentries=6) busy_cleared=0 \
     blocks(used=1116 free=261009) quarantined=0 retries=0 passes=2 \
     tasks(mark=15 sweep=27)"
  in
  let digest = "c2b9f0e9b4cfcb2ae96dc28dacf3a768" in
  List.iter
    (fun (what, par, cycles) ->
      let rep, vc, dg = recover par in
      Alcotest.(check string) (what ^ " report") report rep;
      Alcotest.(check string) (what ^ " vtime_cycles") cycles vc;
      Alcotest.(check string) (what ^ " media digest") digest dg)
    [
      ("seq", Recovery.Seq, "0x0p+0");
      ("vtime 1 worker", vtime 1, "0x1.062f362762763p+21");
      ("vtime 4 workers", vtime 4, "0x1.01bcbd306eb3ep+20");
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
          Alcotest.test_case "golden crash image" `Quick test_golden_recovery;
          QCheck_alcotest.to_alcotest prop_recovery_preserves_random_trees;
          QCheck_alcotest.to_alcotest prop_reach_matches_hashtbl;
        ] );
    ]

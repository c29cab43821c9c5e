(* Media-fault (uncorrectable NVMM error) handling.

   Poisoned lines model ECC-uncorrectable media errors: any load or
   store under one raises [Region.Media_error].  The file system must
   convert that into an [EIO] errno at the syscall boundary — with locks
   released and the process still running — and full recovery must
   quarantine (detach) namespace subtrees whose *metadata* sits on
   poisoned lines while leaving the rest of the tree usable. *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs
module Recovery = Simurgh_core.Recovery
module Check = Simurgh_core.Check
module Fentry = Simurgh_core.Fentry
module Inode = Simurgh_core.Inode
module Dirblock = Simurgh_core.Dirblock
module Slab = Simurgh_alloc.Slab_alloc
module Region = Simurgh_nvmm.Region

let fresh () =
  let region = Region.create (32 * 1024 * 1024) in
  (region, Fs.mkfs ~euid:0 region)

(* Address of the first data extent of [path]. *)
let first_extent fs path =
  let region = Fs.region fs in
  let _, fe = Fs.resolve fs path in
  let inode = Fentry.target region fe in
  let addr = ref 0 in
  (try
     Inode.iter_extents region inode (fun a _ ->
         addr := a;
         raise Exit)
   with Exit -> ());
  !addr

let expect_eio what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected EIO" what
  | exception Errno.Err (EIO, _) -> ()

(* A poisoned data line turns pread/pwrite into EIO error returns; the
   process, the fd and every other file keep working, and scrubbing the
   line (media replacement) makes the range usable again. *)
let test_eio_on_poisoned_data () =
  Simurgh_obs.Collect.install ();
  let region, fs = fresh () in
  Fs.create_file fs "/f";
  let fd = Fs.openf fs Types.wronly "/f" in
  ignore (Fs.append fs fd (Bytes.make 1024 'x'));
  Fs.close fs fd;
  let addr = first_extent fs "/f" in
  Alcotest.(check bool) "file has an extent" true (addr <> 0);
  Region.poison region addr 1;
  let fd = Fs.openf fs Types.rdwr "/f" in
  expect_eio "pread" (fun () -> Fs.pread fs fd ~pos:0 ~len:1024);
  expect_eio "pwrite" (fun () -> Fs.pwrite fs fd ~pos:0 (Bytes.make 64 'y'));
  (* the error is contained: same fd past the bad line, other files,
     metadata ops and new work all still succeed *)
  Alcotest.(check int) "stat still works" 1024 (Fs.stat fs "/f").Types.size;
  Fs.create_file fs "/g";
  Fs.rename fs "/g" "/h";
  Fs.unlink fs "/h";
  (* scrub = media repair: the range is readable/writable again *)
  Region.scrub region addr 1;
  ignore (Fs.pwrite fs fd ~pos:0 (Bytes.make 64 'y'));
  Alcotest.(check int) "readable after scrub" 1024
    (Bytes.length (Fs.pread fs fd ~pos:0 ~len:1024));
  Fs.close fs fd;
  let st = Region.stats region in
  Alcotest.(check bool) "media_errors counted" true
    (st.Region.media_errors >= 2);
  (* the obs counters export the fault-plane activity *)
  let run = Simurgh_obs.Collect.drain () in
  Alcotest.(check bool) "faults/eio_returns exported" true
    (Simurgh_obs.Metrics.get run.Simurgh_obs.Run.counters "faults/eio_returns"
    >= 2.0);
  Alcotest.(check bool) "faults/media_errors exported" true
    (Simurgh_obs.Metrics.get run.Simurgh_obs.Run.counters
       "faults/media_errors"
    >= 2.0)

(* Poisoned *metadata* (a file entry's slab object): recovery must
   quarantine the affected entries, keep the rest of the directory and
   an unrelated subtree intact, and leave a checker-clean file system.
   Poison is line-granular and slab slots are not line-aligned, so the
   one poisoned line may legitimately take the adjacent entry with it —
   but never more than the slots overlapping that line. *)
let test_quarantine_poisoned_fentry () =
  let region, fs = fresh () in
  Fs.mkdir fs "/d";
  Fs.mkdir fs "/d/sub";
  Fs.create_file fs "/d/sub/inner";
  Fs.create_file fs "/d/x";
  Fs.create_file fs "/d/y";
  let _, fe = Fs.resolve fs "/d/y" in
  (* one poisoned line over the entry's object header *)
  Region.poison region (fe - Slab.obj_header) 1;
  let fs', report = Recovery.mount_after_crash ~euid:0 region in
  Alcotest.(check bool) "quarantine reported" true
    (report.Recovery.quarantined >= 1);
  Alcotest.(check bool) "subtree intact" true (Fs.exists fs' "/d/sub/inner");
  Alcotest.(check bool) "victim detached" false (Fs.exists fs' "/d/y");
  (* the namespace slot is free again: the name can be reused, and the
     recycled entry must not land on the quarantined slab slot *)
  Fs.create_file fs' "/d/y";
  Alcotest.(check bool) "name reusable" true (Fs.exists fs' "/d/y");
  Alcotest.(check (list string)) "checker clean after quarantine" []
    (List.map Check.violation_to_string (Check.run region))

(* Poisoned directory *hash block* of a subdirectory: the whole subtree
   behind it is detached in one quarantine and its storage reclaimed;
   the parent directory stays fully usable. *)
let test_quarantine_poisoned_subdir_block () =
  let region, fs = fresh () in
  Fs.mkdir fs "/d";
  Fs.create_file fs "/d/x";
  Fs.mkdir fs "/d/sub";
  Fs.create_file fs "/d/sub/inner";
  let _, sfe = Fs.resolve fs "/d/sub" in
  let head = Fentry.dirblock (Fs.region fs) sfe in
  (* poison the first row line (not the block header) of the child's
     hash block: traversal into the subtree faults *)
  Region.poison region (Dirblock.f_slot region head 0 0) 1;
  let fs', report = Recovery.mount_after_crash ~euid:0 region in
  Alcotest.(check bool) "quarantine reported" true
    (report.Recovery.quarantined >= 1);
  Alcotest.(check bool) "sibling intact" true (Fs.exists fs' "/d/x");
  Alcotest.(check bool) "subtree detached" false (Fs.exists fs' "/d/sub");
  (* the directory keeps working, including recreating the lost name *)
  Fs.mkdir fs' "/d/sub";
  Fs.create_file fs' "/d/sub/fresh";
  Alcotest.(check (list string)) "checker clean after quarantine" []
    (List.map Check.violation_to_string (Check.run region))

exception Crash_now

(* A poisoned log slot hides whether a rename is pending, so the head is
   as unreadable as with a poisoned header: a rename crashed after its
   swap, with slot 0's line poisoned, quarantines the directory, and the
   checker is clean.  Read as "no log", the slot lost both names and
   leaked their objects. *)
let test_quarantine_unreadable_log_slot () =
  List.iter
    (fun log_ring ->
      let region = Region.create (32 * 1024 * 1024) in
      let fs = Fs.mkfs ~euid:0 ~log_ring region in
      Fs.mkdir fs "/d";
      for i = 0 to 3 do
        Fs.create_file fs (Printf.sprintf "/d/f%d" i)
      done;
      Fs.create_file fs "/x";
      let _, dfe = Fs.resolve fs "/d" in
      let head = Fentry.dirblock region dfe in
      Fs.set_crash_hook fs (fun l -> if l = "rename:swap" then raise Crash_now);
      (try Fs.rename fs "/d/f0" "/d/g0" with Crash_now -> ());
      Alcotest.(check bool) "rename left its log pending" true
        (Dirblock.Log.pending region head ~slot:0);
      Region.poison region (Dirblock.Log.base head 0) 1;
      let label = Printf.sprintf "ring %d: " log_ring in
      let fs', report = Recovery.mount_after_crash ~euid:0 region in
      Alcotest.(check bool) (label ^ "quarantine reported") true
        (report.Recovery.quarantined >= 1);
      Alcotest.(check bool) (label ^ "directory detached") false
        (Fs.exists fs' "/d");
      Alcotest.(check bool) (label ^ "sibling intact") true
        (Fs.exists fs' "/x");
      Alcotest.(check (list string)) (label ^ "checker clean") []
        (List.map Check.violation_to_string (Check.run region)))
    [ 1; 4 ]

(* Regression: poison in the ROOT directory's own chain used to escape
   [Recovery.run] as a raised [Media_error] from deep in the mark
   descent — the root has no parent slot to quarantine into, so the old
   per-entry rollback had nowhere to go and recovery aborted half-
   marked.  Now the partially-unreadable chain block is spliced out and
   every entry in its readable rows is salvaged (relinked into the
   surviving chain): no file is lost, and the checker is clean. *)
let test_media_error_in_root_chain () =
  let region, fs = fresh () in
  (* 12 names hashing to row 0 of the 64-row first block and row 64 of
     the 128-row growth block: the first 8 fill the row, the next 4
     force chain growth and land in the second block outside its row 0 *)
  let name_probing i =
    let rec go j =
      let n = Printf.sprintf "n%d_%d" i j in
      if Simurgh_core.Name_hash.hash n mod 128 = 64 then n else go (j + 1)
    in
    go 0
  in
  let names = List.init 12 name_probing in
  List.iter (fun n -> Fs.create_file fs ("/" ^ n)) names;
  let root = Simurgh_core.Layout.root_fentry (Fs.layout fs) in
  let head = Fentry.dirblock region root in
  let b2 = Dirblock.next region head in
  Alcotest.(check bool) "root chain grew a second block" true (b2 <> 0);
  (* poison the second line of the growth block: the header words
     (next/rows/ring, first line) stay readable, its row 0 faults *)
  Region.poison region (b2 + 64) 1;
  let fs', report = Recovery.mount_after_crash ~euid:0 region in
  Alcotest.(check bool) "quarantine reported" true
    (report.Recovery.quarantined >= 1);
  List.iter
    (fun n ->
      Alcotest.(check bool) ("survives: " ^ n) true (Fs.exists fs' ("/" ^ n)))
    names;
  Alcotest.(check (list string)) "checker clean after splice" []
    (List.map Check.violation_to_string (Check.run region))

(* Satellite of the fault plane: the free-space accounting must survive
   poison.  Freeing a file whose data sits on a poisoned line must
   withhold the poisoned block from the free lists (re-listing it would
   hand a known-bad block to the next allocation), statfs must report it
   as quarantined, and free + used + quarantined must keep partitioning
   the capacity -- including after a full crash-recovery rebuild. *)
let test_statfs_accounting_after_poisoned_free () =
  let region, fs = fresh () in
  Fs.mkdir fs "/d";
  Fs.create_file fs "/d/f";
  let fd = Fs.openf fs Types.wronly "/d/f" in
  ignore (Fs.append fs fd (Bytes.make 4096 'x'));
  Fs.close fs fd;
  let st0 = Fs.statfs fs in
  Alcotest.(check int) "clean media: nothing quarantined" 0
    st0.Fs.quarantined_blocks;
  let _, fe = Fs.resolve fs "/d/f" in
  let inode = Fentry.target region fe in
  let mapped = Fs.mapped_blocks fs inode in
  let addr = first_extent fs "/d/f" in
  Region.poison region addr 1;
  (* the free path must skip the poisoned block (pre-fix it wrote the
     free-list node straight into it, hitting the media error and
     re-listing a known-bad block) *)
  Fs.unlink fs "/d/f";
  let st1 = Fs.statfs fs in
  Alcotest.(check int) "one block quarantined" 1 st1.Fs.quarantined_blocks;
  Alcotest.(check int) "freed all mapped blocks but the poisoned one"
    (st0.Fs.free_blocks + mapped - 1)
    st1.Fs.free_blocks;
  Alcotest.(check int) "free + used + quarantined = capacity"
    st1.Fs.total_blocks
    (st1.Fs.free_blocks + st1.Fs.used_blocks + st1.Fs.quarantined_blocks);
  (* crash: recovery rebuilds the free lists from the reachable tree and
     must reach the same accounting *)
  let fs2, _report = Recovery.mount_after_crash ~euid:0 region in
  let st2 = Fs.statfs fs2 in
  Alcotest.(check int) "still quarantined after recovery" 1
    st2.Fs.quarantined_blocks;
  Alcotest.(check int) "recovery rebuild agrees on free" st1.Fs.free_blocks
    st2.Fs.free_blocks;
  Alcotest.(check int) "partition holds after recovery" st2.Fs.total_blocks
    (st2.Fs.free_blocks + st2.Fs.used_blocks + st2.Fs.quarantined_blocks);
  (* the namespace is intact and the quarantined block stays withheld:
     fresh traffic never lands on it *)
  Fs.create_file fs2 "/d/g";
  let fd = Fs.openf fs2 Types.wronly "/d/g" in
  ignore (Fs.append fs2 fd (Bytes.make 4096 'y'));
  Fs.close fs2 fd;
  Alcotest.(check (list string)) "checker clean" []
    (List.map Check.violation_to_string (Check.run region))

let () =
  Alcotest.run "media"
    [
      ( "faults",
        [
          Alcotest.test_case "EIO on poisoned data, scrub heals" `Quick
            test_eio_on_poisoned_data;
          Alcotest.test_case "quarantine poisoned fentry" `Quick
            test_quarantine_poisoned_fentry;
          Alcotest.test_case "quarantine poisoned subdir block" `Quick
            test_quarantine_poisoned_subdir_block;
          Alcotest.test_case "quarantine unreadable log slot" `Quick
            test_quarantine_unreadable_log_slot;
          Alcotest.test_case "media error in the root chain" `Quick
            test_media_error_in_root_chain;
          Alcotest.test_case "statfs accounting after poisoned free" `Quick
            test_statfs_accounting_after_poisoned_free;
        ] );
    ]

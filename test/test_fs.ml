(* Simurgh file-system tests: the shared POSIX suite plus Simurgh-specific
   behaviours (permissions, persistence across remount, long names,
   extent stress, open-file map). *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs

let fresh_region () = Simurgh_nvmm.Region.create (128 * 1024 * 1024)
let fresh () = Fs.mkfs ~euid:0 (fresh_region ())

module Posix =
  Fs_suite.Make
    (Fs)
    (struct
      let fresh = fresh
    end)

let expect_err expected f =
  match f () with
  | _ -> Alcotest.failf "expected %s" (Errno.to_string expected)
  | exception Errno.Err (e, _) ->
      Alcotest.(check string) "errno" (Errno.to_string expected)
        (Errno.to_string e)

(* The scaled configuration (striped directory locks, per-thread
   allocator caches, DRAM resolve cache) must be semantically invisible:
   the whole POSIX suite runs again with every feature on. *)
let fresh_scaled () =
  Fs.mkfs ~euid:0 ~striped_locks:true ~rcache:true ~alloc_caches:true
    (fresh_region ())

module Posix_scaled =
  Fs_suite.Make
    (Fs)
    (struct
      let fresh = fresh_scaled
    end)

(* --- Simurgh-specific ---------------------------------------------------- *)

let test_remount_persists () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/home";
  Fs.create_file fs "/home/file";
  let fd = Fs.openf fs Types.wronly "/home/file" in
  ignore (Fs.append fs fd (Bytes.of_string "persistent data"));
  Fs.close fs fd;
  Fs.unmount fs;
  (* everything must be readable through a fresh mount of the same bytes *)
  let fs2 = Fs.mount ~euid:0 region in
  Alcotest.(check bool) "file survives" true (Fs.exists fs2 "/home/file");
  let fd = Fs.openf fs2 Types.rdonly "/home/file" in
  Alcotest.(check string) "data survives" "persistent data"
    (Bytes.to_string (Fs.pread fs2 fd ~pos:0 ~len:100));
  Fs.close fs2 fd

let test_permissions () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:1000 ~egid:1000 region in
  (* root dir is 0755 owned by root: a user cannot create at / *)
  expect_err Errno.EACCES (fun () -> Fs.create_file fs "/denied");
  (* but root can *)
  Fs.set_creds fs ~euid:0 ~egid:0;
  Fs.mkdir fs ~perm:0o700 "/rootonly";
  Fs.mkdir fs ~perm:0o777 "/public";
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  expect_err Errno.EACCES (fun () -> Fs.create_file fs "/rootonly/f");
  Fs.create_file fs ~perm:0o600 "/public/mine";
  (* another user cannot read a 0600 file *)
  Fs.set_creds fs ~euid:2000 ~egid:2000;
  expect_err Errno.EACCES (fun () ->
      ignore (Fs.openf fs Types.rdonly "/public/mine"))

let test_long_name_spill () =
  let fs = fresh () in
  let name = "/" ^ String.make 200 'z' in
  Fs.create_file fs name;
  Alcotest.(check bool) "long name found" true (Fs.exists fs name);
  Alcotest.(check bool) "listed" true
    (List.exists (fun n -> String.length n = 200) (Fs.readdir fs "/"));
  Fs.unlink fs name;
  Alcotest.(check bool) "removed" false (Fs.exists fs name)

let test_name_too_long () =
  let fs = fresh () in
  expect_err Errno.ENAMETOOLONG (fun () ->
      Fs.create_file fs ("/" ^ String.make 300 'x'))

let test_extent_chain_stress () =
  let fs = fresh () in
  Fs.create_file fs "/huge";
  let fd = Fs.openf fs Types.rdwr "/huge" in
  (* interleaved writes force many extents (beyond the 4 inline ones) *)
  let chunk = Bytes.make 8192 'e' in
  for i = 0 to 299 do
    ignore (Fs.pwrite fs fd ~pos:(i * 8192) chunk)
  done;
  Alcotest.(check int) "size" (300 * 8192) (Fs.stat fs "/huge").Types.size;
  (* random-position readback *)
  let b = Fs.pread fs fd ~pos:(123 * 8192) ~len:16 in
  Alcotest.(check string) "content" (String.make 16 'e') (Bytes.to_string b);
  Fs.close fs fd;
  (* unlink returns every block *)
  let free_before =
    Simurgh_alloc.Block_alloc.free_blocks (Fs.layout fs).Simurgh_core.Layout.balloc
  in
  Fs.unlink fs "/huge";
  let free_after =
    Simurgh_alloc.Block_alloc.free_blocks (Fs.layout fs).Simurgh_core.Layout.balloc
  in
  Alcotest.(check bool) "blocks freed" true (free_after > free_before)

let test_write_updates_mtime_and_size_order () =
  let fs = fresh () in
  Fs.create_file fs "/f";
  let fd = Fs.openf fs Types.wronly "/f" in
  ignore (Fs.append fs fd (Bytes.make 10 'x'));
  let m1 = (Fs.stat fs "/f").Types.mtime in
  ignore (Fs.append fs fd (Bytes.make 10 'x'));
  let m2 = (Fs.stat fs "/f").Types.mtime in
  Alcotest.(check bool) "mtime advances" true (m2 >= m1);
  Fs.close fs fd

let test_open_file_map_reuse () =
  let fs = fresh () in
  Fs.create_file fs "/f";
  let fd1 = Fs.openf fs Types.rdonly "/f" in
  Fs.close fs fd1;
  let fd2 = Fs.openf fs Types.rdonly "/f" in
  (* descriptors are recycled *)
  Alcotest.(check int) "fd recycled" fd1 fd2;
  Fs.close fs fd2

let test_write_to_readonly_fd () =
  let fs = fresh () in
  Fs.create_file fs "/f";
  let fd = Fs.openf fs Types.rdonly "/f" in
  expect_err Errno.EBADF (fun () ->
      ignore (Fs.pwrite fs fd ~pos:0 (Bytes.make 1 'x')));
  Fs.close fs fd

let test_read_from_writeonly_fd () =
  let fs = fresh () in
  Fs.create_file fs "/f";
  let fd = Fs.openf fs Types.wronly "/f" in
  expect_err Errno.EBADF (fun () -> ignore (Fs.pread fs fd ~pos:0 ~len:1));
  Fs.close fs fd

let test_statfs_tracks_usage () =
  let fs = fresh () in
  let st0 = Fs.statfs fs in
  Alcotest.(check int) "accounting sane" st0.Fs.total_blocks
    st0.Fs.total_blocks;
  Fs.create_file fs "/f";
  let fd = Fs.openf fs Types.wronly "/f" in
  ignore (Fs.append fs fd (Bytes.make 100_000 'x'));
  Fs.close fs fd;
  let st1 = Fs.statfs fs in
  Alcotest.(check bool) "blocks consumed" true
    (st1.Fs.free_blocks < st0.Fs.free_blocks);
  Alcotest.(check int) "one more inode" (st0.Fs.live_inodes + 1)
    st1.Fs.live_inodes;
  Fs.unlink fs "/f";
  let st2 = Fs.statfs fs in
  Alcotest.(check int) "blocks restored" st0.Fs.free_blocks st2.Fs.free_blocks;
  Alcotest.(check int) "inode freed" st0.Fs.live_inodes st2.Fs.live_inodes

let test_deep_hierarchy () =
  let fs = fresh () in
  let path = ref "" in
  for i = 0 to 19 do
    path := Printf.sprintf "%s/d%d" !path i;
    Fs.mkdir fs !path
  done;
  Fs.create_file fs (!path ^ "/leaf");
  Alcotest.(check bool) "deep leaf" true (Fs.exists fs (!path ^ "/leaf"))

let test_dir_hash_block_freed_on_rmdir () =
  let fs = fresh () in
  let balloc = (Fs.layout fs).Simurgh_core.Layout.balloc in
  let before = Simurgh_alloc.Block_alloc.free_blocks balloc in
  Fs.mkdir fs "/tmp";
  Fs.rmdir fs "/tmp";
  let after = Simurgh_alloc.Block_alloc.free_blocks balloc in
  Alcotest.(check bool) "dir blocks returned" true (after >= before - 1)

let test_rename_directory () =
  let fs = fresh () in
  Fs.mkdir fs "/olddir";
  Fs.create_file fs "/olddir/content";
  Fs.rename fs "/olddir" "/newdir";
  Alcotest.(check bool) "renamed dir" true (Fs.exists fs "/newdir/content");
  Alcotest.(check bool) "old gone" false (Fs.exists fs "/olddir")

let test_symlink_intermediate () =
  let fs = fresh () in
  Fs.mkdir fs "/real";
  Fs.create_file fs "/real/f";
  Fs.symlink fs ~target:"/real" "/alias";
  Alcotest.(check bool) "through symlinked dir" true
    (Fs.exists fs "/alias/f")

let test_unlink_during_shared_names () =
  (* names hashing to the same lock row must not interfere *)
  let fs = fresh () in
  Fs.mkdir fs "/d";
  let names = List.init 200 (fun i -> Printf.sprintf "/d/n%d" i) in
  List.iter (Fs.create_file fs) names;
  (* delete every other, check the rest *)
  List.iteri (fun i n -> if i mod 2 = 0 then Fs.unlink fs n) names;
  List.iteri
    (fun i n ->
      Alcotest.(check bool) n (i mod 2 = 1) (Fs.exists fs n))
    names

let prop_random_file_population =
  QCheck.Test.make ~name:"random create/unlink matches a set model" ~count:30
    QCheck.(list (pair bool (int_range 0 60)))
    (fun ops ->
      let fs = fresh () in
      Fs.mkdir fs "/p";
      let model = Hashtbl.create 64 in
      List.iter
        (fun (create, k) ->
          let path = Printf.sprintf "/p/file%02d" k in
          if create then (
            match Fs.create_file fs path with
            | () -> Hashtbl.replace model path ()
            | exception Errno.Err (EEXIST, _) -> ())
          else
            match Fs.unlink fs path with
            | () -> Hashtbl.remove model path
            | exception Errno.Err (ENOENT, _) -> ())
        ops;
      let listed = List.sort compare (Fs.readdir fs "/p") in
      let expected =
        Hashtbl.fold (fun p () acc -> Filename.basename p :: acc) model []
        |> List.sort compare
      in
      listed = expected)

(* Regression: the volatile lock registries used to grow forever —
   rmdir left the directory's row and append locks behind (and pre-fix
   this test fails with hundreds of leaked row locks). *)
let test_lock_registries_reclaimed () =
  let fs = fresh () in
  let rows0, files0, appends0 = Simurgh_core.Locks.sizes (Fs.locks fs) in
  for round = 1 to 3 do
    let dir = Printf.sprintf "/churn%d" round in
    Fs.mkdir fs dir;
    for i = 0 to 199 do
      Fs.create_file fs (Printf.sprintf "%s/f%d" dir i)
    done;
    for i = 0 to 199 do
      Fs.unlink fs (Printf.sprintf "%s/f%d" dir i)
    done;
    Fs.rmdir fs dir
  done;
  let rows, files, appends = Simurgh_core.Locks.sizes (Fs.locks fs) in
  Alcotest.(check int) "file locks reclaimed" files0 files;
  (* the root directory's own rows (one per /churnN name) legitimately
     stay; everything belonging to the removed directories must go *)
  Alcotest.(check bool) "row locks reclaimed" true (rows <= rows0 + 3);
  Alcotest.(check bool) "append locks reclaimed" true (appends <= appends0 + 1)

(* --- fd edge cases (regressions) ----------------------------------------- *)

(* pread/pwrite used to treat a negative offset as a huge sparse file
   region (pwrite) or return garbage (pread); POSIX wants EINVAL *)
let test_pread_pwrite_negative_args () =
  let fs = fresh () in
  Fs.create_file fs "/f";
  let fd = Fs.openf fs Types.rdwr "/f" in
  ignore (Fs.append fs fd (Bytes.of_string "abc"));
  expect_err Errno.EINVAL (fun () ->
      Fs.pwrite fs fd ~pos:(-1) (Bytes.of_string "x"));
  expect_err Errno.EINVAL (fun () -> Fs.pread fs fd ~pos:(-1) ~len:1);
  expect_err Errno.EINVAL (fun () -> Fs.pread fs fd ~pos:0 ~len:(-1));
  (* the legal calls still work after the rejected ones *)
  Alcotest.(check string) "intact" "abc"
    (Bytes.to_string (Fs.pread fs fd ~pos:0 ~len:10));
  Fs.close fs fd

(* --- scaled configuration ------------------------------------------------- *)

let fsck_clean what region =
  Alcotest.(check (list string)) what []
    (List.map Simurgh_core.Check.violation_to_string
       (Simurgh_core.Check.run region))

(* Enough creates in one directory to overflow every 8-slot hash row of
   the first block repeatedly: the striped insert path must take its
   row-full detour (busy flag, append lock, chain growth) many times and
   still produce a correct, fsck-clean directory. *)
let test_striped_chain_growth () =
  let region = fresh_region () in
  let fs =
    Fs.mkfs ~euid:0 ~striped_locks:true ~rcache:true ~alloc_caches:true region
  in
  Fs.mkdir fs "/d";
  let n = 2000 in
  for i = 0 to n - 1 do
    Fs.create_file fs (Printf.sprintf "/d/f%d" i)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "f%d exists" i)
      true
      (Fs.exists fs (Printf.sprintf "/d/f%d" i))
  done;
  expect_err Errno.EEXIST (fun () -> Fs.create_file fs "/d/f0");
  for i = 0 to (n / 2) - 1 do
    Fs.unlink fs (Printf.sprintf "/d/f%d" i)
  done;
  Alcotest.(check bool) "unlinked gone" false (Fs.exists fs "/d/f0");
  Alcotest.(check bool) "kept alive" true
    (Fs.exists fs (Printf.sprintf "/d/f%d" (n - 1)));
  fsck_clean "after striped churn" region

let test_striped_rename () =
  let region = fresh_region () in
  let fs =
    Fs.mkfs ~euid:0 ~striped_locks:true ~rcache:true ~alloc_caches:true region
  in
  Fs.mkdir fs "/s";
  Fs.mkdir fs "/t";
  for i = 0 to 99 do
    Fs.create_file fs (Printf.sprintf "/s/a%d" i)
  done;
  (* same-directory renames go through the reserve-then-log fast path *)
  for i = 0 to 49 do
    Fs.rename fs (Printf.sprintf "/s/a%d" i) (Printf.sprintf "/s/b%d" i)
  done;
  (* cross-directory renames, including replacing an existing target *)
  Fs.create_file fs "/t/b0";
  for i = 0 to 49 do
    Fs.rename fs (Printf.sprintf "/s/b%d" i) (Printf.sprintf "/t/b%d" i)
  done;
  for i = 0 to 49 do
    Alcotest.(check bool) "moved" true
      (Fs.exists fs (Printf.sprintf "/t/b%d" i));
    Alcotest.(check bool) "source gone" false
      (Fs.exists fs (Printf.sprintf "/s/b%d" i))
  done;
  Alcotest.(check bool) "untouched tail" true (Fs.exists fs "/s/a99");
  fsck_clean "after striped renames" region

(* The scaled features are volatile-only: a region written by a scaled
   mount must read back bit-compatibly through a stock (seed) mount. *)
let test_striped_layout_compatible () =
  let region = fresh_region () in
  let fs =
    Fs.mkfs ~euid:0 ~striped_locks:true ~rcache:true ~alloc_caches:true region
  in
  Fs.mkdir fs "/home";
  Fs.create_file fs "/home/file";
  let fd = Fs.openf fs Types.wronly "/home/file" in
  ignore (Fs.append fs fd (Bytes.of_string "same layout"));
  Fs.close fs fd;
  Fs.unmount fs;
  Fs.invalidate_shared region;
  (* stock mount: no striping, no caches *)
  let fs2 = Fs.mount ~euid:0 region in
  let fd = Fs.openf fs2 Types.rdonly "/home/file" in
  Alcotest.(check string) "data readable by seed mount" "same layout"
    (Bytes.to_string (Fs.pread fs2 fd ~pos:0 ~len:100));
  Fs.close fs2 fd;
  fsck_clean "seed mount of scaled image" region

(* --- resolve cache -------------------------------------------------------- *)

let rcache_of fs =
  match fs.Fs.rcache with
  | Some rc -> rc
  | None -> Alcotest.fail "rcache expected"

(* Name mutations through the FS must never let the resolve cache serve
   a stale entry. *)
let test_rcache_fs_invalidation () =
  let region = fresh_region () in
  let fs = Fs.mkfs ~euid:0 ~striped_locks:true ~rcache:true region in
  Fs.mkdir fs "/d";
  Fs.create_file fs "/d/a";
  ignore (Fs.stat fs "/d/a");
  ignore (Fs.stat fs "/d/a");
  let s = Simurgh_core.Rcache.stats (rcache_of fs) in
  Alcotest.(check bool) "repeated resolve hits" true
    (s.Simurgh_core.Rcache.hits > 0);
  (* unlink: the cached entry must die with the name *)
  Fs.unlink fs "/d/a";
  expect_err Errno.ENOENT (fun () -> Fs.stat fs "/d/a");
  (* recreate: the fresh file must be served, not the old entry *)
  Fs.create_file fs "/d/a";
  let fd = Fs.openf fs Types.wronly "/d/a" in
  ignore (Fs.append fs fd (Bytes.of_string "new"));
  Fs.close fs fd;
  let fd = Fs.openf fs Types.rdonly "/d/a" in
  Alcotest.(check string) "recreated content" "new"
    (Bytes.to_string (Fs.pread fs fd ~pos:0 ~len:10));
  Fs.close fs fd;
  (* rename: source dies, destination resolves *)
  Fs.rename fs "/d/a" "/d/b";
  expect_err Errno.ENOENT (fun () -> Fs.stat fs "/d/a");
  ignore (Fs.stat fs "/d/b");
  (* rmdir + fresh directory of the same name: generation bump must kill
     every cached child of the old one *)
  Fs.unlink fs "/d/b";
  Fs.rmdir fs "/d";
  Fs.mkdir fs "/d";
  expect_err Errno.ENOENT (fun () -> Fs.stat fs "/d/b")

let test_rcache_unit () =
  let module Rc = Simurgh_core.Rcache in
  let rc = Rc.create () in
  Alcotest.(check (option int)) "cold miss" None (Rc.lookup rc ~dir:7 "a");
  Rc.insert rc ~dir:7 "a" 100;
  Alcotest.(check (option int)) "hit" (Some 100) (Rc.lookup rc ~dir:7 "a");
  Alcotest.(check (option int)) "other dir" None (Rc.lookup rc ~dir:8 "a");
  Rc.invalidate rc ~dir:7 "a";
  Alcotest.(check (option int)) "name invalidated" None
    (Rc.lookup rc ~dir:7 "a");
  Rc.insert rc ~dir:7 "a" 100;
  Rc.insert rc ~dir:7 "b" 101;
  Rc.invalidate_dir rc 7;
  Alcotest.(check (option int)) "gen bump kills a" None
    (Rc.lookup rc ~dir:7 "a");
  Alcotest.(check (option int)) "gen bump kills b" None
    (Rc.lookup rc ~dir:7 "b");
  (* inserts after the bump are valid under the new generation *)
  Rc.insert rc ~dir:7 "a" 200;
  Alcotest.(check (option int)) "new gen entry" (Some 200)
    (Rc.lookup rc ~dir:7 "a");
  (* clear drops entries but generations stay sticky *)
  Rc.clear rc;
  Alcotest.(check (option int)) "cleared" None (Rc.lookup rc ~dir:7 "a");
  let s = Rc.stats rc in
  Alcotest.(check int) "inserts counted" 4 s.Rc.inserts;
  Alcotest.(check bool) "invalidations counted" true (s.Rc.invalidations >= 2)

(* --- byte-range data path (range_locks) ---------------------------------- *)

(* The byte-range configuration must be semantically invisible too: the
   whole POSIX suite runs a third time with range locking (and every
   scaled feature) on. *)
let fresh_range () =
  Fs.mkfs ~euid:0 ~striped_locks:true ~rcache:true ~alloc_caches:true
    ~range_locks:true (fresh_region ())

module Posix_range =
  Fs_suite.Make
    (Fs)
    (struct
      let fresh = fresh_range
    end)

(* --- rename-log ring ------------------------------------------------------ *)

(* The log-ring format (per-directory ring of rename-log slots) must be
   semantically invisible: the whole POSIX suite runs a fourth time with
   the ring (and every scaled feature) on. *)
let fresh_ring () =
  Fs.mkfs ~euid:0 ~striped_locks:true ~rcache:true ~alloc_caches:true
    ~log_ring:8 (fresh_region ())

module Posix_ring =
  Fs_suite.Make
    (Fs)
    (struct
      let fresh = fresh_ring
    end)

(* The ring size is a format-time property: it must survive remount and
   be picked up from the superblock, not from mount options. *)
let test_ring_format_persists () =
  let region = fresh_region () in
  let fs =
    Fs.mkfs ~euid:0 ~striped_locks:true ~rcache:true ~alloc_caches:true
      ~log_ring:8 region
  in
  Alcotest.(check int) "formatted ring" 8
    (Fs.layout fs).Simurgh_core.Layout.log_ring;
  Fs.mkdir fs "/d";
  Fs.create_file fs "/d/a";
  Fs.rename fs "/d/a" "/d/b";
  Fs.unmount fs;
  Fs.invalidate_shared region;
  (* a plain mount re-reads the ring size from the superblock *)
  let fs2 = Fs.mount ~euid:0 region in
  Alcotest.(check int) "remounted ring" 8
    (Fs.layout fs2).Simurgh_core.Layout.log_ring;
  Alcotest.(check bool) "rename survived" true (Fs.exists fs2 "/d/b");
  Fs.rename fs2 "/d/b" "/d/c";
  Alcotest.(check bool) "rename on remount" true (Fs.exists fs2 "/d/c");
  fsck_clean "ring image" region

(* Rename churn through the ring path: many renames in one directory
   (every one claims a ring slot) stay correct and fsck-clean, and the
   observability counters record the slot traffic. *)
let test_ring_rename_churn () =
  let region = fresh_region () in
  let fs =
    Fs.mkfs ~euid:0 ~striped_locks:true ~rcache:true ~alloc_caches:true
      ~log_ring:4 region
  in
  Fs.mkdir fs "/s";
  Fs.mkdir fs "/t";
  for i = 0 to 99 do
    Fs.create_file fs (Printf.sprintf "/s/a%d" i)
  done;
  for i = 0 to 49 do
    Fs.rename fs (Printf.sprintf "/s/a%d" i) (Printf.sprintf "/s/b%d" i)
  done;
  Fs.create_file fs "/t/b0";
  for i = 0 to 49 do
    Fs.rename fs (Printf.sprintf "/s/b%d" i) (Printf.sprintf "/t/b%d" i)
  done;
  for i = 0 to 49 do
    Alcotest.(check bool) "moved" true
      (Fs.exists fs (Printf.sprintf "/t/b%d" i));
    Alcotest.(check bool) "source gone" false
      (Fs.exists fs (Printf.sprintf "/s/b%d" i))
  done;
  Alcotest.(check bool) "slot acquisitions counted" true
    (Simurgh_core.Locks.log_slot_acquisitions (Fs.locks fs) >= 100);
  fsck_clean "after ring renames" region

let check_span what b ~pos ~len c =
  for i = pos to pos + len - 1 do
    if Bytes.get b i <> c then
      Alcotest.failf "%s: byte %d is %C, want %C" what i (Bytes.get b i) c
  done

(* pwrite far past EOF: the hole must read back as zeros, never as the
   stale content of a recycled block *)
let test_pwrite_hole_zero fresh () =
  let fs = fresh () in
  (* churn some data through the allocator so the hole's blocks are
     recycled ones that previously held non-zero bytes *)
  Fs.create_file fs "/junk";
  let fd = Fs.openf fs Types.rdwr "/junk" in
  ignore (Fs.pwrite fs fd ~pos:0 (Bytes.make 16384 'J'));
  Fs.close fs fd;
  Fs.unlink fs "/junk";
  Fs.create_file fs "/f";
  let fd = Fs.openf fs Types.rdwr "/f" in
  ignore (Fs.pwrite fs fd ~pos:0 (Bytes.make 100 'a'));
  ignore (Fs.pwrite fs fd ~pos:9000 (Bytes.make 50 'b'));
  let st = Fs.stat fs "/f" in
  Alcotest.(check int) "size" 9050 st.Types.size;
  let got = Fs.pread fs fd ~pos:0 ~len:9050 in
  check_span "prefix" got ~pos:0 ~len:100 'a';
  check_span "hole reads zero" got ~pos:100 ~len:8900 '\000';
  check_span "tail" got ~pos:9000 ~len:50 'b';
  Fs.close fs fd

(* ftruncate shrink then grow: a partial shrink keeps the file's blocks,
   so growing back must not re-expose the pre-shrink bytes *)
let test_truncate_shrink_grow fresh () =
  let fs = fresh () in
  Fs.create_file fs "/t";
  let fd = Fs.openf fs Types.rdwr "/t" in
  ignore (Fs.pwrite fs fd ~pos:0 (Bytes.make 8192 'x'));
  Fs.truncate fs "/t" 100;
  Fs.truncate fs "/t" 8192;
  let got = Fs.pread fs fd ~pos:0 ~len:8192 in
  check_span "kept prefix" got ~pos:0 ~len:100 'x';
  check_span "re-exposed bytes zero" got ~pos:100 ~len:(8192 - 100) '\000';
  Fs.close fs fd

(* appends through two fds interleave at reservation granularity and
   the file stays dense (no gap, no overlap) *)
let test_range_append_two_fds () =
  let fs = fresh_range () in
  Fs.create_file fs "/a";
  let fd1 = Fs.openf fs Types.wronly "/a" in
  let fd2 = Fs.openf fs Types.wronly "/a" in
  ignore (Fs.append fs fd1 (Bytes.make 4096 'p'));
  ignore (Fs.append fs fd2 (Bytes.make 4096 'q'));
  ignore (Fs.append fs fd1 (Bytes.make 100 'r'));
  Fs.close fs fd1;
  Fs.close fs fd2;
  let st = Fs.stat fs "/a" in
  Alcotest.(check int) "size" 8292 st.Types.size;
  let fd = Fs.openf fs Types.rdonly "/a" in
  let got = Fs.pread fs fd ~pos:0 ~len:8292 in
  check_span "first append" got ~pos:0 ~len:4096 'p';
  check_span "second append" got ~pos:4096 ~len:4096 'q';
  check_span "third append" got ~pos:8192 ~len:100 'r';
  Fs.close fs fd

(* O_TRUNC must reset the volatile reserve/publish state along with the
   persistent size, so the next append lands at offset 0 *)
let test_range_otrunc_resets () =
  let fs = fresh_range () in
  Fs.create_file fs "/o";
  let fd = Fs.openf fs Types.rdwr "/o" in
  ignore (Fs.append fs fd (Bytes.make 4096 'x'));
  Fs.close fs fd;
  let fd = Fs.openf fs { Types.rdwr with Types.trunc = true } "/o" in
  Alcotest.(check int) "truncated" 0 (Fs.stat fs "/o").Types.size;
  ignore (Fs.append fs fd (Bytes.make 10 'y'));
  Alcotest.(check int) "appended at 0" 10 (Fs.stat fs "/o").Types.size;
  let got = Fs.pread fs fd ~pos:0 ~len:10 in
  check_span "content" got ~pos:0 ~len:10 'y';
  Fs.close fs fd

let test_rows_of_range_edges () =
  let module L = Simurgh_core.Locks in
  let bs = L.range_row_bytes in
  Alcotest.(check (list int)) "len=0" [] (L.rows_of_range ~pos:512 ~len:0);
  Alcotest.(check (list int)) "negative pos" [] (L.rows_of_range ~pos:(-1) ~len:8);
  Alcotest.(check (list int)) "straddle at block-1" [ 0; 1 ]
    (L.rows_of_range ~pos:(bs - 1) ~len:2);
  Alcotest.(check (list int)) "single byte at block-1" [ 0 ]
    (L.rows_of_range ~pos:(bs - 1) ~len:1);
  Alcotest.(check (list int)) "whole-file span" [ 0; 1; 2; 3 ]
    (L.rows_of_range ~pos:0 ~len:(4 * bs))

(* exact coverage: the returned rows are precisely the rows any byte of
   [pos, pos+len) falls in, ascending and without duplicates *)
let prop_rows_of_range =
  QCheck.Test.make ~name:"Locks.rows_of_range covers exactly [pos, pos+len)"
    ~count:200
    QCheck.(pair (int_range (-2) 20000) (int_range (-2) 20000))
    (fun (pos, len) ->
      let module L = Simurgh_core.Locks in
      let rows = L.rows_of_range ~pos ~len in
      if len <= 0 || pos < 0 then rows = []
      else begin
        let module IS = Set.Make (Int) in
        let s = ref IS.empty in
        for i = pos to pos + len - 1 do
          s := IS.add (i / L.range_row_bytes) !s
        done;
        rows = IS.elements !s
      end)

(* -- integer-overflow argument guards ---------------------------------

   [pos + len] near max_int wraps negative and, unguarded, sails past
   the negative-argument checks into capacity math (Simurgh) or
   Bytes.blit (the kernel baselines, where it surfaced as
   Invalid_argument instead of an errno).  Every implementation must
   reject the wrap as EINVAL.  Table-driven over the shared FS
   interface: Simurgh, the four kernel baselines, and the sharded
   namespace. *)
let overflow_cases (type a)
    (module F : Simurgh_fs_common.Fs_intf.S with type t = a) (fs : a) =
  F.create_file fs "/of";
  let fd = F.openf fs Types.rdwr "/of" in
  ignore (F.pwrite fs fd ~pos:0 (Bytes.make 64 'x'));
  let big = max_int - 8 in
  List.iter
    (fun (what, f) ->
      match f () with
      | _ -> Alcotest.failf "%s: %s: expected EINVAL" F.name what
      | exception Errno.Err (EINVAL, _) -> ())
    [
      ("pread negative pos", fun () -> ignore (F.pread fs fd ~pos:(-1) ~len:4));
      ("pread negative len", fun () -> ignore (F.pread fs fd ~pos:0 ~len:(-4)));
      ( "pread pos+len overflow",
        fun () -> ignore (F.pread fs fd ~pos:big ~len:64) );
      ( "pwrite negative pos",
        fun () -> ignore (F.pwrite fs fd ~pos:(-1) (Bytes.make 4 'x')) );
      ( "pwrite pos+len overflow",
        fun () -> ignore (F.pwrite fs fd ~pos:big (Bytes.make 64 'x')) );
    ];
  F.close fs fd

let test_overflow_einval () =
  overflow_cases (module Fs) (fresh ());
  overflow_cases (module Simurgh_baselines.Nova) (Simurgh_baselines.Nova.create ());
  overflow_cases (module Simurgh_baselines.Pmfs) (Simurgh_baselines.Pmfs.create ());
  overflow_cases (module Simurgh_baselines.Ext4dax)
    (Simurgh_baselines.Ext4dax.create ());
  overflow_cases (module Simurgh_baselines.Splitfs)
    (Simurgh_baselines.Splitfs.create ());
  overflow_cases
    (module Simurgh_core.Shard)
    (Simurgh_core.Shard.mkfs ~regions:2 ~euid:0 (16 * 1024 * 1024))

(* -- sharded multi-region namespace ----------------------------------- *)

module Shard = Simurgh_core.Shard
module Name_hash = Simurgh_core.Name_hash

(* a top-level dir name that Name_hash.home routes to region [r] *)
let shard_dir ~regions r =
  let rec go i =
    let n = Printf.sprintf "d%d_%d" r i in
    if Name_hash.home n ~regions = r then n else go (i + 1)
  in
  "/" ^ go 0

let test_shard_namespace () =
  let regions = 4 in
  let sh = Shard.mkfs ~regions ~euid:0 (16 * 1024 * 1024) in
  let dirs = Array.init regions (fun r -> shard_dir ~regions r) in
  Array.iter (fun d -> Shard.mkdir sh d) dirs;
  Array.iteri
    (fun r d ->
      Alcotest.(check int) (d ^ " routes to its region") r (Shard.route sh d))
    dirs;
  (* files inherit the directory's region; content round-trips *)
  Array.iteri
    (fun r d ->
      let p = d ^ "/f" in
      let fd = Shard.openf sh (Types.creat Types.rdwr) p in
      ignore (Shard.pwrite sh fd ~pos:0 (Bytes.of_string "hello"));
      Shard.close sh fd;
      Alcotest.(check int) (p ^ " inherits region") r (Shard.route sh p);
      Alcotest.(check int) "size" 5 (Shard.stat sh p).Types.size)
    dirs;
  (* the virtual root merges every shard's listing *)
  let ls = Shard.readdir sh "/" in
  Alcotest.(check int) "root lists all shards' dirs" regions (List.length ls);
  Array.iter
    (fun d ->
      let n = String.sub d 1 (String.length d - 1) in
      Alcotest.(check bool) (n ^ " listed") true (List.mem n ls))
    dirs;
  (* statfs aggregates every region *)
  let st = Shard.statfs sh in
  let sum f =
    let acc = ref 0 in
    for i = 0 to Shard.shard_count sh - 1 do
      acc := !acc + f (Fs.statfs (Shard.fs_of sh i))
    done;
    !acc
  in
  Alcotest.(check int) "total aggregated"
    (sum (fun s -> s.Fs.total_blocks))
    st.Fs.total_blocks;
  Alcotest.(check int) "free aggregated"
    (sum (fun s -> s.Fs.free_blocks))
    st.Fs.free_blocks;
  Alcotest.(check int) "partition"
    st.Fs.total_blocks
    (st.Fs.free_blocks + st.Fs.used_blocks + st.Fs.quarantined_blocks)

let test_shard_cross_region_rename () =
  let sh = Shard.mkfs ~regions:2 ~euid:0 (16 * 1024 * 1024) in
  let d0 = shard_dir ~regions:2 0 and d1 = shard_dir ~regions:2 1 in
  Shard.mkdir sh d0;
  Shard.mkdir sh d1;
  (* directory rename across regions: EXDEV (two crash domains) *)
  Shard.mkdir sh (d0 ^ "/sub");
  expect_err EXDEV (fun () -> Shard.rename sh (d0 ^ "/sub") (d1 ^ "/sub"));
  (* file rename across regions: copy + unlink, content and mode kept *)
  let p0 = d0 ^ "/m" and p1 = d1 ^ "/m2" in
  let fd = Shard.openf sh (Types.creat Types.rdwr) p0 in
  ignore (Shard.pwrite sh fd ~pos:0 (Bytes.make 300 'z'));
  Shard.close sh fd;
  Shard.chmod sh p0 0o600;
  Shard.rename sh p0 p1;
  Alcotest.(check bool) "source gone" false (Shard.exists sh p0);
  let st = Shard.stat sh p1 in
  Alcotest.(check int) "size survived the copy" 300 st.Types.size;
  Alcotest.(check int) "mode survived the copy" 0o600 st.Types.perm;
  let fd = Shard.openf sh Types.rdonly p1 in
  let got = Shard.pread sh fd ~pos:0 ~len:300 in
  Shard.close sh fd;
  check_span "content" got ~pos:0 ~len:300 'z';
  (* a symlink moves across regions by re-creation *)
  Shard.symlink sh ~target:"m2" (d1 ^ "/sl");
  Shard.rename sh (d1 ^ "/sl") (d0 ^ "/sl");
  Alcotest.(check string) "symlink target kept" "m2"
    (Shard.readlink sh (d0 ^ "/sl"));
  (* hardlinks cannot span regions; within one region they work *)
  expect_err EXDEV (fun () -> Shard.hardlink sh ~existing:p1 (d0 ^ "/ln"));
  Shard.hardlink sh ~existing:p1 (d1 ^ "/ln");
  (* same-region rename stays the native atomic path *)
  Shard.rename sh (d1 ^ "/ln") (d1 ^ "/ln2");
  Alcotest.(check bool) "renamed in place" true (Shard.exists sh (d1 ^ "/ln2"))

let test_shard_remount () =
  let sh = Shard.mkfs ~regions:2 ~euid:0 (16 * 1024 * 1024) in
  let d1 = shard_dir ~regions:2 1 in
  Shard.mkdir sh d1;
  let fd = Shard.openf sh (Types.creat Types.rdwr) (d1 ^ "/f") in
  ignore (Shard.pwrite sh fd ~pos:0 (Bytes.of_string "persisted"));
  Shard.close sh fd;
  Shard.unmount sh;
  let rs = Shard.regions sh in
  Array.iter Fs.invalidate_shared rs;
  let sh2 = Shard.mount ~euid:0 rs in
  let fd = Shard.openf sh2 Types.rdonly (d1 ^ "/f") in
  let got = Shard.pread sh2 fd ~pos:0 ~len:9 in
  Shard.close sh2 fd;
  Alcotest.(check string) "content after remount" "persisted"
    (Bytes.to_string got);
  (* a permuted region array is caught by the superblock shard index *)
  Array.iter Fs.invalidate_shared rs;
  match Shard.mount ~euid:0 [| rs.(1); rs.(0) |] with
  | _ -> Alcotest.fail "expected invalid_arg on permuted regions"
  | exception Invalid_argument _ -> ()

(* Fig. 5 persist epochs (DESIGN.md §18): each namespace
   op fences exactly where recovery needs an order, in every
   configuration.  A create is three epochs (inode and entry, slot,
   commits), a mkdir adds its first hash block's allocation (the
   segment lock word's two fences: the free lists are DRAM) and
   initialization, a symlink its target block's allocation and write,
   a same-directory rename is seven and a cross-directory rename six;
   unlink keeps its nine.  An extending write (append, pwrite,
   fallocate, truncate-grow) is its block allocation's two fences, one
   data epoch (extent slots, hole and payload) and the size publish.
   A count that drops must first be shown safe by the crash explorer. *)
let test_persist_epochs () =
  List.iter
    (fun (config, mkfs) ->
      let region = Simurgh_nvmm.Region.create (16 * 1024 * 1024) in
      let fs = mkfs region in
      let expect op want f =
        let fences () = (Simurgh_nvmm.Region.stats region).fences in
        let f0 = fences () in
        f ();
        Alcotest.(check int) (config ^ ": " ^ op) want (fences () - f0)
      in
      Fs.mkdir fs "/a";
      Fs.mkdir fs "/b";
      expect "create" 3 (fun () -> Fs.create_file fs "/a/f");
      expect "mkdir" 6 (fun () -> Fs.mkdir fs "/a/d");
      expect "symlink" 8 (fun () -> Fs.symlink fs ~target:"/a/f" "/a/s");
      expect "same-directory rename" 7 (fun () -> Fs.rename fs "/a/f" "/a/g");
      expect "cross-directory rename" 6 (fun () ->
          Fs.rename fs "/a/g" "/b/h");
      expect "unlink" 9 (fun () -> Fs.unlink fs "/b/h");
      Fs.create_file fs "/a/t";
      expect "hardlink" 3 (fun () -> Fs.hardlink fs ~existing:"/a/t" "/a/l");
      let fd = Fs.openf fs (Types.creat Types.rdwr) "/a/data" in
      let page = Bytes.make 4096 'x' in
      expect "fresh-file append" 4 (fun () -> ignore (Fs.append fs fd page));
      expect "extending pwrite" 4 (fun () ->
          ignore (Fs.pwrite fs fd ~pos:8192 page));
      expect "fallocate" 4 (fun () -> Fs.fallocate fs fd ~len:(128 * 1024));
      Fs.close fs fd;
      expect "truncate-grow" 4 (fun () -> Fs.truncate fs "/a/data" (256 * 1024)))
    [
      ("default", fun r -> Fs.mkfs ~euid:0 r);
      ( "scaled",
        fun r ->
          Fs.mkfs ~euid:0 ~striped_locks:true ~rcache:true ~alloc_caches:true
            r );
      ("log-ring", fun r -> Fs.mkfs ~euid:0 ~striped_locks:true ~log_ring:4 r);
      ("secure", fun r -> Fs.mkfs ~euid:0 ~secure:true r);
      ( "ranged",
        fun r ->
          Fs.mkfs ~euid:0 ~striped_locks:true ~rcache:true ~alloc_caches:true
            ~range_locks:true r );
    ]

let () =
  Alcotest.run "fs"
    [
      ("posix", Posix.suite);
      ( "simurgh",
        [
          Alcotest.test_case "remount persists" `Quick test_remount_persists;
          Alcotest.test_case "permissions" `Quick test_permissions;
          Alcotest.test_case "long name spill" `Quick test_long_name_spill;
          Alcotest.test_case "ENAMETOOLONG" `Quick test_name_too_long;
          Alcotest.test_case "extent chain stress" `Quick
            test_extent_chain_stress;
          Alcotest.test_case "mtime order" `Quick
            test_write_updates_mtime_and_size_order;
          Alcotest.test_case "fd reuse" `Quick test_open_file_map_reuse;
          Alcotest.test_case "write on rdonly fd" `Quick
            test_write_to_readonly_fd;
          Alcotest.test_case "read on wronly fd" `Quick
            test_read_from_writeonly_fd;
          Alcotest.test_case "statfs tracks usage" `Quick
            test_statfs_tracks_usage;
          Alcotest.test_case "deep hierarchy" `Quick test_deep_hierarchy;
          Alcotest.test_case "rmdir frees blocks" `Quick
            test_dir_hash_block_freed_on_rmdir;
          Alcotest.test_case "rename directory" `Quick test_rename_directory;
          Alcotest.test_case "persist epochs" `Quick test_persist_epochs;
          Alcotest.test_case "symlink intermediate" `Quick
            test_symlink_intermediate;
          Alcotest.test_case "interleaved unlink" `Quick
            test_unlink_during_shared_names;
          Alcotest.test_case "lock registries reclaimed" `Quick
            test_lock_registries_reclaimed;
          QCheck_alcotest.to_alcotest prop_random_file_population;
        ] );
      ("posix-scaled", Posix_scaled.suite);
      ( "scaled",
        [
          Alcotest.test_case "pread/pwrite negative args" `Quick
            test_pread_pwrite_negative_args;
          Alcotest.test_case "striped chain growth" `Quick
            test_striped_chain_growth;
          Alcotest.test_case "striped rename" `Quick test_striped_rename;
          Alcotest.test_case "striped layout compatible" `Quick
            test_striped_layout_compatible;
          Alcotest.test_case "rcache FS invalidation" `Quick
            test_rcache_fs_invalidation;
          Alcotest.test_case "rcache unit" `Quick test_rcache_unit;
        ] );
      ("posix-ring", Posix_ring.suite);
      ( "log-ring",
        [
          Alcotest.test_case "format persists" `Quick test_ring_format_persists;
          Alcotest.test_case "rename churn" `Quick test_ring_rename_churn;
        ] );
      ("posix-range", Posix_range.suite);
      ( "overflow",
        [
          Alcotest.test_case "EINVAL on pos/len overflow (all FSes)" `Quick
            test_overflow_einval;
        ] );
      ( "shard",
        [
          Alcotest.test_case "routing, root merge, statfs" `Quick
            test_shard_namespace;
          Alcotest.test_case "cross-region rename semantics" `Quick
            test_shard_cross_region_rename;
          Alcotest.test_case "remount + permutation guard" `Quick
            test_shard_remount;
        ] );
      ( "range",
        [
          Alcotest.test_case "pwrite hole zero (default)" `Quick
            (test_pwrite_hole_zero fresh);
          Alcotest.test_case "pwrite hole zero (range)" `Quick
            (test_pwrite_hole_zero fresh_range);
          Alcotest.test_case "truncate shrink-grow (default)" `Quick
            (test_truncate_shrink_grow fresh);
          Alcotest.test_case "truncate shrink-grow (range)" `Quick
            (test_truncate_shrink_grow fresh_range);
          Alcotest.test_case "append via two fds" `Quick
            test_range_append_two_fds;
          Alcotest.test_case "O_TRUNC resets state" `Quick
            test_range_otrunc_resets;
          Alcotest.test_case "rows_of_range edges" `Quick
            test_rows_of_range_edges;
          QCheck_alcotest.to_alcotest prop_rows_of_range;
        ] );
    ]

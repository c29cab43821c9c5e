(* Multi-process cooperation: the paper's central claim is that
   *independent processes* modify shared persistent structures directly,
   coordinated only through NVMM and shared DRAM.  A second Fs.mount of
   the same region models a second process: it must share the allocator
   caches and the lock registry (shared DRAM) while keeping its own
   open-file map and credentials. *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs

let fresh_pair () =
  let region = Simurgh_nvmm.Region.create (64 * 1024 * 1024) in
  let p1 = Fs.mkfs ~euid:0 region in
  let p2 = Fs.mount ~euid:0 region in
  (region, p1, p2)

let test_visibility () =
  let _, p1, p2 = fresh_pair () in
  Fs.mkdir p1 "/shared";
  Fs.create_file p1 "/shared/from-p1";
  (* visible to the other process immediately, no remount *)
  Alcotest.(check bool) "p2 sees p1's file" true (Fs.exists p2 "/shared/from-p1");
  Fs.unlink p2 "/shared/from-p1";
  Alcotest.(check bool) "p1 sees p2's delete" false
    (Fs.exists p1 "/shared/from-p1")

let test_no_allocation_collision () =
  let _, p1, p2 = fresh_pair () in
  Fs.mkdir p1 "/d";
  (* alternating creates from the two processes share the slab caches:
     every inode must be distinct *)
  for i = 0 to 199 do
    let fs = if i mod 2 = 0 then p1 else p2 in
    Fs.create_file fs (Printf.sprintf "/d/f%03d" i)
  done;
  let inos = Hashtbl.create 256 in
  List.iter
    (fun n ->
      let st = Fs.stat p1 ("/d/" ^ n) in
      Alcotest.(check bool) ("unique inode for " ^ n) false
        (Hashtbl.mem inos st.Types.ino);
      Hashtbl.replace inos st.Types.ino ())
    (Fs.readdir p2 "/d");
  Alcotest.(check int) "all files present" 200 (List.length (Fs.readdir p1 "/d"))

let test_data_flows_between_processes () =
  let _, p1, p2 = fresh_pair () in
  Fs.create_file p1 "/msg";
  let fd = Fs.openf p1 Types.wronly "/msg" in
  ignore (Fs.append p1 fd (Bytes.of_string "hello from p1"));
  Fs.close p1 fd;
  let fd = Fs.openf p2 Types.rdonly "/msg" in
  Alcotest.(check string) "p2 reads p1's bytes" "hello from p1"
    (Bytes.to_string (Fs.pread p2 fd ~pos:0 ~len:64));
  Fs.close p2 fd

let test_fd_tables_are_private () =
  let _, p1, p2 = fresh_pair () in
  Fs.create_file p1 "/a";
  Fs.create_file p1 "/b";
  let fd1 = Fs.openf p1 Types.rdonly "/a" in
  let fd2 = Fs.openf p2 Types.rdonly "/b" in
  (* same descriptor number in both processes, different files *)
  Alcotest.(check int) "same fd number" fd1 fd2;
  Fs.close p1 fd1;
  (* p2's descriptor is unaffected by p1's close *)
  ignore (Fs.pread p2 fd2 ~pos:0 ~len:0);
  Fs.close p2 fd2

let test_per_process_credentials () =
  let region = Simurgh_nvmm.Region.create (32 * 1024 * 1024) in
  let root = Fs.mkfs ~euid:0 region in
  let user = Fs.mount ~euid:1000 ~egid:1000 region in
  Fs.mkdir root ~perm:0o700 "/private";
  Fs.mkdir root ~perm:0o777 "/public";
  (match Fs.create_file user "/private/x" with
  | _ -> Alcotest.fail "EACCES expected"
  | exception Errno.Err (EACCES, _) -> ());
  Fs.create_file user "/public/ok";
  Alcotest.(check int) "owned by the creating process's uid" 1000
    (Fs.stat root "/public/ok").Types.uid

let test_cross_process_rename_and_recovery () =
  let region, p1, p2 = fresh_pair () in
  Fs.mkdir p1 "/a";
  Fs.mkdir p2 "/b";
  for i = 0 to 49 do
    Fs.create_file p1 (Printf.sprintf "/a/f%02d" i)
  done;
  for i = 0 to 49 do
    Fs.rename p2 (Printf.sprintf "/a/f%02d" i) (Printf.sprintf "/b/g%02d" i)
  done;
  Alcotest.(check int) "a emptied" 0 (List.length (Fs.readdir p1 "/a"));
  Alcotest.(check int) "b filled" 50 (List.length (Fs.readdir p1 "/b"));
  (* a full recovery of the shared region finds it consistent *)
  let _, report = Simurgh_core.Recovery.run region in
  Alcotest.(check int) "no repairs needed" 0
    (report.Simurgh_core.Recovery.completed_deletes
    + report.Simurgh_core.Recovery.completed_renames
    + report.Simurgh_core.Recovery.rolled_back_renames);
  Alcotest.(check int) "all files accounted" 50
    report.Simurgh_core.Recovery.files

let test_virtual_time_contention_across_processes () =
  (* two mounts driven by two simulated threads contend on the same
     shared directory row locks, exactly like two threads of one mount *)
  let open Simurgh_sim in
  let region = Simurgh_nvmm.Region.create (128 * 1024 * 1024) in
  let p1 = Fs.mkfs ~euid:0 region in
  let p2 = Fs.mount ~euid:0 region in
  Fs.mkdir p1 "/spool";
  let m = Machine.create () in
  let handles = [| p1; p2 |] in
  let o =
    Engine.run_ops m ~threads:2 ~ops_per_thread:500 (fun ctx i ->
        let tid = ctx.Machine.thr.Sthread.tid in
        Fs.create_file ~ctx handles.(tid)
          (Printf.sprintf "/spool/p%d-%d" tid i))
  in
  Alcotest.(check int) "all creates landed" 1000
    (List.length (Fs.readdir p1 "/spool"));
  Alcotest.(check bool) "virtual time advanced" true
    (o.Engine.makespan_cycles > 0.0)

(* A joining mount runs the data-path protocol of the region: after
   [mkfs ~range_locks:true] a second mount's pwrite goes through the
   range protocol's shared append/publish words, so the two mounts
   exclude each other. *)
let test_join_inherits_range_locks () =
  let region = Simurgh_nvmm.Region.create (32 * 1024 * 1024) in
  let p1 = Fs.mkfs ~euid:0 ~range_locks:true region in
  let p2 = Fs.mount ~euid:0 region in
  Fs.create_file p1 "/f";
  let fd = Fs.openf p2 Types.rdwr "/f" in
  ignore (Fs.pwrite p2 fd ~pos:0 (Bytes.make 4096 'x'));
  let _, states = Simurgh_core.Locks.range_sizes (Fs.locks p2) in
  Fs.close p2 fd;
  Alcotest.(check bool) "joining mount used the range protocol" true
    (states > 0)

(* --- mount lifecycle ------------------------------------------------------ *)

module Layout = Simurgh_core.Layout
module Recovery = Simurgh_core.Recovery
module B = Simurgh_alloc.Block_alloc

let free_ranges fs =
  let l = ref [] in
  B.iter_free_ranges (Fs.layout fs).Layout.balloc (fun a c -> l := (a, c) :: !l);
  List.rev !l

(* A crash image (clean flag clear, no live mount) is refused by a plain
   mount, which names the recovering one: attaching it would keep its
   unprocessed objects, pending logs and busy flags, and see no block
   free lists. *)
let test_mount_refuses_crash_image () =
  let region = Simurgh_nvmm.Region.create (16 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.create_file fs "/f";
  Fs.invalidate_shared region;
  (match Fs.mount ~euid:0 region with
  | _ -> Alcotest.fail "a crash image was mounted without recovery"
  | exception Invalid_argument m ->
      let needle = "Recovery.mount_auto" in
      let rec has i =
        i + String.length needle <= String.length m
        && (String.sub m i (String.length needle) = needle || has (i + 1))
      in
      Alcotest.(check bool) ("names " ^ needle ^ ": " ^ m) true (has 0));
  let fs', report = Recovery.mount_auto ~euid:0 region in
  Alcotest.(check bool) "mount_auto recovers it" true (report <> None);
  Alcotest.(check bool) "file kept" true (Fs.exists fs' "/f")

(* Only the last live mount's unmount checkpoints and sets the clean
   flag: while another mount keeps writing, a crash must still send
   [mount_auto] through recovery. *)
let test_last_unmount_checkpoints () =
  let scenario () =
    let region, p1, p2 = fresh_pair () in
    Fs.mkdir p1 "/d";
    Fs.unmount p2;
    Alcotest.(check bool) "first unmount leaves the flag clear" false
      (Layout.clean_shutdown_of_region region);
    let fd = Fs.openf p1 (Types.creat Types.rdwr) "/d/f" in
    ignore (Fs.append p1 fd (Bytes.make 8192 'x'));
    Fs.close p1 fd;
    (region, p1)
  in
  (* a crash with p1 still mounted *)
  let region, _ = scenario () in
  Fs.invalidate_shared region;
  let fs, report = Recovery.mount_auto ~euid:0 region in
  Alcotest.(check bool) "the crash is recovered" true (report <> None);
  Alcotest.(check int) "appended data kept" 8192 (Fs.stat fs "/d/f").Types.size;
  (* no crash: p1's unmount is the last, and the next mount loads the
     free lists it checkpointed *)
  let region, p1 = scenario () in
  let before = free_ranges p1 in
  Fs.unmount p1;
  Alcotest.(check bool) "last unmount sets the flag" true
    (Layout.clean_shutdown_of_region region);
  let fs, report = Recovery.mount_auto ~euid:0 region in
  Alcotest.(check bool) "fast path" true (report = None);
  Alcotest.(check (list (pair int int))) "free ranges round-trip" before
    (free_ranges fs);
  Alcotest.(check (list string)) "fsck clean" []
    (List.map Simurgh_core.Check.violation_to_string
       (Simurgh_core.Check.run region))

(* The protocol is chosen at mkfs and read from the superblock by every
   mount: a joining mount, a mount after a clean unmount, and both
   recovering mounts after a crash run the format's locks and caches. *)
let test_every_mount_runs_the_format_protocol () =
  let protocol fs =
    let l = Fs.locks fs in
    [
      (Fs.layout fs).Layout.scaled;
      Simurgh_core.Locks.range l;
      (Fs.layout fs).Layout.coarse_dir_locks;
      (Fs.layout fs).Layout.relaxed_writes;
      Option.is_some fs.Fs.rcache;
      B.thread_segments (Fs.layout fs).Layout.balloc;
    ]
  in
  List.iter
    (fun (name, mkfs, want) ->
      let region = Simurgh_nvmm.Region.create (16 * 1024 * 1024) in
      let expect how fs =
        Alcotest.(check (list bool)) (name ^ ": " ^ how) want (protocol fs);
        Alcotest.(check int)
          (name ^ ": " ^ how ^ " reads the data")
          4096 (Fs.stat fs "/f").Types.size
      in
      let p1 = mkfs region in
      let fd = Fs.openf p1 (Types.creat Types.rdwr) "/f" in
      ignore (Fs.append p1 fd (Bytes.make 4096 'x'));
      Fs.close p1 fd;
      expect "mkfs" p1;
      let p2 = Fs.mount ~euid:0 region in
      expect "joining mount" p2;
      Fs.unmount p2;
      Fs.unmount p1;
      let fs = Fs.mount ~euid:0 region in
      expect "mount after a clean unmount" fs;
      Fs.create_file fs "/g";
      Fs.invalidate_shared region;
      let fs, report = Recovery.mount_auto ~euid:0 region in
      Alcotest.(check bool) (name ^ ": mount_auto recovers") true
        (report <> None);
      expect "mount_auto after a crash" fs;
      Fs.invalidate_shared region;
      let fs, _ = Recovery.mount_after_crash ~euid:0 region in
      expect "mount_after_crash" fs;
      Alcotest.(check bool) (name ^ ": file kept") true (Fs.exists fs "/g");
      Alcotest.(check (list string)) (name ^ ": fsck clean") []
        (List.map Simurgh_core.Check.violation_to_string
           (Simurgh_core.Check.run region)))
    [
      ( "scaled",
        (fun r -> Fs.mkfs ~euid:0 ~scaled:true r),
        [ true; false; false; false; true; true ] );
      ( "range_locks",
        (fun r -> Fs.mkfs ~euid:0 ~range_locks:true r),
        [ false; true; false; false; false; false ] );
      ( "coarse_dir_locks",
        (fun r -> Fs.mkfs ~euid:0 ~coarse_dir_locks:true r),
        [ false; false; true; false; false; false ] );
      ( "relaxed_writes",
        (fun r -> Fs.mkfs ~euid:0 ~relaxed_writes:true r),
        [ false; false; false; true; false; false ] );
    ]

let () =
  Alcotest.run "multiprocess"
    [
      ( "shared-region",
        [
          Alcotest.test_case "visibility" `Quick test_visibility;
          Alcotest.test_case "no allocation collision" `Quick
            test_no_allocation_collision;
          Alcotest.test_case "data flows" `Quick
            test_data_flows_between_processes;
          Alcotest.test_case "private fd tables" `Quick
            test_fd_tables_are_private;
          Alcotest.test_case "per-process creds" `Quick
            test_per_process_credentials;
          Alcotest.test_case "cross-process rename + recovery" `Quick
            test_cross_process_rename_and_recovery;
          Alcotest.test_case "contention across processes" `Quick
            test_virtual_time_contention_across_processes;
          Alcotest.test_case "join inherits range locks" `Quick
            test_join_inherits_range_locks;
        ] );
      ( "mount-lifecycle",
        [
          Alcotest.test_case "mount refuses a crash image" `Quick
            test_mount_refuses_crash_image;
          Alcotest.test_case "only the last unmount checkpoints" `Quick
            test_last_unmount_checkpoints;
          Alcotest.test_case "every mount runs the format's protocol" `Quick
            test_every_mount_runs_the_format_protocol;
        ] );
    ]

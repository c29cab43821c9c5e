(* A reusable POSIX-semantics suite, functorized over the common FS
   interface so the same behaviours are verified on Simurgh and on every
   kernel-FS baseline. *)

open Simurgh_fs_common

module Make (F : Fs_intf.S) (Fresh : sig
  val fresh : unit -> F.t
end) =
struct
  let err e = Alcotest.testable Errno.pp ( = ) |> fun t -> (t, e)
  let _ = err

  let expect_err expected f =
    match f () with
    | _ -> Alcotest.failf "expected %s" (Errno.to_string expected)
    | exception Errno.Err (e, _) ->
        Alcotest.(check string) "errno" (Errno.to_string expected)
          (Errno.to_string e)

  let test_create_stat () =
    let fs = Fresh.fresh () in
    F.create_file fs "/a";
    let st = F.stat fs "/a" in
    Alcotest.(check bool) "file kind" true (st.Types.kind = Types.File);
    Alcotest.(check int) "size 0" 0 st.Types.size;
    Alcotest.(check int) "nlink 1" 1 st.Types.nlink

  let test_create_exists () =
    let fs = Fresh.fresh () in
    F.create_file fs "/a";
    expect_err Errno.EEXIST (fun () -> F.create_file fs "/a")

  let test_enoent () =
    let fs = Fresh.fresh () in
    expect_err Errno.ENOENT (fun () -> F.stat fs "/missing");
    expect_err Errno.ENOENT (fun () -> F.unlink fs "/missing");
    expect_err Errno.ENOENT (fun () -> F.stat fs "/no/such/dir/file")

  let test_mkdir_nested () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/a";
    F.mkdir fs "/a/b";
    F.mkdir fs "/a/b/c";
    F.create_file fs "/a/b/c/leaf";
    Alcotest.(check bool) "exists" true (F.exists fs "/a/b/c/leaf");
    let st = F.stat fs "/a/b" in
    Alcotest.(check bool) "dir kind" true (st.Types.kind = Types.Dir)

  let test_enotdir () =
    let fs = Fresh.fresh () in
    F.create_file fs "/file";
    expect_err Errno.ENOTDIR (fun () -> F.create_file fs "/file/sub")

  let test_unlink () =
    let fs = Fresh.fresh () in
    F.create_file fs "/a";
    F.unlink fs "/a";
    Alcotest.(check bool) "gone" false (F.exists fs "/a");
    (* recreation works *)
    F.create_file fs "/a";
    Alcotest.(check bool) "back" true (F.exists fs "/a")

  let test_unlink_dir_is_eisdir () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/d";
    expect_err Errno.EISDIR (fun () -> F.unlink fs "/d")

  let test_rmdir () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/d";
    F.create_file fs "/d/f";
    expect_err Errno.ENOTEMPTY (fun () -> F.rmdir fs "/d");
    F.unlink fs "/d/f";
    F.rmdir fs "/d";
    Alcotest.(check bool) "gone" false (F.exists fs "/d")

  let test_readdir () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/d";
    List.iter (fun n -> F.create_file fs ("/d/" ^ n)) [ "x"; "y"; "z" ];
    let names = List.sort compare (F.readdir fs "/d") in
    Alcotest.(check (list string)) "listing" [ "x"; "y"; "z" ] names

  let test_rename_same_dir () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/d";
    F.create_file fs "/d/old";
    F.rename fs "/d/old" "/d/new";
    Alcotest.(check bool) "old gone" false (F.exists fs "/d/old");
    Alcotest.(check bool) "new there" true (F.exists fs "/d/new")

  let test_rename_cross_dir () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/src";
    F.mkdir fs "/dst";
    F.create_file fs "/src/f";
    F.rename fs "/src/f" "/dst/g";
    Alcotest.(check bool) "moved" true (F.exists fs "/dst/g");
    Alcotest.(check bool) "source empty" true (F.readdir fs "/src" = [])

  let test_rename_replaces () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/d";
    F.create_file fs "/d/a";
    F.create_file fs "/d/b";
    (* write something into a to check content travels *)
    let fd = F.openf fs Types.wronly "/d/a" in
    ignore (F.append fs fd (Bytes.of_string "payload"));
    F.close fs fd;
    F.rename fs "/d/a" "/d/b";
    Alcotest.(check bool) "a gone" false (F.exists fs "/d/a");
    Alcotest.(check int) "b has a's data" 7 (F.stat fs "/d/b").Types.size

  let test_rename_missing_source () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/d";
    expect_err Errno.ENOENT (fun () -> F.rename fs "/d/nope" "/d/x")

  (* --- rename edge cases (POSIX pinning) ------------------------------- *)

  let test_rename_self_noop () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/d";
    F.create_file fs "/d/f";
    let fd = F.openf fs Types.wronly "/d/f" in
    ignore (F.append fs fd (Bytes.of_string "data"));
    F.close fs fd;
    (* POSIX: renaming a name to itself succeeds and changes nothing *)
    F.rename fs "/d/f" "/d/f";
    Alcotest.(check bool) "still there" true (F.exists fs "/d/f");
    Alcotest.(check int) "data intact" 4 (F.stat fs "/d/f").Types.size;
    F.mkdir fs "/d/sub";
    F.rename fs "/d/sub" "/d/sub";
    Alcotest.(check bool) "dir still there" true (F.exists fs "/d/sub")

  let test_rename_into_own_subtree_einval () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/a";
    F.mkdir fs "/a/b";
    F.mkdir fs "/a/b/c";
    (* directly into itself *)
    expect_err Errno.EINVAL (fun () -> F.rename fs "/a" "/a/x");
    (* deeper descendant *)
    expect_err Errno.EINVAL (fun () -> F.rename fs "/a" "/a/b/c/x");
    (* the namespace must be fully intact afterwards *)
    Alcotest.(check bool) "a" true (F.exists fs "/a");
    Alcotest.(check bool) "a/b" true (F.exists fs "/a/b");
    Alcotest.(check bool) "a/b/c" true (F.exists fs "/a/b/c");
    (* renaming into a *sibling* subtree stays legal *)
    F.mkdir fs "/other";
    F.rename fs "/a/b" "/other/b";
    Alcotest.(check bool) "moved" true (F.exists fs "/other/b/c")

  let test_rename_dir_over_empty_dir () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/src";
    F.create_file fs "/src/payload";
    F.mkdir fs "/empty";
    F.rename fs "/src" "/empty";
    Alcotest.(check bool) "src gone" false (F.exists fs "/src");
    Alcotest.(check bool) "replaced" true (F.exists fs "/empty/payload")

  let test_rename_dir_over_nonempty_dir () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/src";
    F.mkdir fs "/full";
    F.create_file fs "/full/occupant";
    expect_err Errno.ENOTEMPTY (fun () -> F.rename fs "/src" "/full");
    Alcotest.(check bool) "src kept" true (F.exists fs "/src");
    Alcotest.(check bool) "occupant kept" true (F.exists fs "/full/occupant")

  let test_rename_file_over_dir_eisdir () =
    let fs = Fresh.fresh () in
    F.create_file fs "/f";
    F.mkdir fs "/d";
    expect_err Errno.EISDIR (fun () -> F.rename fs "/f" "/d");
    Alcotest.(check bool) "file kept" true (F.exists fs "/f");
    Alcotest.(check bool) "dir kept" true
      ((F.stat fs "/d").Types.kind = Types.Dir)

  let test_rename_dir_over_file_enotdir () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/d";
    F.create_file fs "/f";
    expect_err Errno.ENOTDIR (fun () -> F.rename fs "/d" "/f");
    Alcotest.(check bool) "dir kept" true
      ((F.stat fs "/d").Types.kind = Types.Dir);
    Alcotest.(check bool) "file kept" true
      ((F.stat fs "/f").Types.kind = Types.File)

  let test_rename_cross_dir_over_dir () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/x";
    F.mkdir fs "/y";
    F.mkdir fs "/x/src";
    F.create_file fs "/x/src/inner";
    F.mkdir fs "/y/dst";
    (* cross-directory, destination an empty dir: replaced atomically *)
    F.rename fs "/x/src" "/y/dst";
    Alcotest.(check bool) "moved subtree" true (F.exists fs "/y/dst/inner");
    Alcotest.(check bool) "source slot empty" true (F.readdir fs "/x" = []);
    (* ... and a non-empty destination refuses, cross-dir too *)
    F.mkdir fs "/x/again";
    expect_err Errno.ENOTEMPTY (fun () -> F.rename fs "/x/again" "/y/dst");
    (* kind mismatches, cross-dir *)
    F.create_file fs "/x/plain";
    expect_err Errno.EISDIR (fun () -> F.rename fs "/x/plain" "/y/dst");
    expect_err Errno.ENOTDIR (fun () -> F.rename fs "/x/again" "/y/dst/inner")

  let test_rename_dir_carries_subtree () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/top";
    F.mkdir fs "/top/mid";
    F.create_file fs "/top/mid/leaf";
    F.rename fs "/top" "/renamed";
    Alcotest.(check bool) "subtree follows" true
      (F.exists fs "/renamed/mid/leaf");
    (* the moved directory stays fully operational *)
    F.create_file fs "/renamed/mid/leaf2";
    Alcotest.(check bool) "still writable" true
      (F.exists fs "/renamed/mid/leaf2")

  let test_data_roundtrip () =
    let fs = Fresh.fresh () in
    F.create_file fs "/data";
    let fd = F.openf fs Types.rdwr "/data" in
    let payload = Bytes.init 1000 (fun i -> Char.chr (i mod 256)) in
    Alcotest.(check int) "written" 1000 (F.pwrite fs fd ~pos:0 payload);
    let back = F.pread fs fd ~pos:0 ~len:1000 in
    Alcotest.(check bytes) "roundtrip" payload back;
    F.close fs fd

  let test_sparse_like_overwrite () =
    let fs = Fresh.fresh () in
    F.create_file fs "/f";
    let fd = F.openf fs Types.rdwr "/f" in
    ignore (F.pwrite fs fd ~pos:0 (Bytes.make 5000 'a'));
    ignore (F.pwrite fs fd ~pos:1000 (Bytes.make 100 'b'));
    let b = F.pread fs fd ~pos:999 ~len:3 in
    Alcotest.(check string) "overwrite window" "abb" (Bytes.to_string b);
    let b2 = F.pread fs fd ~pos:1099 ~len:3 in
    Alcotest.(check string) "tail" "baa" (Bytes.to_string b2);
    Alcotest.(check int) "size unchanged" 5000 (F.stat fs "/f").Types.size;
    F.close fs fd

  let test_append_grows () =
    let fs = Fresh.fresh () in
    F.create_file fs "/log";
    let fd = F.openf fs Types.wronly "/log" in
    for _ = 1 to 10 do
      ignore (F.append fs fd (Bytes.make 100 'x'))
    done;
    F.close fs fd;
    Alcotest.(check int) "grew" 1000 (F.stat fs "/log").Types.size

  let test_read_past_eof () =
    let fs = Fresh.fresh () in
    F.create_file fs "/f";
    let fd = F.openf fs Types.rdwr "/f" in
    ignore (F.pwrite fs fd ~pos:0 (Bytes.make 10 'x'));
    let b = F.pread fs fd ~pos:5 ~len:100 in
    Alcotest.(check int) "short read" 5 (Bytes.length b);
    let b2 = F.pread fs fd ~pos:50 ~len:10 in
    Alcotest.(check int) "eof read" 0 (Bytes.length b2);
    F.close fs fd

  (* POSIX: a zero-byte write to a regular file has no other result —
     not even past EOF, where any byte written would grow the file *)
  let test_zero_byte_pwrite_past_eof () =
    let fs = Fresh.fresh () in
    F.create_file fs "/f";
    let fd = F.openf fs Types.rdwr "/f" in
    ignore (F.pwrite fs fd ~pos:0 (Bytes.make 10 'x'));
    Alcotest.(check int) "nothing written" 0
      (F.pwrite fs fd ~pos:100_000 Bytes.empty);
    F.close fs fd;
    Alcotest.(check int) "size unchanged" 10 (F.stat fs "/f").Types.size

  let test_open_create_trunc () =
    let fs = Fresh.fresh () in
    let fd = F.openf fs (Types.creat Types.wronly) "/new" in
    ignore (F.append fs fd (Bytes.make 100 'x'));
    F.close fs fd;
    let fd =
      F.openf fs { (Types.creat Types.wronly) with Types.trunc = true } "/new"
    in
    F.close fs fd;
    Alcotest.(check int) "truncated on open" 0 (F.stat fs "/new").Types.size

  let test_bad_fd () =
    let fs = Fresh.fresh () in
    F.create_file fs "/f";
    let fd = F.openf fs Types.rdonly "/f" in
    F.close fs fd;
    expect_err Errno.EBADF (fun () -> F.close fs fd)

  let test_fallocate_and_truncate () =
    let fs = Fresh.fresh () in
    F.create_file fs "/big";
    let fd = F.openf fs Types.rdwr "/big" in
    F.fallocate fs fd ~len:100_000;
    Alcotest.(check int) "fallocated" 100_000 (F.stat fs "/big").Types.size;
    F.close fs fd;
    F.truncate fs "/big" 10;
    Alcotest.(check int) "shrunk" 10 (F.stat fs "/big").Types.size

  let test_symlink () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/d";
    F.create_file fs "/d/target";
    F.symlink fs ~target:"/d/target" "/link";
    Alcotest.(check string) "readlink" "/d/target" (F.readlink fs "/link");
    (* stat follows *)
    let st = F.stat fs "/link" in
    Alcotest.(check bool) "follows" true (st.Types.kind = Types.File)

  let test_symlink_loop () =
    let fs = Fresh.fresh () in
    F.symlink fs ~target:"/b" "/a";
    F.symlink fs ~target:"/a" "/b";
    expect_err Errno.ELOOP (fun () -> F.stat fs "/a")

  let test_hardlink () =
    let fs = Fresh.fresh () in
    F.create_file fs "/orig";
    let fd = F.openf fs Types.wronly "/orig" in
    ignore (F.append fs fd (Bytes.of_string "shared"));
    F.close fs fd;
    F.hardlink fs ~existing:"/orig" "/alias";
    Alcotest.(check int) "nlink 2" 2 (F.stat fs "/alias").Types.nlink;
    Alcotest.(check int) "same size" 6 (F.stat fs "/alias").Types.size;
    F.unlink fs "/orig";
    Alcotest.(check bool) "alias survives" true (F.exists fs "/alias");
    Alcotest.(check int) "nlink back to 1" 1 (F.stat fs "/alias").Types.nlink

  let test_chmod_utimes () =
    let fs = Fresh.fresh () in
    F.create_file fs "/f";
    F.chmod fs "/f" 0o600;
    Alcotest.(check int) "perm" 0o600 (F.stat fs "/f").Types.perm;
    F.utimes fs "/f" 12345;
    Alcotest.(check int) "mtime" 12345 (F.stat fs "/f").Types.mtime

  let test_dotdot () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/a";
    F.mkdir fs "/a/b";
    F.create_file fs "/a/b/../sibling";
    Alcotest.(check bool) "dotdot resolved" true (F.exists fs "/a/sibling")

  let test_many_files_one_dir () =
    let fs = Fresh.fresh () in
    F.mkdir fs "/big";
    for i = 0 to 1499 do
      F.create_file fs (Printf.sprintf "/big/f%04d" i)
    done;
    Alcotest.(check int) "all listed" 1500 (List.length (F.readdir fs "/big"));
    for i = 0 to 1499 do
      Alcotest.(check bool) "present" true
        (F.exists fs (Printf.sprintf "/big/f%04d" i))
    done;
    for i = 0 to 1499 do
      F.unlink fs (Printf.sprintf "/big/f%04d" i)
    done;
    Alcotest.(check (list string)) "emptied" [] (F.readdir fs "/big")

  (* An fd's access mode binds at open time: a read-only descriptor must
     refuse every mutation entry point and a write-only descriptor must
     refuse reads (EBADF, matching Linux), however the file's permission
     bits read.  Table-driven so adding a write path keeps it honest. *)
  let test_fd_access_mode_matrix () =
    let fs = Fresh.fresh () in
    F.create_file fs "/f";
    let fd = F.openf fs Types.rdwr "/f" in
    ignore (F.pwrite fs fd ~pos:0 (Bytes.make 100 'x'));
    F.close fs fd;
    let buf = Bytes.make 10 'y' in
    let write_ops =
      [
        ("pwrite", fun fd -> ignore (F.pwrite fs fd ~pos:0 buf));
        ("append", fun fd -> ignore (F.append fs fd buf));
        ("fallocate", fun fd -> F.fallocate fs fd ~len:8192);
      ]
    in
    let rfd = F.openf fs Types.rdonly "/f" in
    List.iter
      (fun (name, op) ->
        match op rfd with
        | () -> Alcotest.failf "%s through O_RDONLY fd succeeded" name
        | exception Errno.Err (EBADF, _) -> ())
      write_ops;
    Alcotest.(check int) "reads unaffected" 10
      (Bytes.length (F.pread fs rfd ~pos:0 ~len:10));
    F.close fs rfd;
    Alcotest.(check int) "no mutation leaked through" 100
      (F.stat fs "/f").Types.size;
    let wfd = F.openf fs Types.wronly "/f" in
    (match F.pread fs wfd ~pos:0 ~len:10 with
    | _ -> Alcotest.fail "pread through O_WRONLY fd succeeded"
    | exception Errno.Err (EBADF, _) -> ());
    List.iter (fun (_, op) -> op wfd) write_ops;
    F.close fs wfd;
    Alcotest.(check int) "writes landed" 8192 (F.stat fs "/f").Types.size

  (* The resolver follows exactly [40] chained symlinks (the Linux VFS
     limit) before ELOOP: a 40-hop chain resolves, a 41-hop chain does
     not. *)
  let test_symlink_chain_depth_boundary () =
    let fs = Fresh.fresh () in
    F.create_file fs "/real";
    F.symlink fs ~target:"/real" "/l1";
    for i = 2 to 41 do
      F.symlink fs
        ~target:(Printf.sprintf "/l%d" (i - 1))
        (Printf.sprintf "/l%d" i)
    done;
    Alcotest.(check bool) "40 hops resolve" true
      ((F.stat fs "/l40").Types.kind = Types.File);
    expect_err Errno.ELOOP (fun () -> F.stat fs "/l41")

  let test_fsync_noop_ok () =
    let fs = Fresh.fresh () in
    F.create_file fs "/f";
    let fd = F.openf fs Types.wronly "/f" in
    ignore (F.append fs fd (Bytes.make 10 'x'));
    F.fsync fs fd;
    F.close fs fd

  let suite =
    [
      Alcotest.test_case "create+stat" `Quick test_create_stat;
      Alcotest.test_case "create EEXIST" `Quick test_create_exists;
      Alcotest.test_case "ENOENT paths" `Quick test_enoent;
      Alcotest.test_case "nested mkdir" `Quick test_mkdir_nested;
      Alcotest.test_case "ENOTDIR" `Quick test_enotdir;
      Alcotest.test_case "unlink" `Quick test_unlink;
      Alcotest.test_case "unlink dir EISDIR" `Quick test_unlink_dir_is_eisdir;
      Alcotest.test_case "rmdir" `Quick test_rmdir;
      Alcotest.test_case "readdir" `Quick test_readdir;
      Alcotest.test_case "rename same dir" `Quick test_rename_same_dir;
      Alcotest.test_case "rename cross dir" `Quick test_rename_cross_dir;
      Alcotest.test_case "rename replaces" `Quick test_rename_replaces;
      Alcotest.test_case "rename ENOENT" `Quick test_rename_missing_source;
      Alcotest.test_case "rename self no-op" `Quick test_rename_self_noop;
      Alcotest.test_case "rename cycle EINVAL" `Quick
        test_rename_into_own_subtree_einval;
      Alcotest.test_case "rename dir over empty dir" `Quick
        test_rename_dir_over_empty_dir;
      Alcotest.test_case "rename dir over full dir ENOTEMPTY" `Quick
        test_rename_dir_over_nonempty_dir;
      Alcotest.test_case "rename file over dir EISDIR" `Quick
        test_rename_file_over_dir_eisdir;
      Alcotest.test_case "rename dir over file ENOTDIR" `Quick
        test_rename_dir_over_file_enotdir;
      Alcotest.test_case "rename cross-dir over dir" `Quick
        test_rename_cross_dir_over_dir;
      Alcotest.test_case "rename dir carries subtree" `Quick
        test_rename_dir_carries_subtree;
      Alcotest.test_case "data roundtrip" `Quick test_data_roundtrip;
      Alcotest.test_case "overwrite window" `Quick test_sparse_like_overwrite;
      Alcotest.test_case "append grows" `Quick test_append_grows;
      Alcotest.test_case "read past EOF" `Quick test_read_past_eof;
      Alcotest.test_case "open create/trunc" `Quick test_open_create_trunc;
      Alcotest.test_case "EBADF" `Quick test_bad_fd;
      Alcotest.test_case "fd access-mode matrix" `Quick
        test_fd_access_mode_matrix;
      Alcotest.test_case "symlink depth-40 boundary" `Quick
        test_symlink_chain_depth_boundary;
      Alcotest.test_case "fallocate+truncate" `Quick
        test_fallocate_and_truncate;
      Alcotest.test_case "symlink" `Quick test_symlink;
      Alcotest.test_case "symlink loop ELOOP" `Quick test_symlink_loop;
      Alcotest.test_case "hardlink" `Quick test_hardlink;
      Alcotest.test_case "chmod+utimes" `Quick test_chmod_utimes;
      Alcotest.test_case "dotdot" `Quick test_dotdot;
      Alcotest.test_case "1500 files in a dir" `Quick test_many_files_one_dir;
      Alcotest.test_case "fsync" `Quick test_fsync_noop_ok;
      Alcotest.test_case "zero-byte pwrite past EOF" `Quick
        test_zero_byte_pwrite_past_eof;
    ]
end

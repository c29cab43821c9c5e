(* Crash-injection tests.

   The FS exposes a labeled crash-hook at every persist point of the
   Fig. 5 state machines.  For each operation we enumerate the hook
   labels it passes, then re-run the operation once per label on a
   strict-mode region, raise at that point, drop all unflushed cache
   lines (power failure) and run full recovery.  After recovery the file
   system must be consistent: the interrupted operation has either fully
   happened or not happened at all (for multi-step renames: the entry
   exists under exactly one of the two names), all other files are
   intact, and the operation can be re-executed. *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs
module Recovery = Simurgh_core.Recovery

exception Crash_now

let mk_strict () =
  let region =
    Simurgh_nvmm.Region.create ~mode:Simurgh_nvmm.Region.Strict
      (32 * 1024 * 1024)
  in
  (region, Fs.mkfs ~euid:0 region)

(* Collect the hook labels an operation passes through. *)
let labels_of op =
  let region, fs = mk_strict () in
  ignore region;
  let labels = ref [] in
  Fs.set_crash_hook fs (fun l -> labels := l :: !labels);
  op fs;
  List.rev !labels

(* Run [op] crashing at the [n]-th hook; returns the recovered fs and the
   report. *)
let crash_at ~setup ~op n =
  let region, fs = mk_strict () in
  setup fs;
  let count = ref 0 in
  Fs.set_crash_hook fs (fun _ ->
      incr count;
      if !count = n then raise Crash_now);
  let crashed =
    match op fs with
    | () -> false
    | exception Crash_now ->
        Simurgh_nvmm.Region.crash region;
        true
  in
  Simurgh_nvmm.Region.clear_guard region;
  let fs', report = Recovery.mount_after_crash ~euid:0 region in
  (fs', report, crashed)

(* Generic integrity check: listing and stat-ing everything works, and the
   control files are intact. *)
let check_intact fs' =
  List.iter
    (fun p ->
      Alcotest.(check bool) ("control file " ^ p) true (Fs.exists fs' p))
    [ "/keep1"; "/keep2"; "/dir/keep3" ]

let base_setup fs =
  Fs.create_file fs "/keep1";
  Fs.create_file fs "/keep2";
  Fs.mkdir fs "/dir";
  Fs.create_file fs "/dir/keep3";
  (* persist the setup fully *)
  Fs.set_crash_hook fs ignore

(* --- create -------------------------------------------------------------- *)

let test_create_crashes () =
  let labels =
    labels_of (fun fs ->
        base_setup fs;
        Fs.set_crash_hook fs ignore;
        let l = ref [] in
        Fs.set_crash_hook fs (fun x -> l := x :: !l);
        Fs.create_file fs "/dir/victim";
        Fs.set_crash_hook fs ignore)
  in
  ignore labels;
  (* count hooks through one create *)
  let region, fs = mk_strict () in
  ignore region;
  base_setup fs;
  let n_hooks = ref 0 in
  Fs.set_crash_hook fs (fun _ -> incr n_hooks);
  Fs.create_file fs "/dir/probe";
  Alcotest.(check bool) "create passes hooks" true (!n_hooks >= 3);
  for n = 1 to !n_hooks do
    let fs', report, crashed =
      crash_at ~setup:base_setup ~op:(fun fs -> Fs.create_file fs "/dir/victim") n
    in
    Alcotest.(check bool) "crashed" true crashed;
    ignore report;
    check_intact fs';
    (* atomicity: victim either exists (with a valid stat) or not *)
    (match Fs.stat fs' "/dir/victim" with
    | st -> Alcotest.(check bool) "valid if present" true (st.Types.kind = Types.File)
    | exception Errno.Err (ENOENT, _) ->
        (* retry must succeed after recovery *)
        Fs.create_file fs' "/dir/victim");
    Alcotest.(check bool) "usable after recovery" true
      (Fs.exists fs' "/dir/victim")
  done

(* --- unlink -------------------------------------------------------------- *)

let test_unlink_crashes () =
  let setup fs =
    base_setup fs;
    Fs.create_file fs "/dir/victim"
  in
  let region, fs = mk_strict () in
  ignore region;
  setup fs;
  let n_hooks = ref 0 in
  Fs.set_crash_hook fs (fun _ -> incr n_hooks);
  Fs.unlink fs "/dir/victim";
  Alcotest.(check bool) "unlink passes hooks" true (!n_hooks >= 4);
  for n = 1 to !n_hooks do
    let fs', _report, crashed =
      crash_at ~setup ~op:(fun fs -> Fs.unlink fs "/dir/victim") n
    in
    Alcotest.(check bool) "crashed" true crashed;
    check_intact fs';
    (* after recovery the victim is either still fully there or gone;
       either way a full delete+recreate cycle must work *)
    (if Fs.exists fs' "/dir/victim" then Fs.unlink fs' "/dir/victim");
    Fs.create_file fs' "/dir/victim";
    Alcotest.(check bool) "recreated" true (Fs.exists fs' "/dir/victim")
  done

(* --- same-directory rename ------------------------------------------------ *)

let test_rename_crashes () =
  let setup fs =
    base_setup fs;
    Fs.create_file fs "/dir/oldname";
    let fd = Fs.openf fs Types.wronly "/dir/oldname" in
    ignore (Fs.append fs fd (Bytes.of_string "precious"));
    Fs.close fs fd
  in
  let region, fs = mk_strict () in
  ignore region;
  setup fs;
  let n_hooks = ref 0 in
  Fs.set_crash_hook fs (fun _ -> incr n_hooks);
  Fs.rename fs "/dir/oldname" "/dir/newname";
  Alcotest.(check bool) "rename passes hooks" true (!n_hooks >= 6);
  for n = 1 to !n_hooks do
    let fs', _report, crashed =
      crash_at ~setup
        ~op:(fun fs -> Fs.rename fs "/dir/oldname" "/dir/newname")
        n
    in
    Alcotest.(check bool) "crashed" true crashed;
    check_intact fs';
    let old_e = Fs.exists fs' "/dir/oldname" in
    let new_e = Fs.exists fs' "/dir/newname" in
    (* atomicity: exactly one name present after recovery *)
    if not (old_e <> new_e) then
      Alcotest.failf "rename crash %d: old=%b new=%b" n old_e new_e;
    (* the data must be intact under whichever name survived *)
    let name = if old_e then "/dir/oldname" else "/dir/newname" in
    let fd = Fs.openf fs' Types.rdonly name in
    Alcotest.(check string) "data intact" "precious"
      (Bytes.to_string (Fs.pread fs' fd ~pos:0 ~len:8));
    Fs.close fs' fd
  done

(* --- cross-directory rename ------------------------------------------------ *)

let test_cross_rename_crashes () =
  let setup fs =
    base_setup fs;
    Fs.mkdir fs "/other";
    Fs.create_file fs "/dir/mover";
    let fd = Fs.openf fs Types.wronly "/dir/mover" in
    ignore (Fs.append fs fd (Bytes.of_string "cargo"));
    Fs.close fs fd
  in
  let region, fs = mk_strict () in
  ignore region;
  setup fs;
  let n_hooks = ref 0 in
  Fs.set_crash_hook fs (fun _ -> incr n_hooks);
  Fs.rename fs "/dir/mover" "/other/moved";
  Alcotest.(check bool) "xrename passes hooks" true (!n_hooks >= 6);
  for n = 1 to !n_hooks do
    let fs', _report, crashed =
      crash_at ~setup ~op:(fun fs -> Fs.rename fs "/dir/mover" "/other/moved") n
    in
    Alcotest.(check bool) "crashed" true crashed;
    check_intact fs';
    let src = Fs.exists fs' "/dir/mover" in
    let dst = Fs.exists fs' "/other/moved" in
    if not (src <> dst) then
      Alcotest.failf "xrename crash %d: src=%b dst=%b" n src dst;
    let name = if src then "/dir/mover" else "/other/moved" in
    let fd = Fs.openf fs' Types.rdonly name in
    Alcotest.(check string) "data intact" "cargo"
      (Bytes.to_string (Fs.pread fs' fd ~pos:0 ~len:5));
    Fs.close fs' fd
  done

(* --- rename into a full row ------------------------------------------------- *)

(* Regression: crash a same-directory rename after the swap (old slot ->
   shadow entry, wrong row) but before the shadow is inserted into its
   own row, with that row already full.  Recovery's roll-forward must
   grow the hash-block chain exactly like the runtime insert path would
   have — the old code hit an "impossible" no-free-slot case and
   silently dropped the entry. *)
(* In /d, a file named [src] and the fillers of the row "b" hashes to,
   which [src] does not: renaming [src] to "b" must grow the chain. *)
let full_row fs =
  Fs.mkdir fs "/d";
  let rows = Simurgh_core.Dirblock.first_rows in
  let row_of n = Simurgh_core.Name_hash.hash n mod rows in
  let want = row_of "b" in
  (* the source name must hash to a different row, so freeing its slot
     cannot make room in b's row *)
  let src =
    let rec go i =
      let n = Printf.sprintf "src%d" i in
      if row_of n <> want then n else go (i + 1)
    in
    go 0
  in
  Fs.create_file fs ("/d/" ^ src);
  (* fill b's row completely with colliding names *)
  let fillers =
    let rec go acc i =
      if List.length acc = Simurgh_core.Dirblock.slots_per_row then
        List.rev acc
      else
        let n = Printf.sprintf "fill%d" i in
        if row_of n = want then go (n :: acc) (i + 1) else go acc (i + 1)
    in
    go [] 0
  in
  List.iter (fun n -> Fs.create_file fs ("/d/" ^ n)) fillers;
  (src, fillers)

let test_rename_into_full_row () =
  let region, fs = mk_strict () in
  let src, fillers = full_row fs in
  Fs.set_crash_hook fs (fun l -> if l = "rename:oldfree" then raise Crash_now);
  (try Fs.rename fs ("/d/" ^ src) "/d/b"
   with Crash_now -> Simurgh_nvmm.Region.crash region);
  Simurgh_nvmm.Region.clear_guard region;
  let fs', report = Recovery.mount_after_crash ~euid:0 region in
  Alcotest.(check bool) "rename rolled forward" true
    (report.Recovery.completed_renames >= 1);
  Alcotest.(check bool) "renamed entry survives in the extended chain" true
    (Fs.exists fs' "/d/b");
  List.iter
    (fun n ->
      Alcotest.(check bool) ("filler " ^ n) true (Fs.exists fs' ("/d/" ^ n)))
    fillers;
  Alcotest.(check bool) "old name gone" false (Fs.exists fs' ("/d/" ^ src));
  Alcotest.(check (list string)) "checker clean" []
    (List.map Simurgh_core.Check.violation_to_string
       (Simurgh_core.Check.run region))

(* The media free lists are only a checkpoint: on a crash image they
   predate every allocation since the last clean mount.  The relink
   that completes a rename into a full row grows the chain, and must
   take its block from the lists recovery rebuilds, not from that
   copy, where it would land on a block allocated since (directory
   blocks come from segment 0, where the relink looks first). *)
let test_relink_after_stale_checkpoint () =
  let region, fs = mk_strict () in
  let src, fillers = full_row fs in
  Fs.unmount fs;
  let fs = Fs.mount ~euid:0 region in
  let late = List.init 8 (Printf.sprintf "/late%d") in
  List.iter (Fs.mkdir fs) late;
  let fd = Fs.openf fs (Types.creat Types.rdwr) "/late0/data" in
  ignore (Fs.append fs fd (Bytes.make 20000 'z'));
  Fs.close fs fd;
  Fs.set_crash_hook fs (fun l -> if l = "rename:oldfree" then raise Crash_now);
  (try Fs.rename fs ("/d/" ^ src) "/d/b"
   with Crash_now -> Simurgh_nvmm.Region.crash region);
  Simurgh_nvmm.Region.clear_guard region;
  let fs', report = Recovery.mount_after_crash ~euid:0 region in
  Alcotest.(check bool) "rename rolled forward" true
    (report.Recovery.completed_renames >= 1);
  Alcotest.(check bool) "renamed entry in the grown chain" true
    (Fs.exists fs' "/d/b");
  List.iter
    (fun n -> Alcotest.(check bool) n true (Fs.exists fs' ("/d/" ^ n)))
    fillers;
  List.iter (fun d -> Alcotest.(check bool) d true (Fs.exists fs' d)) late;
  Alcotest.(check int) "late data" 20000
    (Fs.stat fs' "/late0/data").Types.size;
  let fsck what =
    Alcotest.(check (list string)) what []
      (List.map Simurgh_core.Check.violation_to_string
         (Simurgh_core.Check.run region))
  in
  fsck "fsck of the live allocator";
  Fs.unmount fs';
  fsck "fsck of the checkpoint"

(* --- recovery idempotence --------------------------------------------------- *)

let test_recovery_idempotent () =
  let setup fs =
    base_setup fs;
    Fs.create_file fs "/dir/oldname"
  in
  (* crash mid-rename, then recover TWICE: second run must be a no-op *)
  let region, fs = mk_strict () in
  setup fs;
  let count = ref 0 in
  Fs.set_crash_hook fs (fun _ ->
      incr count;
      if !count = 4 then raise Crash_now);
  (try Fs.rename fs "/dir/oldname" "/dir/newname" with Crash_now ->
    Simurgh_nvmm.Region.crash region);
  let _, r1 = Recovery.run region in
  let _, r2 = Recovery.run region in
  ignore r1;
  Alcotest.(check int) "no repairs on second pass" 0
    (r2.Recovery.completed_deletes + r2.Recovery.completed_renames
   + r2.Recovery.rolled_back_renames + r2.Recovery.reclaimed_inodes
   + r2.Recovery.reclaimed_fentries)

(* --- mid-write crash: data never tears metadata --------------------------- *)

let test_write_crash_size_consistent () =
  let region, fs = mk_strict () in
  base_setup fs;
  Fs.create_file fs "/dir/data";
  let fd = Fs.openf fs Types.wronly "/dir/data" in
  ignore (Fs.append fs fd (Bytes.make 1000 'a'));
  Fs.close fs fd;
  (* crash without any flush of a second append: size must stay 1000 *)
  let fd = Fs.openf fs Types.wronly "/dir/data" in
  ignore (Fs.append fs fd (Bytes.make 1000 'b'));
  Simurgh_nvmm.Region.crash region;
  let fs', _ = Recovery.mount_after_crash ~euid:0 region in
  let st = Fs.stat fs' "/dir/data" in
  (* the size is either the old or the new one, and reading size bytes
     must succeed *)
  Alcotest.(check bool) "size valid" true
    (st.Types.size = 1000 || st.Types.size = 2000);
  let fd = Fs.openf fs' Types.rdonly "/dir/data" in
  let b = Fs.pread fs' fd ~pos:0 ~len:st.Types.size in
  Alcotest.(check int) "readable" st.Types.size (Bytes.length b);
  Fs.close fs' fd

(* Randomized crash points over random op sequences: after any crash and
   recovery the file system must list cleanly and support new work. *)
let prop_random_crash_points =
  QCheck.Test.make ~name:"random crash point leaves a recoverable FS"
    ~count:40
    QCheck.(pair (int_range 1 25) (list_of_size (QCheck.Gen.int_range 3 12)
                                     (int_range 0 9)))
    (fun (crash_after, ids) ->
      let region, fs = mk_strict () in
      Fs.mkdir fs "/w";
      List.iteri
        (fun i k -> try Fs.create_file fs (Printf.sprintf "/w/s%d_%d" i k)
          with Errno.Err _ -> ())
        ids;
      let count = ref 0 in
      Fs.set_crash_hook fs (fun _ ->
          incr count;
          if !count = crash_after then raise Crash_now);
      (* a burst of mutations, crashed at a pseudo-random persist point *)
      (try
         List.iteri
           (fun i k ->
             let p = Printf.sprintf "/w/s%d_%d" i k in
             match i mod 3 with
             | 0 -> ( try Fs.unlink fs p with Errno.Err _ -> ())
             | 1 -> (
                 try Fs.rename fs p (Printf.sprintf "/w/r%d" i)
                 with Errno.Err _ -> ())
             | _ -> (
                 try Fs.create_file fs (Printf.sprintf "/w/n%d" i)
                 with Errno.Err _ -> ()))
           ids
       with Crash_now -> Simurgh_nvmm.Region.crash region);
      let fs', _ = Recovery.mount_after_crash ~euid:0 region in
      (* the recovered FS must be fully functional *)
      let names = Fs.readdir fs' "/w" in
      List.iter (fun n -> ignore (Fs.stat fs' ("/w/" ^ n))) names;
      Fs.create_file fs' "/w/post-crash";
      Fs.unlink fs' "/w/post-crash";
      (* and a second recovery finds nothing left to repair *)
      let _, r2 = Recovery.run region in
      r2.Recovery.completed_deletes = 0
      && r2.Recovery.completed_renames = 0
      && r2.Recovery.rolled_back_renames = 0)

let () =
  Alcotest.run "crash"
    [
      ( "injection",
        [
          Alcotest.test_case "create at every step" `Quick test_create_crashes;
          Alcotest.test_case "unlink at every step" `Quick test_unlink_crashes;
          Alcotest.test_case "rename at every step" `Quick test_rename_crashes;
          Alcotest.test_case "cross rename at every step" `Quick
            test_cross_rename_crashes;
          Alcotest.test_case "rename into a full row" `Quick
            test_rename_into_full_row;
          Alcotest.test_case "relink after a stale checkpoint" `Quick
            test_relink_after_stale_checkpoint;
          Alcotest.test_case "recovery idempotent" `Quick
            test_recovery_idempotent;
          Alcotest.test_case "write crash size consistent" `Quick
            test_write_crash_size_consistent;
          QCheck_alcotest.to_alcotest prop_random_crash_points;
        ] );
    ]

(* End-to-end security tests: the Simurgh region is only accessible
   through protected functions (Section 3.2), per-user permissions are
   enforced from the fentry owner word on secure media, and multi-tenant
   adversaries (illegal entries, crashes inside protected bodies, quota
   pressure on a shared directory) are contained. *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs
module Secure = Simurgh_core.Secure
module Explore = Simurgh_core.Explore
module Check = Simurgh_core.Check
module Region = Simurgh_nvmm.Region
open Simurgh_hw

let mk () =
  let region = Simurgh_nvmm.Region.create (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 region in
  (region, fs, Secure.bootstrap ~euid:0 ~egid:0 fs)

let test_ops_through_protected_stubs () =
  let _, _, s = mk () in
  Secure.mkdir s "/home";
  Secure.create s "/home/file";
  let fd = Secure.openf s Types.rdwr "/home/file" in
  Alcotest.(check int) "append" 5 (Secure.append s fd (Bytes.of_string "hello"));
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Secure.pread s fd ~pos:0 ~len:5));
  Secure.close s fd;
  Alcotest.(check int) "stat size" 5 (Secure.stat s "/home/file").Types.size;
  Secure.rename s "/home/file" "/home/renamed";
  Alcotest.(check (list string)) "readdir" [ "renamed" ]
    (Secure.readdir s "/home");
  Secure.unlink s "/home/renamed";
  Secure.rmdir s "/home"

let test_user_mode_region_access_faults () =
  let region, _, s = mk () in
  ignore s;
  (* direct load/store of FS bytes from user code must fault *)
  (match Simurgh_nvmm.Region.read_u8 region 0 with
  | _ -> Alcotest.fail "user-mode read did not fault"
  | exception Fault.Fault (Fault.Kernel_page_access { write = false; _ }) -> ());
  match Simurgh_nvmm.Region.write_u8 region 0 0xff with
  | _ -> Alcotest.fail "user-mode write did not fault"
  | exception Fault.Fault (Fault.Kernel_page_access { write = true; _ }) -> ()

let test_region_accessible_inside_protected () =
  (* the stubs themselves read/write the region constantly; if the guard
     misfired inside jmpp the previous test's ops would have failed.
     Check explicitly via a custom protected probe. *)
  let region, fs, s = mk () in
  ignore fs;
  let cpu = Secure.cpu s in
  (* enter kernel mode through an existing stub path: stat reads the
     region while in kernel mode *)
  Secure.create s "/probe";
  Alcotest.(check bool) "region guarded again after pret" true
    (match Simurgh_nvmm.Region.read_u8 region 0 with
    | _ -> false
    | exception Fault.Fault _ -> true);
  Alcotest.(check bool) "cpu back in user mode" true
    (Cpu.mode cpu = Privilege.User)

let test_jmpp_raw_attacks_fault () =
  let _, _, s = mk () in
  let univ = Secure.universe s in
  let addr = Protected.address_of univ "simurgh_create" in
  let page = Page_table.page_of_addr addr in
  (* jump into the middle of a protected function *)
  (match Protected.jmpp_raw univ ((page * Page_table.page_size) + 0x123) with
  | _ -> Alcotest.fail "mid-function jmpp did not fault"
  | exception Fault.Fault (Fault.Jmpp_bad_entry_offset _) -> ());
  (* jump to a non-protected page *)
  match Protected.jmpp_raw univ (0x500 * Page_table.page_size) with
  | _ -> Alcotest.fail "unprotected jmpp did not fault"
  | exception Fault.Fault (Fault.Jmpp_target_not_protected _) -> ()

let test_ep_cannot_be_set_from_user () =
  let _, _, s = mk () in
  let cpu = Secure.cpu s in
  Page_table.map cpu.Cpu.page_table ~page:0x999 ~kernel:false ~writable:true;
  match Page_table.set_ep cpu.Cpu.page_table ~mode:(Cpu.mode cpu) ~page:0x999 with
  | _ -> Alcotest.fail "ep set from user mode"
  | exception Fault.Fault (Fault.Ep_set_from_user _) -> ()

let test_protected_mapping_cannot_be_remapped () =
  let _, _, s = mk () in
  let cpu = Secure.cpu s in
  let page = List.hd (Protected.pages (Secure.universe s)) in
  match Page_table.remap cpu.Cpu.page_table ~page ~kernel:false ~writable:true with
  | _ -> Alcotest.fail "protected mapping replaced"
  | exception Fault.Fault (Fault.Write_to_protected_mapping _) -> ()

let test_permission_checks_still_apply () =
  (* protected functions enforce the permission bits with the creds
     captured at bootstrap *)
  let region = Simurgh_nvmm.Region.create (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs ~perm:0o700 "/rootonly";
  let s = Secure.bootstrap ~euid:1000 ~egid:1000 fs in
  match Secure.create s "/rootonly/f" with
  | _ -> Alcotest.fail "EACCES expected"
  | exception Errno.Err (EACCES, _) -> ()

let test_errors_propagate_through_jmpp () =
  let _, _, s = mk () in
  (match Secure.stat s "/missing" with
  | _ -> Alcotest.fail "ENOENT expected"
  | exception Errno.Err (ENOENT, _) -> ());
  (* the CPU must be back in user mode after the exception *)
  Alcotest.(check bool) "mode restored" true
    (Cpu.mode (Secure.cpu s) = Privilege.User)

(* --- adversarial: the full ep-bit fault matrix ------------------------- *)

(* Every illegal way into the protected universe must raise the precise
   modeled fault, leave the CPU in user mode with no stranded nesting
   level, and leave the media bytes untouched. *)
let test_fault_matrix_media_unchanged () =
  let region, _, s = mk () in
  let univ = Secure.universe s in
  let cpu = Secure.cpu s in
  let digest0 = Region.media_digest region in
  let ps = Page_table.page_size in
  let page =
    Page_table.page_of_addr (Protected.address_of univ "simurgh_create")
  in
  (* (a) jmpp at every class of non-entry offset within a protected page *)
  List.iter
    (fun off ->
      match Protected.jmpp_raw univ ((page * ps) + off) with
      | () -> Alcotest.failf "jmpp at +0x%x did not fault" off
      | exception Fault.Fault (Fault.Jmpp_bad_entry_offset _) -> ())
    [ 0x001; 0x123; 0x3ff; 0x401; 0x7ff; 0x801; 0xc01; 0xfff ];
  (* (b) jmpp at an unused entry slot: the registered ops fill the last
     protected page only partially, so at least one slot is a nop *)
  let nop_faults =
    List.concat_map
      (fun pg -> List.map (fun off -> (pg * ps) + off) [ 0x0; 0x400; 0x800; 0xc00 ])
      (Protected.pages univ)
    |> List.filter (fun a ->
           match Protected.jmpp_raw univ a with
           | () -> false
           | exception Fault.Fault (Fault.Entry_is_nop _) -> true
           | exception Fault.Fault _ -> false)
  in
  Alcotest.(check bool) "an unused slot exists and is a nop" true
    (nop_faults <> []);
  (* (c) jmpp to a page that does not carry the ep bit *)
  (match Protected.jmpp_raw univ (0x777 * ps) with
  | () -> Alcotest.fail "jmpp to non-ep page did not fault"
  | exception Fault.Fault (Fault.Jmpp_target_not_protected _) -> ());
  (* (d) user-mode store to a protected-stack page *)
  let sp = List.hd (Protected.stack_pages univ) in
  (match
     Page_table.check_access cpu.Cpu.page_table ~mode:Privilege.User
       ~addr:(sp * ps) ~write:true
   with
  | () -> Alcotest.fail "user store to protected stack did not fault"
  | exception Fault.Fault (Fault.Kernel_page_access { write = true; _ }) -> ());
  (* (e) user-mode store to the FS region itself *)
  (match Region.write_u8 region 0 0xff with
  | _ -> Alcotest.fail "user store to region did not fault"
  | exception Fault.Fault (Fault.Kernel_page_access { write = true; _ }) -> ());
  (* aftermath: user mode, nothing stranded, media bit-identical, and
     the legitimate entry points still work *)
  Alcotest.(check bool) "user mode" true (Cpu.mode cpu = Privilege.User);
  Alcotest.(check string) "media unchanged by the attack battery"
    (Digest.to_hex digest0)
    (Digest.to_hex (Region.media_digest region));
  Secure.create s "/survivor";
  Alcotest.(check bool) "fs still serves" true
    ((Secure.stat s "/survivor").Types.kind = Types.File)

(* --- per-user enforcement on secure media ------------------------------ *)

let mk_secure () =
  let region = Region.create (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 ~secure:true region in
  (region, fs)

let expect_eacces f =
  match f () with
  | _ -> Alcotest.fail "EACCES expected"
  | exception Errno.Err (EACCES, _) -> ()

let test_owner_word_enforcement () =
  let _, fs = mk_secure () in
  Alcotest.(check bool) "media carries the security plane" true
    (Fs.is_secure fs);
  Fs.mkdir fs ~perm:0o777 "/home";
  (* tenant 1000 creates a private file *)
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  Fs.create_file fs ~perm:0o600 "/home/mine";
  let fd = Fs.openf fs Types.wronly "/home/mine" in
  ignore (Fs.append fs fd (Bytes.of_string "secret"));
  Fs.close fs fd;
  (* a second tenant is stopped by the fentry owner word *)
  Fs.set_creds fs ~euid:1001 ~egid:1001;
  expect_eacces (fun () -> Fs.openf fs Types.rdonly "/home/mine");
  expect_eacces (fun () -> Fs.openf fs Types.wronly "/home/mine");
  expect_eacces (fun () -> Fs.chmod fs "/home/mine" 0o666);
  expect_eacces (fun () -> Fs.truncate fs "/home/mine" 0);
  (* the owner relaxes the mode; reads open up, writes stay closed *)
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  Fs.chmod fs "/home/mine" 0o644;
  Fs.set_creds fs ~euid:1001 ~egid:1001;
  let fd = Fs.openf fs Types.rdonly "/home/mine" in
  Alcotest.(check string) "readable after chmod" "secret"
    (Bytes.to_string (Fs.pread fs fd ~pos:0 ~len:6));
  Fs.close fs fd;
  expect_eacces (fun () -> Fs.openf fs Types.wronly "/home/mine")

let test_owner_word_travels_with_rename () =
  let _, fs = mk_secure () in
  Fs.mkdir fs ~perm:0o777 "/home";
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  Fs.create_file fs ~perm:0o640 "/home/f";
  Fs.mkdir fs ~perm:0o777 "/home/sub";
  (* same-directory and cross-directory renames both preserve the
     stamped owner word (shadow-entry copy) *)
  Fs.rename fs "/home/f" "/home/g";
  Fs.rename fs "/home/g" "/home/sub/g";
  Fs.set_creds fs ~euid:1001 ~egid:1001;
  expect_eacces (fun () -> Fs.openf fs Types.rdonly "/home/sub/g");
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  let fd = Fs.openf fs Types.rdwr "/home/sub/g" in
  Fs.close fs fd

(* open(O_CREAT) in a directory the caller may search but not write:
   an existing name opens (no write permission on the directory is
   needed), O_EXCL reports the name's existence before any permission
   on the directory, and only a create proper is refused. *)
let test_open_creat_in_readonly_dir () =
  let _, fs = mk_secure () in
  Fs.mkdir fs ~perm:0o755 "/ro";
  Fs.create_file fs ~perm:0o666 "/ro/f";
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  let fd = Fs.openf fs (Types.creat Types.wronly) "/ro/f" in
  Fs.close fs fd;
  (match
     Fs.openf fs { (Types.creat Types.wronly) with Types.excl = true } "/ro/f"
   with
  | _ -> Alcotest.fail "EEXIST expected"
  | exception Errno.Err (EEXIST, _) -> ());
  expect_eacces (fun () -> Fs.openf fs (Types.creat Types.wronly) "/ro/g");
  Alcotest.(check bool) "nothing created" false (Fs.exists fs "/ro/g")

let test_readdir_needs_read_permission () =
  let _, fs = mk_secure () in
  (* 0o711: others may traverse but not list *)
  Fs.mkdir fs ~perm:0o711 "/opaque";
  Fs.create_file fs ~perm:0o644 "/opaque/f";
  Fs.set_creds fs ~euid:1000 ~egid:1000;
  Alcotest.(check bool) "traverse allowed" true (Fs.exists fs "/opaque/f");
  expect_eacces (fun () -> Fs.readdir fs "/opaque")

(* --- adversarial: crash inside a protected rename ---------------------- *)

(* The crash-image explorer composes with the security plane: every
   store-granular crash point of a rename now sits between jmpp and
   pret, every image must recover fsck-clean, and the recovered mount
   (a fresh "process" with its own protected universe) stays atomic. *)
let test_crash_inside_protected_rename () =
  let st =
    Explore.explore Explore.single (Explore.crashes ())
      (Explore.scenario "protected rename"
         ~config:{ Explore.plain with secure = true }
         ~setup:(fun fs ->
           Fs.mkdir fs "/a";
           Fs.mkdir fs "/b";
           Fs.create_file fs "/a/f")
         ~oracle:(fun fs ->
           let s = Fs.exists fs "/a/f" and d = Fs.exists fs "/b/g" in
           if s = d then
             Alcotest.failf "protected rename not atomic: src=%b dst=%b" s d)
         (Explore.seq (fun fs -> Fs.rename fs "/a/f" "/b/g")))
  in
  (match st.Explore.failures with
  | [] -> ()
  | (label, what) :: _ ->
      Alcotest.failf "%d violating crash image(s); first at %s: %s"
        (List.length st.Explore.failures)
        label what);
  Alcotest.(check bool) "explored crash points inside the gate" true
    (st.Explore.points > 0)

(* --- adversarial: two tenants under per-uid quotas --------------------- *)

let test_two_tenant_quota_scenario () =
  let region = Region.create (64 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 ~secure:true ~scaled:true region in
  Fs.mkdir fs ~perm:0o777 "/shared";
  (* block size 256 B; each op appends 4 KiB = 16 blocks.  Tenant A has
     room for every write, tenant B hits the wall after 4 appends. *)
  Fs.set_quota fs ~uid:2001 ~blocks:4096;
  Fs.set_quota fs ~uid:2002 ~blocks:64;
  let machine = Simurgh_sim.Machine.create () in
  let denials = ref 0 and appends = Array.make 2 0 in
  let op (ctx : Simurgh_sim.Machine.ctx) j =
    let thr = ctx.Simurgh_sim.Machine.thr in
    let tenant = thr.Simurgh_sim.Sthread.tid land 1 in
    let uid = 2001 + tenant in
    Simurgh_sim.Sthread.set_creds thr ~euid:uid ~egid:uid;
    let path =
      Printf.sprintf "/shared/u%d_t%d_f%d" uid thr.Simurgh_sim.Sthread.tid j
    in
    try
      Fs.create_file ~ctx fs path;
      let fd = Fs.openf ~ctx fs Types.wronly path in
      Fun.protect
        ~finally:(fun () -> Fs.close ~ctx fs fd)
        (fun () ->
          ignore (Fs.append ~ctx fs fd (Bytes.make 4096 'q'));
          appends.(tenant) <- appends.(tenant) + 1)
    with Errno.Err (EDQUOT, _) -> incr denials
  in
  ignore (Simurgh_sim.Engine.run_ops machine ~threads:4 ~ops_per_thread:16 op);
  (* tenant A never hit its limit; tenant B was denied, never exceeded
     its budget, and its partial progress was accounted exactly *)
  Alcotest.(check int) "tenant A fully served" 32 appends.(0);
  Alcotest.(check int) "tenant B stopped at its budget" 4 appends.(1);
  Alcotest.(check bool) "tenant B denied" true (!denials > 0);
  Alcotest.(check int) "tenant B used == limit" 64
    (Fs.quota_used fs ~uid:2002);
  Alcotest.(check bool) "tenant A within limit" true
    (Fs.quota_used fs ~uid:2001 <= 4096);
  (* charge/release balance: freeing every file of a tenant returns the
     budget to zero, even though another tenant's files stay *)
  List.iter
    (fun n ->
      if String.length n >= 5 && String.sub n 0 5 = "u2002" then
        Fs.unlink fs ("/shared/" ^ n))
    (Fs.readdir fs "/shared");
  Alcotest.(check int) "tenant B released on unlink" 0
    (Fs.quota_used fs ~uid:2002);
  Alcotest.(check bool) "tenant A unaffected by B's frees" true
    (Fs.quota_used fs ~uid:2001 > 0);
  (* the hammered region is structurally sound *)
  Alcotest.(check (list string)) "fsck clean" []
    (List.map Check.violation_to_string (Check.run region))

let () =
  Alcotest.run "secure"
    [
      ( "secure",
        [
          Alcotest.test_case "ops via protected stubs" `Quick
            test_ops_through_protected_stubs;
          Alcotest.test_case "user region access faults" `Quick
            test_user_mode_region_access_faults;
          Alcotest.test_case "guard restored after pret" `Quick
            test_region_accessible_inside_protected;
          Alcotest.test_case "jmpp attacks fault" `Quick
            test_jmpp_raw_attacks_fault;
          Alcotest.test_case "ep from user faults" `Quick
            test_ep_cannot_be_set_from_user;
          Alcotest.test_case "remap protected faults" `Quick
            test_protected_mapping_cannot_be_remapped;
          Alcotest.test_case "permissions enforced" `Quick
            test_permission_checks_still_apply;
          Alcotest.test_case "errors propagate" `Quick
            test_errors_propagate_through_jmpp;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "ep-bit fault matrix, media unchanged" `Quick
            test_fault_matrix_media_unchanged;
          Alcotest.test_case "crash inside protected rename" `Slow
            test_crash_inside_protected_rename;
          Alcotest.test_case "two tenants under quotas" `Quick
            test_two_tenant_quota_scenario;
        ] );
      ( "per-user",
        [
          Alcotest.test_case "owner word enforcement" `Quick
            test_owner_word_enforcement;
          Alcotest.test_case "owner word travels with rename" `Quick
            test_owner_word_travels_with_rename;
          Alcotest.test_case "readdir needs read permission" `Quick
            test_readdir_needs_read_permission;
          Alcotest.test_case "open O_CREAT in a read-only dir" `Quick
            test_open_creat_in_readonly_dir;
        ] );
    ]

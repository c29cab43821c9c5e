(* Adversarial crash-image exploration.

   The hook-based tests in test_crash.ml check the single "all
   unflushed lines lost" adversary.  Here the explorer enumerates, at
   every NVMM store and every labeled persist point, every subset of the
   unpersisted cache lines (the hardware may have evicted any of them
   early), recovers from each resulting image and runs the offline
   checker — which must find nothing, for every image, for every
   machine of the shared table ({!Explore.machines}: the four Fig. 5
   state machines and their scaled, log-ring, byte-range and
   cross-region configurations).  A final negative test deliberately
   breaks recovery (skipping rename-log resolution) and proves the
   checker catches the damage, i.e. the oracle is not vacuous. *)

open Simurgh_fs_common
module Fs = Simurgh_core.Fs
module Recovery = Simurgh_core.Recovery
module Check = Simurgh_core.Check
module Explore = Simurgh_core.Explore
module Region = Simurgh_nvmm.Region

exception Crash_now

let assert_no_failures name (st : Explore.stats) =
  (match st.Explore.failures with
  | [] -> ()
  | (label, what) :: _ ->
      Alcotest.failf "%s: %d violating crash image(s); first at %s: %s" name
        (List.length st.Explore.failures)
        label what);
  Alcotest.(check bool) (name ^ ": has crash points") true
    (st.Explore.points > 0);
  Alcotest.(check bool) (name ^ ": explored images") true
    (st.Explore.runs >= st.Explore.points)

(* Each machine's coverage at the default 64 samples: crash points,
   fences, images and max pending lines.  These are the per-machine
   counts [bench/main.exe --scale 0.05 crash] prints; they move only
   when what the explorer explores moves. *)
let coverage =
  [
    ("create", (35, 3, 243, 5));
    ("unlink", (24, 9, 41, 3));
    ("rename", (39, 7, 93, 3));
    ("cross-rename", (39, 6, 217, 6));
    ("striped-create", (35, 3, 243, 5));
    ("striped-rename", (39, 7, 93, 3));
    ("striped-xrename", (39, 6, 217, 6));
    ("ring-rename", (39, 7, 93, 3));
    ("ring-xrename", (39, 6, 217, 6));
    ("append", (12, 4, 82, 65));
    ("extend", (13, 4, 146, 129));
    ("range-append", (12, 4, 82, 65));
    ("range-extend", (13, 4, 146, 129));
    ("spill-append", (20, 7, 113, 66));
    ("xregion-rename", (78, 19, 345, 5));
    ("xregion-create", (70, 6, 486, 5));
  ]

let quad = Alcotest.(pair (pair int int) (pair int int))

(* Every machine of the shared table (the one [bench/main.exe crash]
   prints), with its atomicity oracle on every recovered image. *)
let machine_case (m : Explore.machine) =
  let name = Explore.machine_name m in
  let title =
    match name with
    | "cross-rename" -> "cross rename: all images recover clean"
    | "ring-rename" -> "rename on log ring: all images clean"
    | "ring-xrename" -> "cross rename on log ring: all images clean"
    | "xregion-rename" -> "cross-region rename: all images clean"
    | "xregion-create" -> "creates on both regions: all images clean"
    | n -> n ^ ": all images recover clean"
  in
  Alcotest.test_case title `Quick (fun () ->
      let st = Explore.run_machine m in
      assert_no_failures name st;
      let points, fences, images, pending = List.assoc name coverage in
      Alcotest.check quad
        (name ^ ": points, fences, images, max pending")
        ((points, fences), (images, pending))
        ( (st.Explore.points, st.Explore.fences),
          (st.Explore.runs, st.Explore.max_pending) );
      (* a Fig. 5 persist epoch must stay small enough that every crash
         point's eviction subsets are all explored; only the data path,
         whose fences each commit a 4 KiB page (64 lines), is sampled *)
      if
        not
          (List.mem name
             [
               "append"; "extend"; "range-append"; "range-extend";
               "spill-append";
             ])
      then
        Alcotest.(check bool)
          (Printf.sprintf "%s: max pending lines %d <= %d" name
             st.Explore.max_pending Explore.max_exhaustive)
          true
          (st.Explore.max_pending <= Explore.max_exhaustive))

let single, sharded =
  List.partition
    (function Explore.Single _ -> true | Explore.Sharded _ -> false)
    Explore.machines

(* Multi-slot pending states: a crash image that already carries TWO
   pending slots of one directory's ring (two processes died mid-rename)
   must come back checker-clean with both renames resolved, whichever
   subset of the final rename's unpersisted lines survived. *)
let test_explore_multi_slot_recovery () =
  let region = Region.create ~mode:Region.Strict (16 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 ~log_ring:4 region in
  Fs.mkdir fs "/d";
  Fs.create_file fs "/d/a";
  Fs.create_file fs "/d/c";
  Fs.set_crash_hook fs (fun l -> if l = "rename:swap" then raise Crash_now);
  (try Fs.rename fs "/d/a" "/d/b" with Crash_now -> ());
  (try Fs.rename fs "/d/c" "/d/d" with Crash_now -> ());
  (* the power also fails: every unpersisted line is independently lost
     or durable — enumerate all images of the two-slot-pending state *)
  let pending = Array.of_list (Region.pending_lines region) in
  let idx = Hashtbl.create 16 in
  Array.iteri (fun i ln -> Hashtbl.replace idx ln i) pending;
  let cp = Region.checkpoint region in
  let n = Array.length pending in
  let images = min (1 lsl n) 256 in
  for mask = 0 to images - 1 do
    Region.restore region cp;
    Region.crash_image region ~keep:(fun ln ->
        match Hashtbl.find_opt idx ln with
        | Some i -> mask land (1 lsl i) <> 0
        | None -> false);
    Fs.invalidate_shared region;
    let _ = Recovery.run region in
    (match Check.run region with
    | [] -> ()
    | viols ->
        Alcotest.failf "mask %d: %s" mask
          (String.concat "; " (List.map Check.violation_to_string viols)));
    let fs' = Fs.mount ~euid:0 region in
    if Fs.exists fs' "/d/a" = Fs.exists fs' "/d/b" then
      Alcotest.failf "mask %d: first rename not atomic" mask;
    if Fs.exists fs' "/d/c" = Fs.exists fs' "/d/d" then
      Alcotest.failf "mask %d: second rename not atomic" mask
  done

(* A create that must grow the directory's hash-block chain: the new
   block's initialization dirties ~66 lines at once, pushing the crash
   points past [max_exhaustive] and into the seeded-sampling branch of
   the explorer (the adversary picks random eviction subsets). *)
let test_explore_create_chain_growth () =
  let rows = Simurgh_core.Dirblock.first_rows in
  let row_of n = Simurgh_core.Name_hash.hash n mod rows in
  let want = row_of "t" in
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
  let st =
    Explore.explore Explore.single
      (Explore.crashes ~samples:24 ())
      (Explore.scenario "create with chain growth"
         ~setup:(fun fs ->
           Fs.mkdir fs "/d";
           List.iter (fun n -> Fs.create_file fs ("/d/" ^ n)) fillers)
         ~oracle:(fun fs ->
           List.iter
             (fun n ->
               Alcotest.(check bool) ("filler " ^ n) true
                 (Fs.exists fs ("/d/" ^ n)))
             fillers)
         (Explore.seq (fun fs -> Fs.create_file fs "/d/t")))
  in
  assert_no_failures "create with chain growth" st;
  Alcotest.(check bool) "hit the sampled branch" true (st.Explore.max_pending > 10)

(* Negative control: recovery with rename-log resolution disabled leaves
   a pending log behind a crashed cross-directory rename, and the
   checker must say so.  Without this test a trivially-empty checker
   would pass every exploration above. *)
let test_checker_catches_broken_recovery () =
  let region = Region.create ~mode:Region.Strict (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/d";
  Fs.mkdir fs "/e";
  Fs.create_file fs "/d/m";
  Fs.set_crash_hook fs (fun l ->
      if l = "xrename:dstslot" then raise Crash_now);
  (try Fs.rename fs "/d/m" "/e/m2" with Crash_now -> Region.crash region);
  Region.clear_guard region;
  let _ = Recovery.run ~skip_log_resolution:true region in
  let viols = Check.run region in
  Alcotest.(check bool) "checker flags the unresolved rename log" true
    (List.exists
       (function Check.Log_pending _ -> true | _ -> false)
       viols);
  (* and correct recovery heals the same image *)
  let _ = Recovery.run region in
  Alcotest.(check (list string)) "full recovery passes the checker" []
    (List.map Check.violation_to_string (Check.run region))

(* Crash-during-recovery re-entrancy: crash a rename mid-flight, then
   crash RECOVERY at its own store points and labeled hooks, re-enter
   recovery on every eviction subset, and demand convergence — a media
   fixpoint within 4 passes (idempotence predicts 2) and a clean
   checker on every terminal image. *)
let assert_no_reentry_failures (st : Explore.stats) =
  match st.Explore.failures with
  | [] -> ()
  | (label, what) :: _ ->
      Alcotest.failf "%s: %d failing re-entry image(s); first at %s: %s"
        st.Explore.name
        (List.length st.Explore.failures)
        label what

let test_reentrant_rename () =
  let st =
    Explore.run_reentrant
      (Explore.scenario "rename"
         ~setup:(fun fs ->
           Fs.mkdir fs "/d1";
           Fs.mkdir fs "/d2";
           Fs.create_file fs "/d1/a";
           Fs.create_file fs "/d2/c")
         (Explore.seq (fun fs -> Fs.rename fs "/d1/a" "/d2/b")))
  in
  assert_no_reentry_failures st;
  Alcotest.(check (pair int int)) "mid-recovery points, images" (43, 62)
    (st.Explore.points, st.Explore.runs);
  Alcotest.(check bool) "recovery idempotent (fixpoint in 2 passes)" true
    (st.Explore.max_passes <= 2)

let test_reentrant_create () =
  let st =
    Explore.run_reentrant ~op_points:3 ~rec_stores:5
      (Explore.scenario "create"
         ~setup:(fun fs -> Fs.mkdir fs "/d")
         (Explore.seq (fun fs ->
              Fs.create_file fs "/d/f";
              Fs.create_file fs "/d/g")))
  in
  assert_no_reentry_failures st;
  Alcotest.(check (pair int int)) "mid-recovery points, images" (15, 24)
    (st.Explore.points, st.Explore.runs);
  Alcotest.(check bool) "recovery idempotent (fixpoint in 2 passes)" true
    (st.Explore.max_passes <= 2)

(* The checker itself accepts a healthy populated file system. *)
let test_checker_clean_on_healthy_fs () =
  let region = Region.create (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/a";
  Fs.mkdir fs "/a/b";
  for i = 0 to 19 do
    Fs.create_file fs (Printf.sprintf "/a/f%d" i)
  done;
  let fd = Fs.openf fs Types.wronly "/a/f0" in
  ignore (Fs.append fs fd (Bytes.make 9000 'x'));
  Fs.close fs fd;
  Fs.symlink fs ~target:"/a/f0" "/a/b/l";
  Alcotest.(check (list string)) "no violations" []
    (List.map Check.violation_to_string (Check.run region))

(* -- the eviction adversary ---------------------------------------------- *)

(* The kept subsets [each_image] yields over [n] region-tagged lines. *)
let images ~seed ~max_exhaustive ~samples n =
  let pending = Array.init n (fun i -> (i mod 2, 64 * i)) in
  let got = ref [] in
  Explore.each_image (Simurgh_sim.Rng.create seed) ~max_exhaustive ~samples
    pending (fun keep ->
      got := List.filter keep (Array.to_list pending) :: !got);
  (Array.to_list pending, List.rev !got)

let test_each_image_exhaustive () =
  let _, got = images ~seed:1L ~max_exhaustive:4 ~samples:64 4 in
  Alcotest.(check int) "2^n images" 16 (List.length got);
  Alcotest.(check int) "all distinct" 16
    (List.length (List.sort_uniq compare got))

let test_each_image_sampled () =
  let all, got = images ~seed:5L ~max_exhaustive:3 ~samples:10 6 in
  Alcotest.(check int) "samples images" 10 (List.length got);
  (match got with
  | drop :: keep :: _ ->
      Alcotest.(check (list (pair int int))) "drop-all first" [] drop;
      Alcotest.(check (list (pair int int))) "keep-all second" all keep
  | _ -> Alcotest.fail "fewer than two images");
  let _, again = images ~seed:5L ~max_exhaustive:3 ~samples:10 6 in
  Alcotest.(check bool) "same seed, same sequence" true (got = again)

let () =
  Alcotest.run "explore"
    [
      ( "crash-image exploration",
        List.map machine_case single
        @ [
          Alcotest.test_case "two pending ring slots: all images clean" `Quick
            test_explore_multi_slot_recovery;
          Alcotest.test_case "create with chain growth (sampled)" `Quick
            test_explore_create_chain_growth;
        ] );
      ("multi-region", List.map machine_case sharded);
      ( "eviction adversary",
        [
          Alcotest.test_case "every subset up to max_exhaustive" `Quick
            test_each_image_exhaustive;
          Alcotest.test_case "drop-all, keep-all, then seeded samples" `Quick
            test_each_image_sampled;
        ] );
      ( "crash-during-recovery",
        [
          Alcotest.test_case "rename: recovery re-enters clean" `Quick
            test_reentrant_rename;
          Alcotest.test_case "create: recovery re-enters clean" `Quick
            test_reentrant_create;
        ] );
      ( "checker",
        [
          Alcotest.test_case "clean on healthy fs" `Quick
            test_checker_clean_on_healthy_fs;
          Alcotest.test_case "catches broken recovery" `Quick
            test_checker_catches_broken_recovery;
        ] );
    ]

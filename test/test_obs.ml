(* Tests for the observability layer: histograms against an exact
   sorted-array oracle, merge laws, metrics, JSON encoding and the
   harness argument parser. *)

open Simurgh_obs

let check_float = Alcotest.(check (float 1e-9))

(* --- histogram ----------------------------------------------------------- *)

let test_hist_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  check_float "p50" 0.0 (Histogram.percentile h 50.0);
  check_float "mean" 0.0 (Histogram.mean h)

let test_hist_single () =
  let h = Histogram.create () in
  Histogram.record h 42.0;
  Alcotest.(check int) "count" 1 (Histogram.count h);
  check_float "p0" 42.0 (Histogram.percentile h 0.0);
  check_float "p50" 42.0 (Histogram.percentile h 50.0);
  check_float "p100" 42.0 (Histogram.percentile h 100.0);
  check_float "mean" 42.0 (Histogram.mean h)

let test_hist_exact_extremes () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 3.0; 900.0; 17.5; 0.25; 44000.0 ];
  (* min/max/count/sum are tracked exactly, outside the buckets *)
  check_float "p0 exact" 0.25 (Histogram.percentile h 0.0);
  check_float "p100 exact" 44000.0 (Histogram.percentile h 100.0);
  Alcotest.(check int) "count" 5 (Histogram.count h);
  check_float "sum" 44920.75 (Histogram.sum h)

(* Random samples: every reported percentile must sit within the
   bucket-resolution error (~1/64 relative) of the exact order
   statistic computed by Stats.percentile on the raw samples. *)
let test_hist_oracle () =
  let rng = Simurgh_sim.Rng.create 99L in
  List.iter
    (fun n ->
      let h = Histogram.create () in
      let samples =
        Array.init n (fun _ ->
            (* latencies spanning several octaves, like real op costs *)
            Float.exp (Simurgh_sim.Rng.float rng *. 12.0))
      in
      Array.iter (Histogram.record h) samples;
      List.iter
        (fun p ->
          let exact = Simurgh_sim.Stats.percentile samples p in
          let est = Histogram.percentile h p in
          let tol = (0.05 *. Float.abs exact) +. 1e-6 in
          if Float.abs (est -. exact) > tol then
            Alcotest.failf "n=%d p%.1f: est %g vs exact %g (tol %g)" n p est
              exact tol)
        [ 0.0; 10.0; 50.0; 90.0; 99.0; 99.9; 100.0 ])
    [ 1; 2; 7; 100; 5000 ]

let prop_hist_percentile_bounded =
  QCheck.Test.make ~name:"Histogram.percentile within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 200) (float_bound_exclusive 1e6))
    (fun l ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) l;
      let lo = Histogram.min_value h and hi = Histogram.max_value h in
      List.for_all
        (fun p ->
          let v = Histogram.percentile h p in
          v >= lo -. 1e-9 && v <= hi +. 1e-9)
        [ 0.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ])

let test_hist_merge_assoc () =
  let mk l =
    let h = Histogram.create () in
    List.iter (Histogram.record h) l;
    h
  in
  (* integer-valued samples: float addition is exact, so associativity
     must hold bit-for-bit — compare via the JSON summaries *)
  let a = mk [ 1.0; 8.0; 64.0 ]
  and b = mk [ 2.0; 16.0 ]
  and c = mk [ 4.0; 32.0; 256.0; 1024.0 ] in
  let left = Histogram.merge (Histogram.merge a b) c in
  let right = Histogram.merge a (Histogram.merge b c) in
  Alcotest.(check string) "assoc"
    (Json.to_string (Histogram.to_json left))
    (Json.to_string (Histogram.to_json right));
  Alcotest.(check int) "merged count" 9 (Histogram.count left)

let test_hist_merge_vs_whole () =
  let l1 = [ 5.0; 50.0; 500.0 ] and l2 = [ 7.0; 70.0 ] in
  let mk l =
    let h = Histogram.create () in
    List.iter (Histogram.record h) l;
    h
  in
  let merged = Histogram.merge (mk l1) (mk l2) in
  let whole = mk (l1 @ l2) in
  Alcotest.(check string) "merge = record-all"
    (Json.to_string (Histogram.to_json whole))
    (Json.to_string (Histogram.to_json merged))

(* --- metrics ------------------------------------------------------------- *)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.add m "b" 2.0;
  Metrics.incr m "a";
  Metrics.add m "b" 3.0;
  check_float "a" 1.0 (Metrics.get m "a");
  check_float "b" 5.0 (Metrics.get m "b");
  check_float "missing" 0.0 (Metrics.get m "zzz");
  Alcotest.(check (list string)) "sorted names" [ "a"; "b" ]
    (List.map fst (Metrics.to_list m));
  let d = Metrics.create () in
  Metrics.add d "b" 1.0;
  Metrics.merge_into d m;
  check_float "merged" 6.0 (Metrics.get d "b")

(* --- contention ---------------------------------------------------------- *)

let test_contention_counts () =
  let c = Contention.create () in
  Contention.record_acquire c ~site:"s" ~kind:Contention.Spin ~wait:0.0;
  Contention.record_acquire c ~site:"s" ~kind:Contention.Spin ~wait:10.0;
  Contention.record_acquire c ~site:"s" ~kind:Contention.Spin ~wait:5.0;
  Contention.record_acquire c ~site:"t" ~kind:Contention.Mutex ~wait:0.0;
  check_float "total wait" 15.0 (Contention.total_wait c);
  Alcotest.(check int) "acquisitions" 4 (Contention.total_acquisitions c);
  check_float "site wait" 15.0 (Contention.wait_of c "s");
  match Contention.to_list c with
  | [ ("s", s); ("t", t) ] ->
      Alcotest.(check int) "s contended" 2 s.Contention.contended;
      Alcotest.(check int) "s acquisitions" 3 s.Contention.acquisitions;
      Alcotest.(check int) "t contended" 0 t.Contention.contended
  | _ -> Alcotest.fail "expected two sites"

(* --- run ----------------------------------------------------------------- *)

let test_run_merge () =
  let a = Run.create () and b = Run.create () in
  Metrics.add a.Run.counters "x" 1.0;
  Metrics.add b.Run.counters "x" 2.0;
  Histogram.record (Run.hist a "fs/op") 10.0;
  Histogram.record (Run.hist b "fs/op") 20.0;
  Span.add_fs a.Run.spans 100.0;
  Span.add_copy_bytes b.Run.spans 4096;
  let m = Run.merge a b in
  check_float "counter" 3.0 (Metrics.get m.Run.counters "x");
  Alcotest.(check int) "hist merged" 2
    (Histogram.count (Run.hist m "fs/op"));
  check_float "span fs" 100.0 (Span.fs_cycles m.Run.spans);
  Alcotest.(check int) "span bytes" 4096 m.Run.spans.Span.copy_bytes;
  (* sources untouched *)
  Alcotest.(check int) "a hist intact" 1 (Histogram.count (Run.hist a "fs/op"))

(* --- json ---------------------------------------------------------------- *)

let test_json_encoding () =
  Alcotest.(check string) "escaping" {|"a\"b\\c\n\td\u0001"|}
    (Json.to_string (Json.Str "a\"b\\c\n\td\001"));
  Alcotest.(check string) "nan is null" "null"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "obj"
    {|{"a":1,"b":[true,null,1.5]}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Int 1);
            ("b", Json.List [ Json.Bool true; Json.Null; Json.Float 1.5 ]);
          ]))

(* --- collect: resolve-cache counter sources ------------------------------ *)

(* Both resolve caches must surface in an experiment snapshot: the
   kernel baselines register dcache/* and a Simurgh mount with the
   resolve cache on registers rcache/*. *)
let test_collect_cache_counters () =
  Collect.install ();
  let kfs = Simurgh_baselines.Nova.create () in
  Simurgh_baselines.Nova.mkdir kfs "/d";
  Simurgh_baselines.Nova.create_file kfs "/d/f";
  for _ = 1 to 5 do
    ignore (Simurgh_baselines.Nova.stat kfs "/d/f")
  done;
  let region = Simurgh_nvmm.Region.create (64 * 1024 * 1024) in
  let fs = Simurgh_core.Fs.mkfs ~euid:0 ~scaled:true region in
  Simurgh_core.Fs.mkdir fs "/d";
  Simurgh_core.Fs.create_file fs "/d/f";
  for _ = 1 to 5 do
    ignore (Simurgh_core.Fs.stat fs "/d/f")
  done;
  let run = Collect.drain () in
  let names = List.map fst (Metrics.to_list run.Run.counters) in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " present") true (List.mem k names))
    [
      "dcache/hits";
      "dcache/misses";
      "rcache/hits";
      "rcache/misses";
      "rcache/inserts";
      "rcache/invalidations";
    ];
  Alcotest.(check bool) "dcache hits nonzero" true
    (Metrics.get run.Run.counters "dcache/hits" > 0.0);
  Alcotest.(check bool) "rcache hits nonzero" true
    (Metrics.get run.Run.counters "rcache/hits" > 0.0)

(* Named counter sources: a ~name'd registration claims its name for
   the collector -- a second registration under the same name is the
   two-live-regions shadowing bug and must raise, while anonymous
   same-key sources keep the historical summing behavior. *)
let test_collect_named_source_duplicate () =
  Collect.install ();
  Collect.note_source ~name:"dupA" (fun () -> [ ("dupA/x", 1.0) ]);
  (match Collect.note_source ~name:"dupA" (fun () -> [ ("dupA/x", 5.0) ]) with
  | () -> Alcotest.fail "expected Duplicate_source"
  | exception Collect.Duplicate_source n ->
      Alcotest.(check string) "offending name" "dupA" n);
  (* a different name is fine, and anonymous sources never collide *)
  Collect.note_source ~name:"dupB" (fun () -> [ ("dupB/x", 2.0) ]);
  Collect.note_source (fun () -> [ ("anon/x", 3.0) ]);
  Collect.note_source (fun () -> [ ("anon/x", 4.0) ]);
  let run = Collect.drain () in
  Alcotest.(check (float 1e-9)) "named kept" 1.0
    (Metrics.get run.Run.counters "dupA/x");
  Alcotest.(check (float 1e-9)) "second name kept" 2.0
    (Metrics.get run.Run.counters "dupB/x");
  Alcotest.(check (float 1e-9)) "anonymous sources sum" 7.0
    (Metrics.get run.Run.counters "anon/x")

(* Two live regions under one collector: named regions export disjoint
   [<name>/...] counter families instead of silently merging into one
   [region/...] stream. *)
let test_collect_region_namespacing () =
  Collect.install ();
  let ra = Simurgh_nvmm.Region.create ~name:"regA" (1 lsl 20) in
  let rb = Simurgh_nvmm.Region.create ~name:"regB" (1 lsl 20) in
  Simurgh_nvmm.Region.write_u32 ra 0 7;
  for _ = 1 to 3 do
    ignore (Simurgh_nvmm.Region.read_u32 ra 0)
  done;
  ignore (Simurgh_nvmm.Region.read_u32 rb 0);
  (* a second region under the same name is the shadowing bug *)
  (match Simurgh_nvmm.Region.create ~name:"regA" (1 lsl 20) with
  | _ -> Alcotest.fail "expected Duplicate_source"
  | exception Collect.Duplicate_source n ->
      Alcotest.(check string) "offending name" "regA" n);
  let run = Collect.drain () in
  Alcotest.(check (float 1e-9)) "regA loads" 3.0
    (Metrics.get run.Run.counters "regA/loads");
  Alcotest.(check (float 1e-9)) "regB loads" 1.0
    (Metrics.get run.Run.counters "regB/loads");
  Alcotest.(check (float 1e-9)) "regA stores" 1.0
    (Metrics.get run.Run.counters "regA/stores");
  (* nothing leaked into the legacy unprefixed family *)
  Alcotest.(check (float 1e-9)) "no region/loads" 0.0
    (Metrics.get run.Run.counters "region/loads")

(* A counter source holds counter records, never its owner: once a file
   system and its region are dropped, a full major GC frees the region
   (and its image), and the drain still reports what the region and the
   block allocator counted. *)
let[@inline never] mkfs_and_drop weak =
  let region = Simurgh_nvmm.Region.create (8 * 1024 * 1024) in
  Weak.set weak 0 (Some region);
  let fs = Simurgh_core.Fs.mkfs ~euid:0 region in
  Simurgh_core.Fs.mkdir fs "/d";
  let fd =
    Simurgh_core.Fs.openf fs
      Simurgh_fs_common.Types.(creat rdwr)
      "/d/f"
  in
  ignore (Simurgh_core.Fs.pwrite fs fd ~pos:0 (Bytes.make 8192 'x'));
  Simurgh_core.Fs.close fs fd

let test_collect_no_retention () =
  Collect.install ();
  let weak = Weak.create 1 in
  mkfs_and_drop weak;
  Gc.full_major ();
  Alcotest.(check bool) "region freed" false (Weak.check weak 0);
  let run = Collect.drain () in
  Alcotest.(check bool) "region/stores kept" true
    (Metrics.get run.Run.counters "region/stores" > 0.0);
  Alcotest.(check bool) "alloc/block_allocs kept" true
    (Metrics.get run.Run.counters "alloc/block_allocs" > 0.0)

(* The region's shared lock and allocator counters are one source per
   region, not one per mount: a joining mount adds only its own
   [faults/eio_returns].  The root inode and 10 files are live, and
   mkfs made the only three block allocations (the creates fit in the
   root directory's first block). *)
let test_collect_shared_once () =
  Collect.install ();
  let region = Simurgh_nvmm.Region.create (8 * 1024 * 1024) in
  let _root = Simurgh_core.Fs.mkfs ~euid:0 region in
  let joined = Simurgh_core.Fs.mount ~euid:0 region in
  for i = 1 to 10 do
    Simurgh_core.Fs.create_file joined (Printf.sprintf "/f%d" i)
  done;
  let run = Collect.drain () in
  check_float "inodes live" 11.0
    (Metrics.get run.Run.counters "alloc/inodes_live");
  check_float "block allocs" 3.0
    (Metrics.get run.Run.counters "alloc/block_allocs")

(* Recovery's counters belong to the collector that was active during
   the run: two runs under one collector drain [recovery/runs = 2], and
   a fresh collector starts from none. *)
let test_collect_recovery_scoped () =
  let recover () =
    let region = Simurgh_nvmm.Region.create (8 * 1024 * 1024) in
    let fs = Simurgh_core.Fs.mkfs ~euid:0 region in
    Simurgh_core.Fs.mkdir fs "/d";
    Simurgh_core.Fs.create_file fs "/d/f";
    Simurgh_core.Fs.invalidate_shared region;
    ignore (Simurgh_core.Recovery.run region)
  in
  Collect.install ();
  recover ();
  recover ();
  let run = Collect.drain () in
  check_float "two runs" 2.0 (Metrics.get run.Run.counters "recovery/runs");
  Collect.install ();
  let run = Collect.drain () in
  check_float "fresh collector" 0.0
    (Metrics.get run.Run.counters "recovery/runs")

(* A [Vtime] recovery's totals land in the counters of the machine that
   drove it, with no collector installed: one run, and per-pass cycles
   that sum to the makespan. *)
let test_recovery_machine_counters () =
  let region = Simurgh_nvmm.Region.create (8 * 1024 * 1024) in
  let fs = Simurgh_core.Fs.mkfs ~euid:0 region in
  Simurgh_core.Fs.mkdir fs "/d";
  Simurgh_core.Fs.create_file fs "/d/f";
  Simurgh_core.Fs.invalidate_shared region;
  Collect.discard ();
  let machine = Simurgh_sim.Machine.create () in
  let _, r =
    Simurgh_core.Recovery.run
      ~par:(Simurgh_core.Recovery.Vtime { machine; workers = 2 })
      region
  in
  let counters = (Simurgh_sim.Machine.obs machine).Run.counters in
  check_float "one run" 1.0 (Metrics.get counters "recovery/runs");
  let passes = r.Simurgh_core.Recovery.pass_cycles in
  Alcotest.(check (list string))
    "passes"
    [ "mark"; "segments"; "rebuild" ]
    (List.map fst passes);
  let sum =
    List.fold_left
      (fun acc (pass, _) ->
        acc +. Metrics.get counters ("recovery/" ^ pass ^ "_cycles"))
      0.0 passes
  in
  Alcotest.(check bool) "cycles measured" true (sum > 0.0);
  Alcotest.(check (float 1e-6)) "passes sum to the makespan"
    r.Simurgh_core.Recovery.vtime_cycles sum

(* --- cli ----------------------------------------------------------------- *)

let known = [ "fig7"; "fig9"; "tab1" ]
let is_dynamic id = String.length id = 5 && String.sub id 0 4 = "fig7"

let parse args = Obs_cli.parse ~known ~is_dynamic args

let test_cli_ok () =
  match parse [ "--scale"; "0.5"; "--json"; "out"; "fig9"; "fig7a" ] with
  | Ok c ->
      check_float "scale" 0.5 c.Obs_cli.scale;
      Alcotest.(check (option string)) "json" (Some "out") c.Obs_cli.json_dir;
      Alcotest.(check (list string)) "ids" [ "fig9"; "fig7a" ] c.Obs_cli.ids;
      Alcotest.(check bool) "not list" false c.Obs_cli.list_only
  | Error e -> Alcotest.fail e

let expect_error name args =
  match parse args with
  | Ok _ -> Alcotest.failf "%s: expected an error" name
  | Error _ -> ()

let test_cli_errors () =
  (* --scale as the last argument used to raise a bare Failure *)
  expect_error "dangling scale" [ "fig9"; "--scale" ];
  expect_error "non-numeric scale" [ "--scale"; "fast" ];
  expect_error "negative scale" [ "--scale"; "-1" ];
  (* unknown flags used to be treated as experiment ids *)
  expect_error "unknown flag" [ "--verbose" ];
  (* misspelled ids used to run nothing and exit 0 *)
  expect_error "misspelled id" [ "figg9" ];
  expect_error "dangling json" [ "--json" ];
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match parse [ "figg9" ] with
  | Error msg ->
      Alcotest.(check bool) "mentions --list" true (contains msg "--list")
  | Ok _ -> Alcotest.fail "expected error");
  match parse [ "all" ] with
  | Ok c -> Alcotest.(check (list string)) "all ok" [ "all" ] c.Obs_cli.ids
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single" `Quick test_hist_single;
          Alcotest.test_case "exact extremes" `Quick test_hist_exact_extremes;
          Alcotest.test_case "oracle" `Quick test_hist_oracle;
          Alcotest.test_case "merge associative" `Quick test_hist_merge_assoc;
          Alcotest.test_case "merge = whole" `Quick test_hist_merge_vs_whole;
          QCheck_alcotest.to_alcotest prop_hist_percentile_bounded;
        ] );
      ("metrics", [ Alcotest.test_case "counters" `Quick test_metrics ]);
      ( "contention",
        [ Alcotest.test_case "site counts" `Quick test_contention_counts ] );
      ("run", [ Alcotest.test_case "merge" `Quick test_run_merge ]);
      ("json", [ Alcotest.test_case "encoding" `Quick test_json_encoding ]);
      ( "collect",
        [
          Alcotest.test_case "cache counters" `Quick
            test_collect_cache_counters;
          Alcotest.test_case "named source duplicate" `Quick
            test_collect_named_source_duplicate;
          Alcotest.test_case "per-region namespacing" `Quick
            test_collect_region_namespacing;
          Alcotest.test_case "no region retention" `Quick
            test_collect_no_retention;
          Alcotest.test_case "shared counters once per region" `Quick
            test_collect_shared_once;
          Alcotest.test_case "recovery counters scoped" `Quick
            test_collect_recovery_scoped;
          Alcotest.test_case "recovery counters in the machine" `Quick
            test_recovery_machine_counters;
        ] );
      ( "cli",
        [
          Alcotest.test_case "ok" `Quick test_cli_ok;
          Alcotest.test_case "errors" `Quick test_cli_errors;
        ] );
    ]

(** Run id [scale]: metadata-scalability sweep of the shared-directory
    path.

    The paper's evaluation stops at 10 threads.  This experiment sweeps the four metadata FxMark microbenchmarks that
    stress one directory (7b createfile-shared, 7d renamefile-shared,
    7f resolvepath-shared, plus 7a createfile-private as the
    uncontended control) across thread counts well past that, comparing
    seed Simurgh against the scaled configuration (per-thread allocator
    caches + DRAM resolve cache + posted rename-log writes — see
    DESIGN.md "Metadata scalability").  Both run the one striped
    directory protocol and share the same on-media layout; only the
    volatile caches and the log window's write charging differ.

    Results are printed as the usual per-thread tables, mirrored into
    {!Simurgh_obs.Report} for the [--json] flow. *)

open Simurgh_workloads
module Report = Simurgh_obs.Report

let thread_counts = [ 1; 2; 4; 8; 16; 24; 32; 40 ]

(* (short id, bench, base ops/thread) — creates kept moderate so the
   40-thread shared directory stays within sane chain lengths *)
let benches =
  [
    ("7b", Fxmark.Create_shared, 1000);
    ("7d", Fxmark.Rename_shared, 1000);
    ("7f", Fxmark.Resolve_shared, 2000);
    ("7a", Fxmark.Create_private, 1000);
  ]

let print_thread_header title =
  Report.table ~title
    ~columns:(List.map (Printf.sprintf "t%d") thread_counts);
  Printf.printf "%-18s" "threads";
  List.iter (fun t -> Printf.printf " %9d" t) thread_counts;
  print_newline ()

(* Right-size the region per run: the sweep churns dozens of file
   systems, and the default 512 MB per region would allocate gigabytes
   for no benefit.  ~2 KB per created file plus fixed slack covers every
   bench here with ample headroom. *)
let region_mb_for ~threads ~ops = max 96 (64 + (threads * ops * 2 / 1024))

let sweep (t : Targets.target) bench ~ops =
  List.map
    (fun threads ->
      let region_mb = region_mb_for ~threads ~ops in
      let r = t.Targets.run_fx ~region_mb ~threads ~ops bench in
      Util.kops r.Fxmark.throughput)
    thread_counts

let run ~scale =
  Report.note
    "kops: virtual-time Kops/s; seed: stock configuration; scaled: \
     per-thread allocator caches + DRAM resolve cache + posted rename-log \
     writes (same on-media layout); logring: scaled plus the \
     per-directory rename-log ring format (log_ring=16)";
  List.iter
    (fun (id, bench, base_ops) ->
      let ops = Util.scaled ~scale base_ops in
      let title =
        Printf.sprintf "scale %s: %s seed vs scaled (Kops/s; %d ops/thread)"
          id (Fxmark.bench_name bench) ops
      in
      Util.header title;
      print_thread_header title;
      let seed_kops = sweep (Targets.simurgh ()) bench ~ops in
      Util.series "Simurgh" " %9.0f" seed_kops;
      let scaled_kops = sweep (Targets.simurgh_scaled ()) bench ~ops in
      Util.series "Simurgh-scaled" " %9.0f" scaled_kops;
      Util.series "speedup" " %9.2f"
        (List.map2
           (fun sc se -> if se > 0.0 then sc /. se else 0.0)
           scaled_kops seed_kops);
      (* rename benches get the third curve: scaled + rename-log ring,
         the only configuration whose log windows can overlap *)
      if bench = Fxmark.Rename_shared then begin
        let kops = sweep (Targets.simurgh_ring ()) bench ~ops in
        Util.series "Simurgh-logring" " %9.0f" kops;
        Util.series "ring/scaled" " %9.2f"
          (List.map2
             (fun r sc -> if sc > 0.0 then r /. sc else 0.0)
             kops scaled_kops)
      end)
    benches

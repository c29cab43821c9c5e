(** Run id [recovery]: the paper's recovery-time figure, reproduced.

    The artifact's [run_recovery.sh] crashes a file system holding 10
    Linux source trees (761,720 files+dirs) and times the mark-and-sweep
    recovery (4.1 s on Optane).  This experiment sweeps the population
    10^4 -> 10^6 files at proportionally sized regions and reports, per
    point:

    + the {b sequential reproduction curve}: virtual-time model seconds
      (the cost model charges dependent metadata line fetches at
      NVMM read latency / MLP, bulk scans at streaming bandwidth) plus
      host wall-clock as a sanity anchor;
    + the {b parallel-sweep speedup} at 1/2/4/8 workers over the same
      image, using the virtual-time work-pool driver
      ({!Simurgh_sim.Workpool.run_vtime}) — identical task set, list
      scheduling over worker clocks, sequential phases charged to
      worker 0 (the Amdahl tail is measured, not assumed);
    + the offline checker's verdict on the recovered image (must be 0
      violations at every point and worker count).

    The tree is create-only (no data writes): recovery time is a
    metadata property — files/dirs per object, not bytes.  Every image
    also carries leaked slab objects (crashed mid-create) so the sweep
    has real garbage to reclaim.

    Both tables, the per-point one and the widest run's recovery
    report, are mirrored into {!Simurgh_obs.Report}. *)

module Fs = Simurgh_core.Fs
module Recovery = Simurgh_core.Recovery
module Check = Simurgh_core.Check
module Layout = Simurgh_core.Layout
module Region = Simurgh_nvmm.Region
module Slab = Simurgh_alloc.Slab_alloc
module Machine = Simurgh_sim.Machine
module Cost_model = Simurgh_sim.Cost_model
module Report = Simurgh_obs.Report

let worker_counts = [ 1; 2; 4; 8 ]
let ledger_workers = 4
let files_per_dir = 48
let paper_objects = 761_720
let paper_seconds = 4.1

type point = {
  files : int;
  dirs : int;
  seq_wall_s : float;
  seq_model_s : float;
  model_s : float list;  (** one per worker count *)
  speedup : float list;  (** seq_model_s / model_s *)
  checker_violations : int;
  report : Recovery.report;  (** from the last (widest) parallel run *)
  passes_w4 : (string * float) list;
      (** the model seconds of each recovery pass at {!ledger_workers} *)
  peak_rss_mb : float option;
      (** the process's peak resident set after the point, MB *)
}

(* ~1.8 KB of metadata per file covers fentry + inode slab slots, the
   48-entries-per-dir hash blocks (two 4 KiB blocks per directory) and
   allocator slack at every sweep point. *)
let region_bytes ~files = (96 * 1024 * 1024) + (files * 1800)

let populate fs ~files =
  let dirs = max 1 ((files + files_per_dir - 1) / files_per_dir) in
  let made = ref 0 in
  for d = 0 to dirs - 1 do
    let dir = Printf.sprintf "/d%d" d in
    Fs.mkdir fs dir;
    let here = min files_per_dir (files - !made) in
    for i = 0 to here - 1 do
      Fs.create_file fs (Printf.sprintf "%s/f%d" dir i)
    done;
    made := !made + here
  done;
  dirs

let measure ~files =
  let region = Region.create (region_bytes ~files) in
  let fs = Fs.mkfs ~euid:0 region in
  let dirs = populate fs ~files in
  (* crashed mid-create: allocated-but-unlinked objects for the sweep *)
  let layout = Fs.layout fs in
  for _ = 1 to 32 do
    ignore (Slab.alloc layout.Layout.inode_slab)
  done;
  for _ = 1 to 32 do
    ignore (Slab.alloc layout.Layout.fentry_slab)
  done;
  let cp = Region.checkpoint region in
  (* sequential reference: wall-clock + 1-worker virtual time *)
  Fs.invalidate_shared region;
  let t0 = Sys.time () in
  let _, _ = Recovery.run region in
  let seq_wall_s = Sys.time () -. t0 in
  let runs =
    List.map
      (fun workers ->
        Region.restore region cp;
        Fs.invalidate_shared region;
        let machine = Machine.create () in
        let _, r =
          Recovery.run ~par:(Recovery.Vtime { machine; workers }) region
        in
        let viols = List.length (Check.run region) in
        ( workers,
          Cost_model.seconds machine.Machine.cm r.Recovery.vtime_cycles,
          viols,
          r,
          List.map
            (fun (pass, c) -> (pass, Cost_model.seconds machine.Machine.cm c))
            r.Recovery.pass_cycles ))
      worker_counts
  in
  let model_s = List.map (fun (_, s, _, _, _) -> s) runs in
  let seq_model_s = List.hd model_s in
  let checker_violations =
    List.fold_left (fun a (_, _, v, _, _) -> a + v) 0 runs
  in
  let _, _, _, last_report, _ = List.nth runs (List.length runs - 1) in
  let _, _, _, _, passes_w4 =
    List.find (fun (w, _, _, _, _) -> w = ledger_workers) runs
  in
  {
    files;
    dirs;
    seq_wall_s;
    seq_model_s;
    model_s;
    speedup =
      List.map (fun s -> if s > 0.0 then seq_model_s /. s else 0.0) model_s;
    checker_violations;
    report = last_report;
    passes_w4;
    peak_rss_mb = Report.peak_rss_mb ();
  }

let run ~scale =
  let title = "recovery: parallel mark-and-sweep recovery time vs file count" in
  Util.header title;
  Report.note
    (Printf.sprintf
       "model_s: virtual-time seconds of Recovery.run under the work-pool \
        vtime driver at each worker count (dependent metadata line fetches \
        at NVMM latency/MLP, bulk segment scans at streaming bandwidth, \
        sequential phases on worker 0); seq_wall_s: host wall-clock of the \
        plain sequential run, sanity anchor only; speedup: model_s[w=1] / \
        model_s[w]; peak_rss_mb: the process's peak resident set (VmHWM) \
        after the point, null where unavailable; paper anchor: %d objects \
        recovered in %g s"
       paper_objects paper_seconds);
  let per_worker name =
    List.map (fun w -> Printf.sprintf "%s_w%d" name w) worker_counts
  in
  Report.table ~title
    ~columns:
      ([ "files"; "dirs"; "seq_wall_s" ]
      @ per_worker "model_s" @ per_worker "speedup"
      @ [ "checker_violations"; "peak_rss_mb" ]);
  let file_counts =
    List.map (fun b -> Util.scaled ~scale b) [ 10_000; 100_000; 1_000_000 ]
    |> List.sort_uniq compare
  in
  Printf.printf
    "%-9s %-6s | %-9s %-9s | %s | %s | %s\n" "files" "dirs" "wall(s)" "model(s)"
    "model seconds at w=1/2/4/8" "speedup" "peak RSS";
  let points =
    List.map
      (fun files ->
        let p = measure ~files in
        Printf.printf "%-9d %-6d | %9.3f %9.4f | %s | %s | %s | fsck %s\n" p.files
          p.dirs p.seq_wall_s p.seq_model_s
          (String.concat " "
             (List.map (Printf.sprintf "%9.4f") p.model_s))
          (String.concat " " (List.map (Printf.sprintf "%5.2f") p.speedup))
          (match p.peak_rss_mb with
          | Some mb -> Printf.sprintf "%.0f MB" mb
          | None -> "n/a")
          (if p.checker_violations = 0 then "clean"
           else Printf.sprintf "%d VIOLATIONS" p.checker_violations);
        Report.row
          (Printf.sprintf "%d files" p.files)
          ([ float_of_int p.files; float_of_int p.dirs; p.seq_wall_s ]
          @ p.model_s @ p.speedup
          @ [
              float_of_int p.checker_violations;
              Option.value p.peak_rss_mb ~default:nan;
            ]);
        p)
      file_counts
  in
  (* the per-pass ledger: where each point's recovery time goes *)
  let pass_names = List.map fst (List.hd points).passes_w4 in
  Report.table
    ~title:(Printf.sprintf "passes at w=%d (model seconds)" ledger_workers)
    ~columns:("files" :: List.map (fun p -> p ^ "_s") pass_names);
  List.iter
    (fun p ->
      Printf.printf "passes at w=%d, %d files: %s\n" ledger_workers p.files
        (String.concat " "
           (List.map (fun (pass, s) -> Printf.sprintf "%s=%.3g" pass s)
              p.passes_w4));
      Report.row
        (Printf.sprintf "%d files" p.files)
        (float_of_int p.files :: List.map snd p.passes_w4))
    points;
  let last = List.nth points (List.length points - 1) in
  let objs = last.files + last.dirs in
  let rate = float_of_int objs /. Float.max 1e-9 last.seq_model_s in
  Printf.printf
    "largest point: %d objects in %.3f model s (%.0f objects/s); paper \
     population (%d objects) would take ~%.1f s at this rate (paper: %.1f \
     s); 8-worker sweep: %.2fx\n"
    objs last.seq_model_s rate paper_objects
    (float_of_int paper_objects /. rate)
    paper_seconds
    (List.nth last.speedup (List.length last.speedup - 1));
  Report.table
    ~title:
      (Printf.sprintf "recovery report at w=%d"
         (List.nth worker_counts (List.length worker_counts - 1)))
    ~columns:
      [
        "reclaimed_inodes";
        "reclaimed_fentries";
        "quarantined";
        "resolve_passes";
        "mark_tasks";
        "sweep_tasks";
      ];
  List.iter
    (fun p ->
      let r = p.report in
      Report.row
        (Printf.sprintf "%d files" p.files)
        (List.map float_of_int
           [
             r.Recovery.reclaimed_inodes;
             r.Recovery.reclaimed_fentries;
             r.Recovery.quarantined;
             r.Recovery.resolve_passes;
             r.Recovery.mark_tasks;
             r.Recovery.sweep_tasks;
           ]))
    points

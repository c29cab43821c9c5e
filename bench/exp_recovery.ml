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

    JSON: [BENCH_recovery.json], schema [simurgh-recovery-v1]. *)

module Fs = Simurgh_core.Fs
module Recovery = Simurgh_core.Recovery
module Check = Simurgh_core.Check
module Layout = Simurgh_core.Layout
module Region = Simurgh_nvmm.Region
module Slab = Simurgh_alloc.Slab_alloc
module Machine = Simurgh_sim.Machine
module Cost_model = Simurgh_sim.Cost_model
module Collect = Simurgh_obs.Collect

let worker_counts = [ 1; 2; 4; 8 ]
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
  peak_rss_mb : float option;
      (** the process's peak resident set after the point, MB *)
}

(* ~1.8 KB of metadata per file covers fentry + inode slab slots, the
   48-entries-per-dir hash blocks (two 4 KiB blocks per directory) and
   allocator slack at every sweep point. *)
let region_bytes ~files = (96 * 1024 * 1024) + (files * 1800)

(* [VmHWM] of /proc/self/status in MB; [None] where that file is missing. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))

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
        (Cost_model.seconds machine.Machine.cm r.Recovery.vtime_cycles, viols, r))
      worker_counts
  in
  let model_s = List.map (fun (s, _, _) -> s) runs in
  let seq_model_s = List.hd model_s in
  let checker_violations =
    List.fold_left (fun a (_, v, _) -> a + v) 0 runs
  in
  let _, _, last_report = List.nth runs (List.length runs - 1) in
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
    peak_rss_mb = peak_rss_mb ();
  }

let run ~scale =
  Util.header
    "recovery: parallel mark-and-sweep recovery time vs file count";
  let counters = ref [] in
  Collect.note_source (fun () -> !counters @ Recovery.counters ());
  let tally k v = counters := (k, v) :: !counters in
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
        tally
          (Printf.sprintf "recovery/model_s_files%d" p.files)
          p.seq_model_s;
        tally
          (Printf.sprintf "recovery/speedup_w8_files%d" p.files)
          (List.nth p.speedup (List.length p.speedup - 1));
        tally "recovery/checker_violations"
          (float_of_int p.checker_violations);
        p)
      file_counts
  in
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

  (* --- BENCH_recovery.json --------------------------------------------- *)
  let oc = open_out "BENCH_recovery.json" in
  let out fmt = Printf.fprintf oc fmt in
  let floats l = String.concat ", " (List.map (Printf.sprintf "%.6f") l) in
  out "{\n  \"schema\": \"simurgh-recovery-v1\",\n";
  out "  \"run\": \"recovery\",\n  \"scale\": %g,\n" scale;
  out "  \"worker_counts\": [%s],\n"
    (String.concat ", " (List.map string_of_int worker_counts));
  out "  \"paper_anchor\": {\"objects\": %d, \"seconds\": %g},\n"
    paper_objects paper_seconds;
  out
    "  \"note\": \"model_s: virtual-time seconds of Recovery.run under the \
     work-pool vtime driver at each worker count (dependent metadata line \
     fetches at NVMM latency/MLP, bulk segment scans at streaming \
     bandwidth, sequential phases on worker 0); seq_wall_s: host \
     wall-clock of the plain sequential run, sanity anchor only; speedup: \
     model_s[w=1] / model_s[w]; peak_rss_mb: the process's peak resident \
     set (VmHWM) after the point, null where unavailable\",\n";
  out "  \"points\": [\n";
  List.iteri
    (fun i p ->
      out "    {\"files\": %d, \"dirs\": %d,\n" p.files p.dirs;
      out "     \"seq_wall_s\": %.6f, \"seq_model_s\": %.6f,\n" p.seq_wall_s
        p.seq_model_s;
      out "     \"model_s\": [%s],\n" (floats p.model_s);
      out "     \"speedup\": [%s],\n" (floats p.speedup);
      out "     \"checker_violations\": %d,\n" p.checker_violations;
      out "     \"peak_rss_mb\": %s,\n"
        (match p.peak_rss_mb with
        | Some mb -> Printf.sprintf "%.1f" mb
        | None -> "null");
      let r = p.report in
      out
        "     \"report\": {\"files\": %d, \"dirs\": %d, \
         \"reclaimed_inodes\": %d, \"reclaimed_fentries\": %d, \
         \"quarantined\": %d, \"resolve_passes\": %d, \"mark_tasks\": %d, \
         \"sweep_tasks\": %d}}%s\n"
        r.Recovery.files r.Recovery.dirs r.Recovery.reclaimed_inodes
        r.Recovery.reclaimed_fentries r.Recovery.quarantined
        r.Recovery.resolve_passes r.Recovery.mark_tasks
        r.Recovery.sweep_tasks
        (if i = List.length points - 1 then "" else ","))
    points;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote BENCH_recovery.json\n"

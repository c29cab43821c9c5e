(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (see DESIGN.md Section 3 for the experiment index).

    Usage:
      dune exec bench/main.exe                   -- run everything
      dune exec bench/main.exe -- fig7b fig9     -- selected experiments
      dune exec bench/main.exe -- --scale 2.0 all
      dune exec bench/main.exe -- --json out fig7a fig10
      dune exec bench/main.exe -- --list

    With [--json DIR], each experiment additionally writes
    [DIR/BENCH_<id>.json]: the printed tables and notes, the host block
    (wall-clock seconds, peak RSS) and the merged observability snapshot
    (per-op latency percentiles, per-site lock contention,
    region/allocator counters).  Schema: "simurgh-bench-v1", documented
    in DESIGN.md.  This is the only JSON the harness writes; the
    committed BENCH_*.json files come from [make bench-commit]. *)

module Obs = Simurgh_obs

let experiments : (string * string * (scale:float -> unit)) list =
  [
    ("sec33", "cycle counts: call vs jmpp/pret vs syscall (gem5-lite)",
     Exp_sec33.run);
    ("tab1", "Table 1: NOVA execution-time breakdown", Exp_tab1.run);
    ("fig6", "Fig. 6: FxMark DRBL original vs adapted read bandwidth",
     Exp_fig6.run);
    ("fig7", "Fig. 7a-l: all FxMark microbenchmarks", Exp_fig7.run);
    ("tab2+fig8", "Table 2 + Fig. 8: Filebench workloads", Exp_fig8.run);
    ("fig9", "Fig. 9: YCSB throughput (normalized to SplitFS)", Exp_fig9.run);
    ("fig10", "Fig. 10: YCSB breakdown for Simurgh", Exp_fig10.run);
    ("fig11", "Fig. 11: tar pack/unpack", Exp_fig11.run);
    ("fig12", "Fig. 12: git add/commit/reset", Exp_fig12.run);
    ("sec55", "Section 5.5: crash-recovery time", Exp_sec55.run);
    ("crash", "crash-image exploration, media faults, fsck checker",
     Exp_crash.run);
    ("sched", "schedule exploration + happens-before race detection",
     Exp_sched.run);
    ("ablation", "ablations of Simurgh design choices", Exp_ablation.run);
    ("region", "NVMM region data-path microbenchmark (wall-clock)",
     Exp_region.run);
    ("scale", "metadata scalability: seed vs scaled Simurgh",
     Exp_scale.run);
    ("data", "data-path scaling: byte-range locks + open-loop tail latency",
     Exp_data.run);
    ("recovery",
     "recovery time vs file count + parallel-sweep speedup",
     Exp_recovery.run);
    ("numa",
     "multi-region NVMM: bandwidth scaling + cross-socket surcharge",
     Exp_numa.run);
    ("secure",
     "security plane: plain vs protected entry vs full enforcement",
     Exp_secure.run);
  ]

let is_fig7_sub id =
  String.length id = 5
  && String.sub id 0 4 = "fig7"
  && id.[4] >= 'a'
  && id.[4] <= 'l'

let mkdir_p dir =
  try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let known = List.map (fun (id, _, _) -> id) experiments in
  let cfg =
    match Obs.Obs_cli.parse ~known ~is_dynamic:is_fig7_sub args with
    | Ok cfg -> cfg
    | Error msg ->
        prerr_endline ("bench: " ^ msg);
        exit 2
  in
  if cfg.Obs.Obs_cli.list_only then begin
    List.iter
      (fun (id, desc, _) -> Printf.printf "%-10s %s\n" id desc)
      experiments;
    exit 0
  end;
  if cfg.Obs.Obs_cli.check_only then exit (Exp_crash.fsck ());
  if cfg.Obs.Obs_cli.races_only then
    exit (Exp_sched.selfcheck ~scale:cfg.Obs.Obs_cli.scale ());
  let scale = cfg.Obs.Obs_cli.scale in
  let json_dir = cfg.Obs.Obs_cli.json_dir in
  Option.iter mkdir_p json_dir;
  Printf.printf
    "Simurgh reproduction benchmark harness (scale=%.2f). Throughputs are \
     virtual-time (modeled 2.5 GHz Xeon + Optane; see DESIGN.md).\n"
    scale;
  let run_one id f =
    match json_dir with
    | None -> f ~scale
    | Some dir ->
        (* collect per-machine obs runs + counter sources created while
           this experiment runs, then export everything it printed *)
        Obs.Report.begin_exp id;
        Obs.Collect.install ();
        Fun.protect
          ~finally:(fun () ->
            if Obs.Collect.active () || Obs.Report.active () then begin
              Obs.Collect.discard ();
              Obs.Report.discard ()
            end)
          (fun () ->
            let t0 = Unix.gettimeofday () in
            f ~scale;
            let wall_s = Unix.gettimeofday () -. t0 in
            let merged = Obs.Collect.drain () in
            match Obs.Report.finish ~dir ~scale ~wall_s ~obs:merged with
            | Some path -> Printf.printf "wrote %s\n" path
            | None -> ())
  in
  let run_id id =
    if is_fig7_sub id then run_one id (fun ~scale -> Exp_fig7.run_one ~scale id)
    else
      let _, _, f = List.find (fun (i, _, _) -> i = id) experiments in
      run_one id f
  in
  match cfg.Obs.Obs_cli.ids with
  | [] -> List.iter (fun (id, _, f) -> run_one id f) experiments
  | ids ->
      List.iter
        (fun id ->
          if id = "all" then List.iter (fun (i, _, f) -> run_one i f) experiments
          else run_id id)
        ids

(** What every workload shares: the metric catalogue, the trial record
    and how a run pools its trials, the closed- and open-loop drivers
    over [Engine.run], recovery of the image a timed phase leaves, and
    the per-layer numbers read from the machine, the region and the
    allocators. *)

module Fs = Simurgh_core.Fs
module Layout = Simurgh_core.Layout
module Recovery = Simurgh_core.Recovery
module Check = Simurgh_core.Check
module Region = Simurgh_nvmm.Region
module Balloc = Simurgh_alloc.Block_alloc
module Slab = Simurgh_alloc.Slab_alloc
module Machine = Simurgh_sim.Machine
module Sthread = Simurgh_sim.Sthread
module Engine = Simurgh_sim.Engine
module Cost_model = Simurgh_sim.Cost_model
module Resource = Simurgh_sim.Resource
module Contention = Simurgh_obs.Contention

(* ---- metric catalogue (BENCHMARK.json lists the same names) ---------- *)

(** End-to-end metrics: name, unit, whether higher is better, and the
    regression bound as a share of the parent's median.  Every workload
    measures every one of them. *)
let end_to_end =
  [
    ("throughput_kops", "Kops/s", true, 0.01);
    ("lat_p50_us", "us", false, 0.02);
    ("lat_p999_us", "us", false, 0.05);
    ("recovery_s", "s", false, 0.01);
    ("space_amp", "ratio", false, 0.01);
    ("host_ns_per_op", "ns", false, 0.2);
    ("host_heap_mb", "MB", false, 0.1);
    ("setup_s", "s", false, 0.25);
  ]

(** Lock sites reported per layer: every Simurgh site the default
    configuration acquires, plus the store's writer lock. *)
let lock_sites =
  [ "dir-row"; "dir-append"; "file-lock"; "file-extent"; "slab-cache"; "balloc-seg"; "db-write" ]

(** The [Fs_intf.S] operations the workloads issue in their timed phase. *)
let fs_ops = [ "create"; "open"; "close"; "append"; "fsync"; "unlink"; "rename"; "stat"; "pread"; "pwrite" ]

(** Per-layer metrics and units, printed by the traced run. *)
let per_layer =
  [
    ("kvstore.get_p50_us", "us");
    ("kvstore.put_p999_us", "us");
    ("kvstore.self_share", "ratio");
    ("kvstore.flushes", "count");
    ("kvstore.compactions", "count");
    ("kvstore.fs_bytes_per_put", "B");
    ("fs.calls_per_op", "count");
    ("fs.vtime_share", "ratio");
    ("fs.host_ns_per_call", "ns");
  ]
  @ List.concat_map (fun op -> [ ("fs." ^ op ^ ".p50_us", "us"); ("fs." ^ op ^ ".p999_us", "us") ]) fs_ops
  @ [ ("entry.cycle_share", "ratio") ]
  @ List.concat_map
      (fun s -> [ ("locks." ^ s ^ ".wait_us_per_op", "us"); ("locks." ^ s ^ ".contended_ratio", "ratio") ])
      lock_sites
  @ [
      ("locks.wait_share", "ratio");
      ("alloc.block_allocs_per_op", "count");
      ("alloc.blocks_per_op", "count");
      ("alloc.slab_allocs_per_op", "count");
      ("nvmm.store_bytes_per_op", "B");
      ("nvmm.load_bytes_per_op", "B");
      ("nvmm.flush_lines_per_op", "count");
      ("nvmm.fences_per_op", "count");
      ("nvmm.write_amp", "ratio");
      ("device.nvmm_read_util", "ratio");
      ("device.nvmm_write_util", "ratio");
      ("recovery.host_s", "s");
      ("recovery.mark_tasks", "count");
      ("recovery.sweep_tasks", "count");
      ("recovery.resolve_passes", "count");
      ("recovery.reclaimed_objects", "count");
      ("recovery.load_bytes_per_object", "B");
      ("check.host_s", "s");
      ("host.fs_ns_per_op", "ns");
      ("host.outside_fs_ns_per_op", "ns");
      ("host.minor_words_per_op", "words");
      ("host.major_gcs", "count");
      ("trace.overhead_pct", "%");
    ]

let us cm cycles = Cost_model.seconds cm cycles *. 1e6
let per a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ---- one trial ------------------------------------------------------- *)

(** Host cost of a timed phase. *)
type cost = {
  host_s : float;  (** user CPU seconds, see {!cpu} *)
  wall_s : float;
  minor_words : float;
  major_gcs : int;
}

let add_cost a b =
  {
    host_s = a.host_s +. b.host_s;
    wall_s = a.wall_s +. b.wall_s;
    minor_words = a.minor_words +. b.minor_words;
    major_gcs = a.major_gcs + b.major_gcs;
  }

(** What a trial measured on the virtual clock, kept whole so that a run
    pools its trials ({!pooled}). *)
type virt = {
  lat : float array;  (** cycles per request of the latency phase *)
  kind : Bytes.t;  (** each request's type, as a byte *)
  completed : int;  (** requests of the closed-loop phase ... *)
  makespan : float;  (** ... and the cycles it took *)
  space_used : float;  (** block bytes in use, summed over samples ... *)
  space_live : float;  (** ... and live user bytes over the same samples *)
  recovery_cycles : float;  (** recovery of the image the trial left *)
}

(** One set-up plus its timed phases, on one trial's inputs. *)
type trial = {
  setup_s : float list;  (** host CPU seconds of each set-up *)
  scored_s : float;  (** host CPU seconds of the work [host_ns_per_op] scores ... *)
  scored : int;  (** ... and its requests (recovered objects, on recovery) *)
  cost : cost;  (** of all timed phases *)
  requests : int;
  failed : int;
  virt : virt;
  layers : (string * float) list;
  heap_mb : float;  (** see {!heap_words} *)
  notes : string list;  (** human-readable lines for the report *)
  violations : string list;
}

(** Host time is the process's user CPU time: not wall time, because the
    machine is shared, and not system time, which is mostly page faults
    whose cost follows the host's memory state (on data-openloop it
    moved between 0.15 and 0.29 s in consecutive, identical trials,
    against about 0.5 s of user time). *)
let cpu () = (Unix.times ()).Unix.tms_utime

(** [timed f] is [f ()] with the host CPU seconds it took. *)
let timed f =
  let t0 = cpu () in
  let r = f () in
  (r, cpu () -. t0)

(* The shared machine runs at changing speeds, in phases from a
   fraction of a second to minutes.  So a run times a fixed computation
   in the style of the simulator (hash-table updates, boxed floats, byte
   blits) just before and just after every trial, and scales the
   trial's host times to the speed at which that computation takes
   [reference_s]; see {!local_reference}.  Benchmark code, so no change
   to the library moves it. *)
let reference_s = 1e-3
let reference_reps = 10

let reference () =
  let h = Hashtbl.create 4096 and b = Bytes.create 65536 in
  snd
    (timed (fun () ->
         for i = 0 to 20_000 do
           Hashtbl.replace h (i land 4095) (float_of_int i);
           ignore (Hashtbl.find_opt h ((i * 7) land 4095));
           Bytes.blit b ((i * 64) land 32767) b 32768 64
         done))

(** The reference computation's time at this moment: the fastest of
    [reference_reps] runs, after a full collection so that none of them
    pays for garbage a trial left. *)
let local_reference () =
  Gc.full_major ();
  let m = ref infinity in
  for _ = 1 to reference_reps do
    m := Float.min !m (reference ())
  done;
  !m

(** [measure f] is [f ()] with its host cost. *)
let measure f =
  let g0 = Gc.quick_stat () in
  let c0 = cpu () and w0 = Unix.gettimeofday () in
  let r = f () in
  let c1 = cpu () and w1 = Unix.gettimeofday () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      host_s = c1 -. c0;
      wall_s = w1 -. w0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(** Live heap words.  A trial reports the growth from before its set-up
    to the end of its timed phase, with that phase's state still
    reachable: the simulator's footprint, independent of when the
    collector last ran and of what earlier trials left for pooling. *)
let heap_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let heap_mb w0 = fi ((heap_words () - w0) * (Sys.word_size / 8)) /. 1e6

(* ---- pooling --------------------------------------------------------- *)

(** Latency of a request mix, [kind] the type of each request.

    The median is each type's median weighted by its share of the
    requests, as YCSB reports latency per operation type: the plain
    median of a mix of a fast and a slow type (YCSB-A's gets and
    updates) lies between the two modes and jumps from one to the other
    with the seed.  The tail is p99.9 over all requests, the highest
    percentile with at least ten samples beyond it at every size the
    workloads use. *)
let lat_metrics cm lat kind =
  let n = Array.length lat in
  let types = 1 + Bytes.fold_left (fun m c -> max m (Char.code c)) 0 kind in
  let by_type = Array.make types [||] and fill = Array.make types 0 in
  Bytes.iter (fun c -> fill.(Char.code c) <- fill.(Char.code c) + 1) kind;
  Array.iteri (fun t c -> by_type.(t) <- Array.make c 0.0) fill;
  Array.fill fill 0 types 0;
  Array.iteri
    (fun i x ->
      let t = Bytes.get_uint8 kind i in
      by_type.(t).(fill.(t)) <- x;
      fill.(t) <- fill.(t) + 1)
    lat;
  let p50 =
    Array.fold_left
      (fun acc a ->
        Array.sort Float.compare a;
        acc +. (fi (Array.length a) /. fi n *. Stats.pct a 50.0))
      0.0 by_type
  in
  let s = Stats.sorted lat in
  ( [ ("lat_p50_us", us cm p50); ("lat_p999_us", us cm (Stats.pct s 99.9)) ],
    Printf.sprintf "latency over %d requests of %d types, %d beyond p99.9" n types (Stats.beyond s 99.9) )

(** The virtual end-to-end metrics of a run: its trials pooled, as if
    they were one long trial.  Throughput is all closed-loop requests
    over all their cycles, latency percentiles are over every request,
    recovery time is the mean, space amplification the ratio of sums. *)
let pooled cm (vs : virt list) =
  let total f = List.fold_left (fun a v -> a +. f v) 0.0 vs in
  let lat, note =
    lat_metrics cm (Array.concat (List.map (fun v -> v.lat) vs)) (Bytes.concat Bytes.empty (List.map (fun v -> v.kind) vs))
  in
  ( [ ("throughput_kops", total (fun v -> fi v.completed) /. Cost_model.seconds cm (total (fun v -> v.makespan)) /. 1e3) ]
    @ lat
    @ [
        ("recovery_s", Cost_model.seconds cm (total (fun v -> v.recovery_cycles) /. fi (List.length vs)));
        ("space_amp", total (fun v -> v.space_used) /. total (fun v -> v.space_live));
      ],
    note )

(* ---- drivers --------------------------------------------------------- *)

type run = {
  lat : float array;  (** virtual cycles per request, client-major *)
  makespan : float;  (** cycles *)
  failures : int;
}

let errors = ref []

(** A failed request is counted and its first few errors kept for the
    report. *)
let note_failure e =
  if List.length !errors < 5 then errors := Printexc.to_string e :: !errors

(** [drive machine ~clients ~per ~due f] runs [per] requests of each of
    [clients] simulated clients, [f ctx c k] issuing client [c]'s
    request [k].  Closed loop ([due = None]): each client issues its
    next request when the previous one returns; latency is service
    time.  Open loop: request [id] is due at [due.(id)] cycles whatever
    the system does, and its latency runs from that due time, so a stall
    is charged to every request queued behind it; a client never starts
    a request before it is due, and is never late in virtual time.
    Request ids are client-major, so the trace's 1-in-16 sample is the
    same set of requests in every run. *)
let drive machine ~clients ~per ~due f =
  let threads = Array.init clients (fun i -> Sthread.create i) in
  let next = Array.make clients 0 in
  let lat = Array.make (clients * per) 0.0 in
  let failures = ref 0 in
  let step thr =
    let i = thr.Sthread.tid in
    let k = next.(i) in
    if k >= per then false
    else begin
      let id = (i * per) + k in
      let start =
        match due with
        | None -> thr.Sthread.now
        | Some d ->
            let t = d.(id) in
            Sthread.wait_until thr t;
            t
      in
      Trace.request ~client:i id;
      (try f (Machine.ctx machine thr) i k
       with Simurgh_fs_common.Errno.Err _ as e ->
         incr failures;
         note_failure e);
      lat.(id) <- thr.Sthread.now -. start;
      next.(i) <- k + 1;
      true
    end
  in
  let o = Engine.run threads step in
  { lat; makespan = o.Engine.makespan_cycles; failures = !failures }

let closed_loop machine ~clients ~per f = drive machine ~clients ~per ~due:None f

let sum a = Array.fold_left ( +. ) 0.0 a

(* ---- recovery of the image a timed phase leaves ----------------------- *)

let recovery_workers = 4

type recovered = {
  cycles : float;  (** the recovery's virtual makespan *)
  report : Recovery.report;
  rcost : cost;
  rlayers : (string * float) list;
  rbad : string list;
}

(** Cut power on [region] and recover it: [Recovery.run] under the
    virtual-time driver with [recovery_workers] workers, then fsck
    ([Check.run]), which must be clean.  Any file-system handle on
    [region] is stale afterwards. *)
let recover region =
  let machine = Machine.create () in
  let loads0 = (Region.stats region).Region.load_bytes in
  let (_, rep), rcost = measure (fun () -> Recovery.run ~par:(Recovery.Vtime { machine; workers = recovery_workers }) region) in
  let loads = fi ((Region.stats region).Region.load_bytes - loads0) in
  let fsck, check_s = timed (fun () -> Check.run region) in
  let objects = fi (rep.Recovery.files + rep.Recovery.dirs + rep.Recovery.symlinks) in
  {
    cycles = rep.Recovery.vtime_cycles;
    report = rep;
    rcost;
    rlayers =
      [
        ("recovery.host_s", rcost.host_s);
        ("recovery.mark_tasks", fi rep.Recovery.mark_tasks);
        ("recovery.sweep_tasks", fi rep.Recovery.sweep_tasks);
        ("recovery.resolve_passes", fi rep.Recovery.resolve_passes);
        ("recovery.reclaimed_objects", fi (rep.Recovery.reclaimed_inodes + rep.Recovery.reclaimed_fentries));
        ("recovery.load_bytes_per_object", per loads objects);
        ("check.host_s", check_s);
      ];
    rbad =
      (match fsck with
      | [] -> []
      | v :: _ ->
          [ Printf.sprintf "fsck after recovery: %d violations, first: %s" (List.length fsck) (Check.violation_to_string v) ]);
  }

(** [recover] at the end of a timed phase, every operation returned:
    recovery must find nothing to repair. *)
let recover_clean region =
  let r = recover region in
  let rep = r.report in
  let repaired =
    rep.Recovery.reclaimed_inodes + rep.Recovery.reclaimed_fentries + rep.Recovery.rolled_back_renames
    + rep.Recovery.completed_renames + rep.Recovery.completed_deletes
  in
  if repaired = 0 then r
  else { r with rbad = Printf.sprintf "recovery of a clean image repaired %d objects" repaired :: r.rbad }

(* ---- per-layer numbers from outside the layers ------------------------ *)

type snap = { r : Region.stats; ba : Balloc.stats; slab_allocs : int }

let snap fs =
  let l = Fs.layout fs in
  {
    r = Region.stats (Fs.region fs);
    ba = Balloc.stats l.Layout.balloc;
    slab_allocs = (Slab.stats l.Layout.inode_slab).Slab.allocs + (Slab.stats l.Layout.fentry_slab).Slab.allocs;
  }

let held (s : Balloc.stats) = s.Balloc.blocks_allocated - s.Balloc.blocks_freed - s.Balloc.blocks_quarantined

(** A probe of the bytes of block space in use: [statfs] once, then the
    allocator's own counters, so sampling it during a timed phase causes
    no region traffic and leaves the NVMM counts alone.  [check ()]
    compares the running count with a fresh [statfs]. *)
let space_probe fs =
  let balloc = (Fs.layout fs).Layout.balloc in
  let bs = Balloc.block_size balloc in
  let base = (Fs.statfs fs).Fs.used_blocks - held (Balloc.stats balloc) in
  let used () = fi (base + held (Balloc.stats balloc)) *. fi bs in
  let check () =
    let st = Fs.statfs fs in
    let v = ref [] in
    if st.Fs.free_blocks + st.Fs.used_blocks + st.Fs.quarantined_blocks <> st.Fs.total_blocks then
      v := "statfs: free + used + quarantined <> total" :: !v;
    if fi (st.Fs.used_blocks * bs) <> used () then
      v := Printf.sprintf "statfs used %d blocks, allocator counters say %.0f" st.Fs.used_blocks (used () /. fi bs) :: !v;
    !v
  in
  (used, check)

(** Lock, allocator, NVMM and device metrics of one timed phase:
    [requests] requests whose virtual latencies sum to [sum_lat],
    writing [user_bytes] bytes of application payload. *)
let layer_metrics machine ~before ~after ~requests ~sum_lat ~makespan ~user_bytes =
  let n = fi requests in
  let cm = machine.Machine.cm in
  let cont = (Machine.obs machine).Simurgh_obs.Run.contention in
  let locks =
    List.concat_map
      (fun site ->
        let acq, contended, wait = Contention.sum_of_prefix cont site in
        [
          ("locks." ^ site ^ ".wait_us_per_op", per (us cm wait) n);
          ("locks." ^ site ^ ".contended_ratio", per (fi contended) (fi acq));
        ])
      lock_sites
  in
  let d f = fi (f after.r - f before.r) in
  let stores = d (fun r -> r.Region.store_bytes) in
  locks
  @ [
      ("locks.wait_share", per (Contention.total_wait cont) sum_lat);
      ("alloc.block_allocs_per_op", per (fi (after.ba.Balloc.allocs - before.ba.Balloc.allocs)) n);
      ( "alloc.blocks_per_op",
        per (fi (after.ba.Balloc.blocks_allocated - before.ba.Balloc.blocks_allocated)) n );
      ("alloc.slab_allocs_per_op", per (fi (after.slab_allocs - before.slab_allocs)) n);
      ("nvmm.store_bytes_per_op", per stores n);
      ("nvmm.load_bytes_per_op", per (d (fun r -> r.Region.load_bytes)) n);
      ("nvmm.flush_lines_per_op", per (d (fun r -> r.Region.flushes)) n);
      ("nvmm.fences_per_op", per (d (fun r -> r.Region.fences)) n);
      ("nvmm.write_amp", per stores user_bytes);
      ("device.nvmm_read_util", per (Resource.busy_cycles machine.Machine.nvmm_read_srv) makespan);
      ("device.nvmm_write_util", per (Resource.busy_cycles machine.Machine.nvmm_write_srv) makespan);
    ]

(** The span-derived metrics of a traced phase ([Trace] holds exactly
    that phase's spans). *)
let trace_metrics cm ~requests ~sum_lat ~wall_s =
  let n = fi requests in
  let calls = Trace.sum "fs." (fun s -> fi s.Trace.calls) in
  let fs_host = Trace.sum "fs." (fun s -> s.Trace.host) in
  let pcts name =
    match Hashtbl.find_opt Trace.st.Trace.stats name with
    | None -> (0.0, 0.0)
    | Some s ->
        let a = Stats.sorted (Trace.Fbuf.to_array s.Trace.lat) in
        (us cm (Stats.pct a 50.0), us cm (Stats.pct a 99.9))
  in
  let entry_cycles = cm.Cost_model.jmpp_pret_cycles +. cm.Cost_model.protected_stack_cycles in
  [
    ("kvstore.get_p50_us", fst (pcts "kvstore.get"));
    ("kvstore.put_p999_us", snd (pcts "kvstore.put"));
    ("kvstore.self_share", per (Trace.sum "kvstore." (fun s -> s.Trace.vself)) sum_lat);
    ("fs.calls_per_op", per calls n);
    ("fs.vtime_share", per (Trace.sum "fs." (fun s -> s.Trace.vtime)) sum_lat);
    ("fs.host_ns_per_call", per (fs_host *. 1e9) calls);
    ("entry.cycle_share", per (calls *. entry_cycles) sum_lat);
    ("host.fs_ns_per_op", per (fs_host *. 1e9) n);
    ("host.outside_fs_ns_per_op", per ((wall_s -. fs_host) *. 1e9) n);
  ]
  @ List.concat_map
      (fun op ->
        let p50, p999 = pcts ("fs." ^ op) in
        [ ("fs." ^ op ^ ".p50_us", p50); ("fs." ^ op ^ ".p999_us", p999) ])
      fs_ops

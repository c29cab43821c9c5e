(** Run id [data]: the file data plane — byte-range locks, concurrent
    append, and open-loop tail latency.

    Two parts:

    + {b closed loop}: fxmark-style shared-file scaling curves for
      three data workloads on one file — disjoint-range 4 KiB
      overwrites, concurrent appends, and random 4 KiB reads — sweeping
      thread counts past the paper's 10, comparing the scaled metadata
      configuration with its whole-file data lock (baseline) against
      the same configuration with byte-range locking ([range_locks]).
      Both share the same on-media layout; only volatile coordination
      differs.  The per-row "file-range/" contention sites are summed
      so the remaining waits are attributable.
    + {b open loop}: the closed-loop curves measure service time only —
      clients that issue the next op the instant the previous returns
      never queue.  {!Simurgh_sim.Openloop} offers Poisson arrivals at
      a ladder of fractions of the measured closed-loop capacity over a
      Zipf-popular file set, exposing the saturation knee in
      p50/p99/p999 sojourn time for both configurations.

    Results go to stdout, mirrored into {!Simurgh_obs.Report} for
    [--json]. *)

open Simurgh_fs_common
open Simurgh_sim
module Fs = Simurgh_core.Fs
module Region = Simurgh_nvmm.Region
module Report = Simurgh_obs.Report
module Contention = Simurgh_obs.Contention

let thread_counts = [ 1; 2; 4; 8; 16; 24 ]
let io = 4096

(* Each thread owns this many 4 KiB blocks of the shared file in the
   disjoint-write workload (and the read workload draws from the same
   span), so range-locked writers from different threads never share a
   row while the baseline still funnels through one whole-file lock. *)
let blocks_per_thread = 16

type wl = Disjoint_write | Shared_append | Shared_read

let wl_name = function
  | Disjoint_write -> "disjoint-write"
  | Shared_append -> "shared-append"
  | Shared_read -> "shared-read"

(* Both configurations carry the metadata-scalability features so the
   only delta is the data-path protocol. *)
let fresh ~range ~region_mb =
  let region = Region.create (region_mb * 1024 * 1024) in
  Fs.mkfs ~euid:0 ~scaled:true ~range_locks:range region

(* Appends grow the file by [threads * ops * io]; everything else works
   in place on a small pre-sized file. *)
let region_mb_for ~threads ~ops = function
  | Shared_append -> max 128 (96 + (threads * ops * (io * 2) / (1024 * 1024)))
  | Disjoint_write | Shared_read -> 128

type cell = {
  kops : float;
  range_acq : int;  (** "file-range/" row-lock acquisitions *)
  range_contended : int;
  range_wait : float;  (** virtual cycles waited on row locks *)
}

let run_cell ~range ~threads ~ops wl =
  let fs = fresh ~range ~region_mb:(region_mb_for ~threads ~ops wl) in
  Fs.mkdir fs "/d";
  let path = "/d/big" in
  let file_bytes = threads * blocks_per_thread * io in
  (match wl with
  | Disjoint_write | Shared_read ->
      let fd = Fs.openf fs (Types.creat Types.rdwr) path in
      let chunk = Bytes.make (16 * io) 'x' in
      let pos = ref 0 in
      while !pos < file_bytes do
        ignore (Fs.pwrite fs fd ~pos:!pos chunk);
        pos := !pos + Bytes.length chunk
      done;
      Fs.close fs fd
  | Shared_append ->
      let fd = Fs.openf fs (Types.creat Types.wronly) path in
      Fs.close fs fd);
  let fds = Array.init threads (fun _ -> Fs.openf fs Types.rdwr path) in
  let machine = Machine.create () in
  let buf = Bytes.make io 'd' in
  let op ctx j =
    let i = ctx.Machine.thr.Sthread.tid in
    let fd = fds.(i) in
    match wl with
    | Disjoint_write ->
        let pos = ((i * blocks_per_thread) + (j mod blocks_per_thread)) * io in
        ignore (Fs.pwrite ~ctx fs fd ~pos buf)
    | Shared_append -> ignore (Fs.append ~ctx fs fd buf)
    | Shared_read ->
        let rng = ctx.Machine.thr.Sthread.rng in
        let pos = Rng.int rng ((threads * blocks_per_thread) - 1) * io in
        ignore (Fs.pread ~ctx fs fd ~pos ~len:io)
  in
  let outcome = Engine.run_ops machine ~threads ~ops_per_thread:ops op in
  Array.iter (fun fd -> Fs.close fs fd) fds;
  let acq, contended, wait =
    Contention.sum_of_prefix
      (Machine.obs machine).Simurgh_obs.Run.contention "file-range/"
  in
  {
    kops = Util.kops (Engine.throughput machine outcome);
    range_acq = acq;
    range_contended = contended;
    range_wait = wait;
  }

let print_thread_header title =
  Report.table ~title ~columns:(List.map (Printf.sprintf "t%d") thread_counts);
  Printf.printf "%-18s" "threads";
  List.iter (fun t -> Printf.printf " %9d" t) thread_counts;
  print_newline ()

(* ---- open loop ------------------------------------------------------- *)

let ol_clients = 16
let ol_files = 64
let ol_theta = 0.99
let ladder = [ 0.2; 0.5; 0.8; 0.9; 1.0; 1.1; 1.3 ]

type ol_point = {
  frac : float;
  offered_kops : float;
  achieved_kops : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
}

(* A Zipf-popular set of small files, each overwritten one random
   4 KiB block at a time: the hot head of the popularity curve is where
   a whole-file lock queues and byte-range locking mostly does not. *)
let ol_prepare ~range =
  let fs = fresh ~range ~region_mb:128 in
  Fs.mkdir fs "/z";
  let chunk = Bytes.make (blocks_per_thread * io) 'x' in
  let paths =
    Array.init ol_files (fun i ->
        let p = Printf.sprintf "/z/f%02d" i in
        let fd = Fs.openf fs (Types.creat Types.rdwr) p in
        ignore (Fs.pwrite fs fd ~pos:0 chunk);
        Fs.close fs fd;
        p)
  in
  let fds =
    Array.init ol_clients (fun _ ->
        Array.map (fun p -> Fs.openf fs Types.rdwr p) paths)
  in
  let zipf = Zipf.create ~theta:ol_theta ol_files in
  let buf = Bytes.make io 'd' in
  let op ctx _j =
    let i = ctx.Machine.thr.Sthread.tid in
    let rng = ctx.Machine.thr.Sthread.rng in
    let f = Zipf.sample zipf rng in
    let pos = Rng.int rng (blocks_per_thread - 1) * io in
    ignore (Fs.pwrite ~ctx fs fds.(i).(f) ~pos buf)
  in
  op

(* Closed-loop capacity of the open-loop op mix: the ladder is offered
   as fractions of this, so the knee sits at frac ~ 1 by construction. *)
let ol_capacity ~ops op =
  let machine = Machine.create () in
  let outcome = Engine.run_ops machine ~threads:ol_clients ~ops_per_thread:ops op in
  Engine.throughput machine outcome

let ol_sweep ~config ~ops ~capacity =
  List.map
    (fun frac ->
      (* fresh file set per point: no backlog or cache state bleeds
         between offered-load levels *)
      let op = ol_prepare ~range:(config = "range") in
      let machine = Machine.create () in
      let rate = frac *. capacity in
      let r =
        Openloop.run machine ~clients:ol_clients ~rate ~ops_per_client:ops
          (fun ctx _client j -> op ctx j)
      in
      let us s = s *. 1.0e6 in
      {
        frac;
        offered_kops = Util.kops r.Openloop.offered;
        achieved_kops = Util.kops r.Openloop.achieved;
        p50_us = us r.Openloop.p50;
        p99_us = us r.Openloop.p99;
        p999_us = us r.Openloop.p999;
      })
    ladder

let print_ol_points config points =
  let title =
    Printf.sprintf
      "data open-loop: %s (zipf %.2f over %d files, %d clients)" config
      ol_theta ol_files ol_clients
  in
  Util.header title;
  Report.table ~title
    ~columns:[ "offered"; "achieved"; "p50us"; "p99us"; "p999us" ];
  Printf.printf "%-10s %9s %9s %9s %9s %9s\n" "load" "offerKops" "achKops"
    "p50us" "p99us" "p999us";
  List.iter
    (fun p ->
      Printf.printf "%-10s %9.0f %9.0f %9.1f %9.1f %9.1f\n"
        (Printf.sprintf "%.1fx" p.frac)
        p.offered_kops p.achieved_kops p.p50_us p.p99_us p.p999_us;
      Report.row
        (Printf.sprintf "%s %.1fx" config p.frac)
        [ p.offered_kops; p.achieved_kops; p.p50_us; p.p99_us; p.p999_us ])
    points

let run ~scale =
  let ops = Util.scaled ~scale 400 in
  let tmax = List.fold_left max 1 thread_counts in
  Report.note
    (Printf.sprintf
       "kops: virtual-time Kops/s of %d-byte ops, %d blocks per thread; \
        whole-file: scaled metadata config with the per-file rw lock; \
        byte-range: same config with range_locks (4 KiB row locks, \
        reserve/publish appends; same on-media layout)"
       io blocks_per_thread);
  (* --- closed loop ---------------------------------------------------- *)
  let contention =
    List.map
      (fun wl ->
        let title =
          Printf.sprintf
            "data %s: whole-file lock vs byte-range (Kops/s; %d ops/thread)"
            (wl_name wl) ops
        in
        Util.header title;
        print_thread_header title;
        let base =
          List.map (fun threads -> run_cell ~range:false ~threads ~ops wl)
            thread_counts
        in
        let rng =
          List.map (fun threads -> run_cell ~range:true ~threads ~ops wl)
            thread_counts
        in
        let base_kops = List.map (fun c -> c.kops) base in
        let range_kops = List.map (fun c -> c.kops) rng in
        Util.series "whole-file" " %9.0f" base_kops;
        Util.series "byte-range" " %9.0f" range_kops;
        Util.series "speedup" " %9.2f"
          (List.map2 (fun r b -> if b > 0.0 then r /. b else 0.0) range_kops
             base_kops);
        let top = List.nth rng (List.length rng - 1) in
        Printf.printf
          "%-18s row-lock acquisitions %d (%d contended, %.0f cycles waited) \
           at t%d\n"
          "" top.range_acq top.range_contended top.range_wait tmax;
        (wl_name wl, top))
      [ Disjoint_write; Shared_append; Shared_read ]
  in
  Report.table
    ~title:(Printf.sprintf "data byte-range row-lock contention at t%d" tmax)
    ~columns:[ "acquisitions"; "contended"; "wait_cycles" ];
  List.iter
    (fun (wl, c) ->
      Report.row wl
        [
          float_of_int c.range_acq;
          float_of_int c.range_contended;
          c.range_wait;
        ])
    contention;
  (* --- open loop ------------------------------------------------------ *)
  let ol_ops = Util.scaled ~scale 300 in
  List.iter
    (fun config ->
      let op = ol_prepare ~range:(config = "range") in
      let capacity = ol_capacity ~ops:ol_ops op in
      print_ol_points config (ol_sweep ~config ~ops:ol_ops ~capacity))
    [ "whole-file"; "range" ]

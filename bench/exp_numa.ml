(** Run id [numa]: the multi-region NVMM substrate (fig7-style sweeps).

    Two parts:

    + {b bandwidth scaling}: 16 threads stream 16 KiB pwrites into
      per-thread files spread round-robin over 1, 2 and 4 regions, each
      region behind its own bandwidth-server pair and every thread
      homed on its file's socket (best-case NUMA-local placement).
      One region saturates the single device's aggregate write rate;
      N regions multiply it, so aggregate bandwidth should scale until
      thread-side demand runs out.
    + {b remote surcharge}: a single thread writes the same file homed
      on region 1 (socket 1) twice — once homed on socket 1 (local)
      and once on socket 0 (remote) — so the measured latency ratio
      exposes the cross-socket multipliers of {!Cost_model} end to end
      through the file-system stack.

    Results go to stdout (mirrored into {!Simurgh_obs.Report} for
    [--json]) and to per-region [rN/region*] / [rN/region*\/alloc]
    observability counters. *)

open Simurgh_fs_common
open Simurgh_sim
module Shard = Simurgh_core.Shard
module Name_hash = Simurgh_core.Name_hash
module Report = Simurgh_obs.Report

let region_counts = [ 1; 2; 4 ]
let threads = 16
let io = 16 * 1024
let blocks_per_thread = 16 (* io-sized slots each thread cycles over *)

(* A top-level directory name that Name_hash.home routes to region [r]
   (brute-forced; the hash is deterministic, so this terminates fast and
   the same name is found every run). *)
let dir_for ~regions r =
  let rec go i =
    let name = Printf.sprintf "d%d_%d" r i in
    if Name_hash.home name ~regions = r then name else go (i + 1)
  in
  go 0

let socket_of r = Cost_model.socket_of_region Cost_model.default r

(* One sharded namespace, one file per thread, preallocated outside
   virtual time.  Returns bytes/second of aggregate pwrite traffic. *)
let run_bw ~regions ~ops =
  let machine = Machine.create () in
  let sh =
    Shard.mkfs ~machine ~prefix:(Printf.sprintf "r%d/region" regions)
      ~regions ~euid:0 ~scaled:true
      (64 * 1024 * 1024)
  in
  let dirs =
    Array.init regions (fun r ->
        let d = "/" ^ dir_for ~regions r in
        Shard.mkdir sh d;
        d)
  in
  let chunk = Bytes.make (blocks_per_thread * io) 'x' in
  let files =
    Array.init threads (fun i ->
        let r = i mod regions in
        let p = Printf.sprintf "%s/f%02d" dirs.(r) i in
        let fd = Shard.openf sh (Types.creat Types.rdwr) p in
        ignore (Shard.pwrite sh fd ~pos:0 chunk);
        (r, fd))
  in
  let buf = Bytes.make io 'w' in
  let op ctx j =
    let tid = ctx.Machine.thr.Sthread.tid in
    let r, fd = files.(tid) in
    ctx.Machine.thr.Sthread.home_socket <- socket_of r;
    let pos = j mod blocks_per_thread * io in
    ignore (Shard.pwrite ~ctx sh fd ~pos buf)
  in
  let outcome = Engine.run_ops machine ~threads ~ops_per_thread:ops op in
  Engine.throughput machine outcome *. float_of_int io

(* Single-thread pwrite latency against a region-1 file, homed on the
   given socket.  Region 1 lives on socket 1, so socket 0 is remote. *)
let run_latency ~home_socket ~ops =
  let machine = Machine.create () in
  let label = if home_socket = socket_of 1 then "local" else "remote" in
  let sh =
    Shard.mkfs ~machine ~prefix:(Printf.sprintf "lat-%s/region" label)
      ~regions:2 ~euid:0 (32 * 1024 * 1024)
  in
  let d = "/" ^ dir_for ~regions:2 1 in
  Shard.mkdir sh d;
  let p = d ^ "/f" in
  let fd = Shard.openf sh (Types.creat Types.rdwr) p in
  ignore (Shard.pwrite sh fd ~pos:0 (Bytes.make (blocks_per_thread * io) 'x'));
  let buf = Bytes.make io 'w' in
  let op ctx j =
    ctx.Machine.thr.Sthread.home_socket <- home_socket;
    let pos = j mod blocks_per_thread * io in
    ignore (Shard.pwrite ~ctx sh fd ~pos buf)
  in
  let outcome = Engine.run_ops machine ~threads:1 ~ops_per_thread:ops op in
  1.0 /. Engine.throughput machine outcome (* seconds per op *)

let gbps bytes_per_sec = bytes_per_sec /. 1.0e9

let run ~scale =
  let ops = Util.scaled ~scale 400 in
  Report.note
    "aggregate virtual-time pwrite bandwidth with one file per thread \
     spread round-robin over N regions (each behind its own \
     bandwidth-server pair, threads homed on their file's socket); \
     latency: single-thread us/op against a region on the local vs the \
     remote socket";

  (* --- aggregate bandwidth scaling ----------------------------------- *)
  let title =
    Printf.sprintf
      "numa: aggregate pwrite bandwidth vs region count (%d threads, %d \
       KiB ops, %d ops/thread)"
      threads (io / 1024) ops
  in
  Util.header title;
  let bw = List.map (fun regions -> (regions, run_bw ~regions ~ops)) region_counts in
  let base = match bw with (_, b) :: _ -> b | [] -> 1.0 in
  Report.table ~title ~columns:[ "GBps"; "scaling" ];
  Printf.printf "%-10s %9s %9s\n" "regions" "GB/s" "scaling";
  List.iter
    (fun (regions, b) ->
      let s = b /. base in
      Printf.printf "%-10d %9.2f %9.2f\n" regions (gbps b) s;
      Report.row (Printf.sprintf "%d-region" regions) [ gbps b; s ])
    bw;

  (* --- cross-socket surcharge ---------------------------------------- *)
  let lat_local = run_latency ~home_socket:(socket_of 1) ~ops in
  let lat_remote = run_latency ~home_socket:(1 - socket_of 1) ~ops in
  let ratio = lat_remote /. lat_local in
  let title = "numa: single-thread 16 KiB pwrite, local vs remote socket" in
  Util.header title;
  Report.table ~title ~columns:[ "us/op" ];
  let us s = s *. 1.0e6 in
  Printf.printf "%-10s %9.2f us/op\n" "local" (us lat_local);
  Printf.printf "%-10s %9.2f us/op\n" "remote" (us lat_remote);
  Printf.printf "%-10s %9.2fx\n" "ratio" ratio;
  Report.row "local" [ us lat_local ];
  Report.row "remote" [ us lat_remote ];
  Report.row "ratio" [ ratio ]

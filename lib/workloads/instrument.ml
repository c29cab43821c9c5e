(** Instrumented wrapper around a file system.

    Every [Fs_intf.S] call made with a virtual-time context is measured:
    its duration lands in (1) the wrapper's [acc] record (the legacy
    two-bucket breakdown input), (2) the machine's observability run —
    the "fs" phase span plus a per-(fs, op) latency histogram keyed
    ["<fs name>/<op>"], so every wrapped file system gets a
    per-operation latency profile for free.  Payload bytes moved by
    read/write/append feed the "copy" phase.  Recording is pure
    bookkeeping: it charges no virtual time, so instrumented and raw
    runs produce bit-identical virtual-time results. *)

open Simurgh_fs_common
module Obs = Simurgh_obs

type acc = {
  mutable fs_cycles : float;  (** virtual time inside FS calls *)
  mutable copy_bytes : int;  (** payload bytes moved by read/write *)
  mutable calls : int;
}

let fresh_acc () = { fs_cycles = 0.0; copy_bytes = 0; calls = 0 }

(** Virtual cycles attributable to moving [bytes] between the device and
    the application — the part even a perfect FS would pay.  The CPU-side
    copy plus roughly half the device transfer (the other half overlaps
    with FS work the breakdown attributes to the file system). *)
let copy_cycles cm bytes =
  let b = float_of_int bytes in
  (b /. cm.Simurgh_sim.Cost_model.memcpy_bytes_per_cycle)
  +. (b /. cm.Simurgh_sim.Cost_model.nvmm_read_bw_thread /. 2.0)

(** The paper's application / data-copy / file-system fractions, derived
    from an observability run's spans (Table 1, Fig. 10): copy cycles
    are charged from the moved bytes, FS time is the in-FS span minus
    the copy share, application time is the remainder of
    [total_cycles]. *)
let breakdown cm (run : Obs.Run.t) ~total_cycles =
  let spans = run.Obs.Run.spans in
  let copy = copy_cycles cm spans.Obs.Span.copy_bytes in
  let fs = Float.max 0.0 (Obs.Span.fs_cycles spans -. copy) in
  let app = Float.max 0.0 (total_cycles -. fs -. copy) in
  let tot = Float.max 1.0 (app +. copy +. fs) in
  (app /. tot, copy /. tot, fs /. tot)

module Make (F : Fs_intf.S) : sig
  include Fs_intf.S with type t = F.t * acc and type fd = F.fd
end = struct
  type t = F.t * acc
  type fd = F.fd

  let name = F.name

  (* Histogram keys are static per wrapped module: build them once. *)
  let key op = F.name ^ "/" ^ op
  let k_create_file = key "create_file"
  let k_mkdir = key "mkdir"
  let k_unlink = key "unlink"
  let k_rmdir = key "rmdir"
  let k_rename = key "rename"
  let k_stat = key "stat"
  let k_openf = key "openf"
  let k_close = key "close"
  let k_pread = key "pread"
  let k_pwrite = key "pwrite"
  let k_append = key "append"
  let k_fallocate = key "fallocate"
  let k_fsync = key "fsync"
  let k_readdir = key "readdir"
  let k_symlink = key "symlink"
  let k_readlink = key "readlink"
  let k_hardlink = key "hardlink"
  let k_truncate = key "truncate"
  let k_exists = key "exists"
  let k_chmod = key "chmod"
  let k_utimes = key "utimes"

  let timed ?ctx (acc : acc) op_key f =
    match ctx with
    | None -> f ()
    | Some c ->
        let t0 = Simurgh_sim.Machine.now c in
        let r = f () in
        let dt = Simurgh_sim.Machine.now c -. t0 in
        acc.fs_cycles <- acc.fs_cycles +. dt;
        acc.calls <- acc.calls + 1;
        let run = Simurgh_sim.Machine.ctx_obs c in
        Obs.Span.add_fs run.Obs.Run.spans dt;
        Obs.Histogram.record (Obs.Run.hist run op_key) dt;
        r

  let copied ?ctx (acc : acc) bytes =
    acc.copy_bytes <- acc.copy_bytes + bytes;
    match ctx with
    | None -> ()
    | Some c ->
        let run = Simurgh_sim.Machine.ctx_obs c in
        Obs.Span.add_copy_bytes run.Obs.Run.spans bytes

  let create_file ?ctx (fs, a) ?perm p =
    timed ?ctx a k_create_file (fun () -> F.create_file ?ctx fs ?perm p)

  let mkdir ?ctx (fs, a) ?perm p =
    timed ?ctx a k_mkdir (fun () -> F.mkdir ?ctx fs ?perm p)

  let unlink ?ctx (fs, a) p =
    timed ?ctx a k_unlink (fun () -> F.unlink ?ctx fs p)

  let rmdir ?ctx (fs, a) p = timed ?ctx a k_rmdir (fun () -> F.rmdir ?ctx fs p)

  let rename ?ctx (fs, a) p q =
    timed ?ctx a k_rename (fun () -> F.rename ?ctx fs p q)

  let stat ?ctx (fs, a) p = timed ?ctx a k_stat (fun () -> F.stat ?ctx fs p)

  let openf ?ctx (fs, a) flags p =
    timed ?ctx a k_openf (fun () -> F.openf ?ctx fs flags p)

  let close ?ctx (fs, a) fd =
    timed ?ctx a k_close (fun () -> F.close ?ctx fs fd)

  let pread ?ctx (fs, a) fd ~pos ~len =
    let r = timed ?ctx a k_pread (fun () -> F.pread ?ctx fs fd ~pos ~len) in
    copied ?ctx a (Bytes.length r);
    r

  let pwrite ?ctx (fs, a) fd ~pos src =
    let n = timed ?ctx a k_pwrite (fun () -> F.pwrite ?ctx fs fd ~pos src) in
    copied ?ctx a n;
    n

  let append ?ctx (fs, a) fd src =
    let n = timed ?ctx a k_append (fun () -> F.append ?ctx fs fd src) in
    copied ?ctx a n;
    n

  let fallocate ?ctx (fs, a) fd ~len =
    timed ?ctx a k_fallocate (fun () -> F.fallocate ?ctx fs fd ~len)

  let fsync ?ctx (fs, a) fd =
    timed ?ctx a k_fsync (fun () -> F.fsync ?ctx fs fd)

  let readdir ?ctx (fs, a) p =
    timed ?ctx a k_readdir (fun () -> F.readdir ?ctx fs p)

  let symlink ?ctx (fs, a) ~target p =
    timed ?ctx a k_symlink (fun () -> F.symlink ?ctx fs ~target p)

  let readlink ?ctx (fs, a) p =
    timed ?ctx a k_readlink (fun () -> F.readlink ?ctx fs p)

  let hardlink ?ctx (fs, a) ~existing p =
    timed ?ctx a k_hardlink (fun () -> F.hardlink ?ctx fs ~existing p)

  let truncate ?ctx (fs, a) p n =
    timed ?ctx a k_truncate (fun () -> F.truncate ?ctx fs p n)

  let exists ?ctx (fs, a) p =
    timed ?ctx a k_exists (fun () -> F.exists ?ctx fs p)

  let chmod ?ctx (fs, a) p m =
    timed ?ctx a k_chmod (fun () -> F.chmod ?ctx fs p m)

  let utimes ?ctx (fs, a) p m =
    timed ?ctx a k_utimes (fun () -> F.utimes ?ctx fs p m)
end

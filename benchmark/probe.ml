(** The file-system view the workloads are written against: the
    [Fs_intf.S] operations plus [span], the hook the workloads put
    around their own calls into other layers ([Db]).

    [Raw] is the file system itself, with [span] a no-op: the untraced
    run measures exactly the library.  [Traced] records one span per
    call made with a virtual-time context (set-up calls have none). *)

open Simurgh_fs_common
module Machine = Simurgh_sim.Machine

module type FS = sig
  include Fs_intf.S

  val span : string -> Machine.ctx -> (unit -> 'a) -> 'a
end

module Raw (F : Fs_intf.S) : FS with type t = F.t and type fd = F.fd = struct
  include F

  let span _ _ f = f ()
end

(* Span names are "fs.<op>"; the per-op latency metrics use the same
   suffixes. *)
module Traced (F : Fs_intf.S) : FS with type t = F.t and type fd = F.fd = struct
  type t = F.t
  type fd = F.fd

  let name = F.name
  let span name c f = Trace.with_span name ~now:(fun () -> Machine.now c) f
  let w ?ctx op f = match ctx with None -> f () | Some c -> span op c f
  let create_file ?ctx t ?perm p = w ?ctx "fs.create" (fun () -> F.create_file ?ctx t ?perm p)
  let mkdir ?ctx t ?perm p = w ?ctx "fs.mkdir" (fun () -> F.mkdir ?ctx t ?perm p)
  let unlink ?ctx t p = w ?ctx "fs.unlink" (fun () -> F.unlink ?ctx t p)
  let rmdir ?ctx t p = w ?ctx "fs.rmdir" (fun () -> F.rmdir ?ctx t p)
  let rename ?ctx t p q = w ?ctx "fs.rename" (fun () -> F.rename ?ctx t p q)
  let stat ?ctx t p = w ?ctx "fs.stat" (fun () -> F.stat ?ctx t p)
  let openf ?ctx t fl p = w ?ctx "fs.open" (fun () -> F.openf ?ctx t fl p)
  let close ?ctx t fd = w ?ctx "fs.close" (fun () -> F.close ?ctx t fd)
  let pread ?ctx t fd ~pos ~len = w ?ctx "fs.pread" (fun () -> F.pread ?ctx t fd ~pos ~len)

  (* bytes written count only inside the timed phase, like the spans *)
  let wb ?ctx op f =
    let n = w ?ctx op f in
    if Option.is_some ctx then Trace.add_bytes op n;
    n

  let pwrite ?ctx t fd ~pos b = wb ?ctx "fs.pwrite" (fun () -> F.pwrite ?ctx t fd ~pos b)
  let append ?ctx t fd b = wb ?ctx "fs.append" (fun () -> F.append ?ctx t fd b)
  let fallocate ?ctx t fd ~len = w ?ctx "fs.fallocate" (fun () -> F.fallocate ?ctx t fd ~len)
  let fsync ?ctx t fd = w ?ctx "fs.fsync" (fun () -> F.fsync ?ctx t fd)
  let readdir ?ctx t p = w ?ctx "fs.readdir" (fun () -> F.readdir ?ctx t p)
  let symlink ?ctx t ~target p = w ?ctx "fs.symlink" (fun () -> F.symlink ?ctx t ~target p)
  let readlink ?ctx t p = w ?ctx "fs.readlink" (fun () -> F.readlink ?ctx t p)
  let hardlink ?ctx t ~existing p = w ?ctx "fs.hardlink" (fun () -> F.hardlink ?ctx t ~existing p)
  let truncate ?ctx t p n = w ?ctx "fs.truncate" (fun () -> F.truncate ?ctx t p n)
  let exists ?ctx t p = w ?ctx "fs.exists" (fun () -> F.exists ?ctx t p)
  let chmod ?ctx t p m = w ?ctx "fs.chmod" (fun () -> F.chmod ?ctx t p m)
  let utimes ?ctx t p m = w ?ctx "fs.utimes" (fun () -> F.utimes ?ctx t p m)
end

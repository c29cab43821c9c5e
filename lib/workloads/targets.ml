(** The five evaluated file systems (plus Simurgh's relaxed-write
    variant) behind one runner type, so every experiment can iterate over
    them uniformly.  Each run gets a fresh file system and a fresh
    machine. *)

open Simurgh_sim

module Simurgh_impl = struct
  include Simurgh_core.Fs
end

module Fx_simurgh = Fxmark.Make (Simurgh_impl)

type target = {
  name : string;
  run_fx :
    ?region_mb:int -> threads:int -> ops:int -> Fxmark.bench -> Fxmark.result;
}

let default_region_mb = 512

(** A fresh Simurgh, formatted with the given protocol options. *)
let fresh_simurgh ?scaled ?log_ring ?(relaxed_writes = false)
    ?(region_mb = default_region_mb) () =
  let region = Simurgh_nvmm.Region.create (region_mb * 1024 * 1024) in
  Simurgh_core.Fs.mkfs ~euid:0 ?scaled ?log_ring ~relaxed_writes region

(* Fxmark over the file system [F]: each run formats a fresh one with
   [fresh], then creates its machine (the order the collector sees). *)
let target (type t) name
    (module F : Simurgh_fs_common.Fs_intf.S with type t = t)
    (fresh : ?region_mb:int -> unit -> t) =
  let module Fx = Fxmark.Make (F) in
  {
    name;
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        let fs = fresh ?region_mb () in
        let machine = Machine.create () in
        Fx.run machine fs bench ~threads ~ops);
  }

let simurgh ?(relaxed_writes = false) () =
  target
    (if relaxed_writes then "Simurgh-relaxed" else "Simurgh")
    (module Simurgh_impl)
    (fun ?region_mb () -> fresh_simurgh ~relaxed_writes ?region_mb ())

(** Simurgh formatted [scaled]: per-thread allocator caches, the DRAM
    resolve cache and posted rename-log writes.  The image differs from
    {!fresh_simurgh}'s default only in the format word's protocol bits
    (the rest is volatile behavior), so seed-vs-scaled sweeps isolate
    the concurrency work. *)
let simurgh_scaled () =
  target "Simurgh-scaled" (module Simurgh_impl) (fun ?region_mb () ->
      fresh_simurgh ~scaled:true ?region_mb ())

(** The scaled configuration plus the rename-log ring format: each
    directory's first hash block carries a ring of log slots, so
    concurrent renames stop serializing on the single per-directory log
    lock.  The only target whose directory layout differs from the
    seed. *)
let simurgh_ring () =
  target "Simurgh-logring" (module Simurgh_impl) (fun ?region_mb () ->
      fresh_simurgh ~scaled:true ~log_ring:16 ?region_mb ())

let nova () =
  target "NOVA" (module Simurgh_baselines.Nova) (fun ?region_mb:_ () ->
      Simurgh_baselines.Nova.create ())

let pmfs () =
  target "PMFS" (module Simurgh_baselines.Pmfs) (fun ?region_mb:_ () ->
      Simurgh_baselines.Pmfs.create ())

let ext4dax () =
  target "EXT4-DAX" (module Simurgh_baselines.Ext4dax) (fun ?region_mb:_ () ->
      Simurgh_baselines.Ext4dax.create ())

let splitfs () =
  target "SplitFS" (module Simurgh_baselines.Splitfs) (fun ?region_mb:_ () ->
      Simurgh_baselines.Splitfs.create ())

(** The paper's comparison set, in its plotting order. *)
let all () = [ simurgh (); nova (); splitfs (); pmfs (); ext4dax () ]

(** The five evaluated file systems (plus Simurgh's relaxed-write
    variant) behind one runner type, so every experiment can iterate over
    them uniformly.  Each run gets a fresh file system and a fresh
    machine. *)

open Simurgh_sim

module Simurgh_impl = struct
  include Simurgh_core.Fs
end

module Fx_simurgh = Fxmark.Make (Simurgh_impl)
module Fx_nova = Fxmark.Make (Simurgh_baselines.Nova)
module Fx_pmfs = Fxmark.Make (Simurgh_baselines.Pmfs)
module Fx_ext4 = Fxmark.Make (Simurgh_baselines.Ext4dax)
module Fx_splitfs = Fxmark.Make (Simurgh_baselines.Splitfs)

type target = {
  name : string;
  run_fx :
    ?region_mb:int -> threads:int -> ops:int -> Fxmark.bench -> Fxmark.result;
}

let default_region_mb = 512

let fresh_simurgh ?(relaxed_writes = false) ?(region_mb = default_region_mb)
    () =
  let region = Simurgh_nvmm.Region.create (region_mb * 1024 * 1024) in
  Simurgh_core.Fs.mkfs ~euid:0 ~relaxed_writes region

let simurgh ?(relaxed_writes = false) () =
  let name = if relaxed_writes then "Simurgh-relaxed" else "Simurgh" in
  {
    name;
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        let fs = fresh_simurgh ~relaxed_writes ?region_mb () in
        let machine = Machine.create () in
        Fx_simurgh.run machine fs bench ~threads ~ops);
  }

(** Simurgh formatted [scaled]: per-thread allocator caches, the DRAM
    resolve cache and posted rename-log writes.  The image differs from
    {!fresh_simurgh}'s only in the format word's protocol bits (the
    rest is volatile behavior), so seed-vs-scaled sweeps isolate the
    concurrency work. *)
let fresh_simurgh_scaled ?(region_mb = default_region_mb) () =
  let region = Simurgh_nvmm.Region.create (region_mb * 1024 * 1024) in
  Simurgh_core.Fs.mkfs ~euid:0 ~scaled:true region

let simurgh_scaled () =
  {
    name = "Simurgh-scaled";
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        let fs = fresh_simurgh_scaled ?region_mb () in
        let machine = Machine.create () in
        Fx_simurgh.run machine fs bench ~threads ~ops);
  }

(** The scaled configuration plus the rename-log ring format: each
    directory's first hash block carries a ring of log slots, so
    concurrent renames stop serializing on the single per-directory log
    lock.  The only target whose directory layout differs from the
    seed. *)
let fresh_simurgh_ring ?(region_mb = default_region_mb) () =
  let region = Simurgh_nvmm.Region.create (region_mb * 1024 * 1024) in
  Simurgh_core.Fs.mkfs ~euid:0 ~scaled:true ~log_ring:16 region

let simurgh_ring () =
  {
    name = "Simurgh-logring";
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        let fs = fresh_simurgh_ring ?region_mb () in
        let machine = Machine.create () in
        Fx_simurgh.run machine fs bench ~threads ~ops);
  }

let nova () =
  {
    name = "NOVA";
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        ignore region_mb;
        let fs = Simurgh_baselines.Nova.create () in
        let machine = Machine.create () in
        Fx_nova.run machine fs bench ~threads ~ops);
  }

let pmfs () =
  {
    name = "PMFS";
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        ignore region_mb;
        let fs = Simurgh_baselines.Pmfs.create () in
        let machine = Machine.create () in
        Fx_pmfs.run machine fs bench ~threads ~ops);
  }

let ext4dax () =
  {
    name = "EXT4-DAX";
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        ignore region_mb;
        let fs = Simurgh_baselines.Ext4dax.create () in
        let machine = Machine.create () in
        Fx_ext4.run machine fs bench ~threads ~ops);
  }

let splitfs () =
  {
    name = "SplitFS";
    run_fx =
      (fun ?region_mb ~threads ~ops bench ->
        ignore region_mb;
        let fs = Simurgh_baselines.Splitfs.create () in
        let machine = Machine.create () in
        Fx_splitfs.run machine fs bench ~threads ~ops);
  }

(** The paper's comparison set, in its plotting order. *)
let all () = [ simurgh (); nova (); splitfs (); pmfs (); ext4dax () ]

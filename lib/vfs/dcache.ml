(** Dentry cache model.

    Kernel path resolution walks the dcache one component at a time.  A
    hit costs a hash lookup; crucially, each traversal takes a reference
    on the dentry, an atomic RMW on a per-dentry cache line.  When many
    threads resolve paths sharing a prefix, those cache lines bounce
    between cores — the scalability collapse of Fig. 7f.  Private paths
    touch private dentries and stay fast (Fig. 7e). *)

open Simurgh_sim

type 'node dentry = {
  node : 'node;
  refcount : Resource.t;  (** the d_lockref cache line *)
  mutable last_toucher : int;
}

type 'node t = {
  table : (int * string, 'node dentry) Hashtbl.t;
      (** (parent identity, component) -> dentry *)
  lock : Vlock.Spin.t;  (** insertion/eviction lock *)
  mutable hits : int;
  mutable misses : int;
}

let create () =
  {
    table = Hashtbl.create 4096;
    lock = Vlock.Spin.create ~site:"dcache" ();
    hits = 0;
    misses = 0;
  }

let clear t =
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.misses <- 0

(* Taking a reference bounces the dentry's lockref line when the previous
   toucher was another thread. *)
let take_ref (ctx : Machine.ctx) d =
  let thr = ctx.Machine.thr in
  let cm = Machine.cm ctx in
  let dur =
    if d.last_toucher = thr.Sthread.tid then
      cm.Cost_model.atomic_uncontended
    else 16.0 *. cm.Cost_model.atomic_contended (* lockref retry storms *)
  in
  let done_at = Resource.serve d.refcount ~now:thr.Sthread.now ~dur in
  Sthread.wait_until thr done_at;
  d.last_toucher <- thr.Sthread.tid

(** Look up one component under [parent]; on hit, charges the hash probe
    and the lockref bounce. *)
let lookup ?ctx t ~parent name =
  match Hashtbl.find_opt t.table (parent, name) with
  | Some d ->
      t.hits <- t.hits + 1;
      (match ctx with
      | Some c ->
          Machine.cpu c (Machine.cm c).Cost_model.dcache_hit_cycles;
          take_ref c d
      | None -> ());
      Some d.node
  | None ->
      t.misses <- t.misses + 1;
      (match ctx with
      | Some c -> Machine.cpu c (Machine.cm c).Cost_model.dcache_miss_cycles
      | None -> ());
      None

let insert ?ctx t ~parent name node =
  let ins () =
    Hashtbl.replace t.table (parent, name)
      { node; refcount = Resource.create (); last_toucher = -1 }
  in
  match ctx with
  | Some c ->
      Vlock.Spin.acquire c t.lock;
      ins ();
      (* hash insert + LRU list manipulation under the global lock *)
      Machine.cpu c 400.0;
      Vlock.Spin.release c t.lock
  | None -> ins ()

let remove ?ctx t ~parent name =
  let rm () = Hashtbl.remove t.table (parent, name) in
  match ctx with
  | Some c ->
      Vlock.Spin.acquire c t.lock;
      rm ();
      (* dentry kill: unhash + LRU removal under the global lock *)
      Machine.cpu c 400.0;
      Vlock.Spin.release c t.lock
  | None -> rm ()

let stats t = (t.hits, t.misses)

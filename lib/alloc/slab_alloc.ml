(** Metadata object allocator (paper Section 4.2, "Data structure
    allocator").

    A slab-like pool of fixed-size objects (inodes, file entries,
    directory hash blocks) carved out of segments obtained from the block
    allocator.  Every object carries two atomic flag bits in its first
    byte:

    - [valid]: set by the allocator when the object is handed out, unset
      first on deallocation;
    - [dirty]: set while the object is "unprocessed" — allocated but not
      yet linked into the file system, or being torn down.

    States: 00 = free, 11 = allocated-unprocessed, 10 = live,
    01 = mid-deallocation (object being zeroed).  A crash leaves 11/01
    objects for recovery to reclaim; 10 objects are reachable iff the FS
    metadata graph references them (mark-and-sweep).  New segments are
    allocated on demand and their layout is recorded in a persistent
    segment list so recovery can enumerate every object. *)

open Simurgh_nvmm

let magic = 0x51ab
let header_fixed = 24
(* Slab segment header: [next u62][objects u32][pad u32], then objects. *)
let seg_header = 16

let flag_valid = 0x1
let flag_dirty = 0x2

type t = {
  region : Region.t;
  off : int;
  obj_size : int;  (** payload + 8-byte flag/pad prefix, 8-aligned *)
  objs_per_seg : int;
  blocks_per_seg : int;
  block_alloc : Block_alloc.t;
  free_cache : int Queue.t;  (** volatile free-object cache (shared DRAM) *)
  cache_lock : Simurgh_sim.Vlock.Spin.t;
  mutable tcaches : int Queue.t array;
      (** per-thread free-object caches (indexed by simulated tid);
          refilled/spilled in batches through [free_cache] under
          [cache_lock], so every cross-thread object transfer still
          synchronizes on the shared lock *)
  mutable tcache_enabled : bool;
  live : int ref;
      (** volatile live-object counter (diagnostics); a cell of its own
          so an observability source can read it without keeping the
          slab's region alive *)
  mutable allocs : int;
  mutable frees : int;
}

(* Object layout: byte 0 = flags, bytes 8.. = payload. *)
let obj_header = 8

let slot_size t = obj_header + t.obj_size

let header_size = header_fixed

let seg_list_head t = t.off + 8

let attach region ~off ~block_alloc =
  let m = Region.read_u32 region off in
  if m <> magic then invalid_arg "Slab_alloc.attach: bad magic";
  let obj_size = Region.read_u32 region (off + 4) in
  let objs_per_seg = Region.read_u32 region (off + 16) in
  let blocks_per_seg = Region.read_u32 region (off + 20) in
  let t =
    {
      region;
      off;
      obj_size;
      objs_per_seg;
      blocks_per_seg;
      block_alloc;
      free_cache = Queue.create ();
      cache_lock = Simurgh_sim.Vlock.Spin.create ~site:"slab-cache" ();
      tcaches = [||];
      tcache_enabled = false;
      live = ref 0;
      allocs = 0;
      frees = 0;
    }
  in
  t

let format region ~off ~obj_size ~block_alloc ~objs_per_seg =
  if obj_size <= 0 || obj_size mod 8 <> 0 then
    invalid_arg "Slab_alloc.format: obj_size must be positive and 8-aligned";
  let bs = Block_alloc.block_size block_alloc in
  let bytes_needed = seg_header + (objs_per_seg * (obj_header + obj_size)) in
  let blocks_per_seg = (bytes_needed + bs - 1) / bs in
  Region.write_u32 region off magic;
  Region.write_u32 region (off + 4) obj_size;
  Region.write_u62 region (off + 8) 0 (* segment list head *);
  Region.write_u32 region (off + 16) objs_per_seg;
  Region.write_u32 region (off + 20) blocks_per_seg;
  Region.persist region off header_fixed;
  attach region ~off ~block_alloc

let obj_addr t seg i = seg + seg_header + (i * slot_size t)
let flags t addr = Region.read_u8 t.region addr
let payload addr = addr + obj_header

(* Add a fresh segment from the block allocator; its layout is persisted
   in the slab's segment list (paper: "Simurgh saves the layout of the
   preallocated metadata spaces inside the superblock"). *)
let grow ?ctx t =
  match Block_alloc.alloc ?ctx t.block_alloc t.blocks_per_seg with
  | None -> false
  | Some seg ->
      Region.zero t.region seg (t.blocks_per_seg * Block_alloc.block_size t.block_alloc);
      let old_head = Region.read_u62 t.region (seg_list_head t) in
      Region.write_u62 t.region seg old_head;
      Region.write_u32 t.region (seg + 8) t.objs_per_seg;
      Region.persist t.region seg seg_header;
      Region.write_u62 t.region (seg_list_head t) seg;
      Region.persist t.region (seg_list_head t) 8;
      for i = t.objs_per_seg - 1 downto 0 do
        Queue.push (obj_addr t seg i) t.free_cache
      done;
      true

let charge ?ctx ~read ~write () =
  match ctx with
  | None -> ()
  | Some ctx ->
      Simurgh_sim.Machine.nvmm_read_lines ctx read;
      Simurgh_sim.Machine.nvmm_write_lines ctx write

(* --- per-thread caches (paper Section 4.2: segmented allocation keeps
   concurrent allocators off each other's structures) ------------------- *)

(** Enable/disable the per-thread free-object caches.  Off (the default)
    every allocation synchronizes on [cache_lock]; on, threads pop from a
    private DRAM queue and touch the shared cache only to refill or spill
    a batch.  The caches are purely volatile: a cached object's
    persistent flags still read free, so the free set recovery's
    segment sweep builds after a crash ({!segment_cache}) is exactly
    the same. *)
let set_thread_caches t on = t.tcache_enabled <- on

let tcache_batch = 32

let tcache t tid =
  let n = Array.length t.tcaches in
  if tid >= n then
    t.tcaches <-
      Array.init (max 8 (tid + 1)) (fun i ->
          if i < n then t.tcaches.(i) else Queue.create ());
  t.tcaches.(tid)

let ctx_tid (ctx : Simurgh_sim.Machine.ctx option) =
  match ctx with
  | Some c -> c.Simurgh_sim.Machine.thr.Simurgh_sim.Sthread.tid
  | None -> -1

(* --- flag transitions ------------------------------------------------

   Each transition has one staged form, the store plus its [clwb]: a
   caller that groups several transitions into one persist epoch closes
   the epoch with a single [Region.sfence] and charges all of its lines
   at once.  The fencing form is the staged form plus that [sfence] and
   the transition's write-line charge. *)

let stage_flags t addr f =
  Region.write_u8 t.region addr f;
  Region.clwb t.region addr 1

let persist_flags ?ctx t addr f =
  stage_flags t addr f;
  Region.sfence t.region;
  charge ?ctx ~read:0 ~write:1 ()

(* Claim [addr]: stage valid+dirty, skipping stale cache entries
   (e.g. after recovery rebuilt state).  [retry] resumes the caller's
   search when the entry was stale. *)
let claim ?ctx t addr ~retry =
  let f = flags t addr in
  if f land (flag_valid lor flag_dirty) <> 0 then retry ()
  else begin
    stage_flags t addr (flag_valid lor flag_dirty);
    charge ?ctx ~read:1 ~write:0 ();
    incr t.live;
    t.allocs <- t.allocs + 1;
    Some (payload addr)
  end

(** Claim one object, staged: returns the *payload* address with
    valid+dirty stored and clwb'd but not fenced, so the caller's epoch
    persists the claim together with the payload it initializes.  The
    caller then calls [commit] (or [stage_commit]) to clear the dirty
    bit.  Returns [None] when NVMM is exhausted. *)
let rec stage_alloc ?ctx t =
  let tid = ctx_tid ctx in
  if t.tcache_enabled && tid >= 0 then alloc_cached ?ctx t tid
  else alloc_shared ?ctx t

and alloc_shared ?ctx t =
  let candidate =
    Ctx_util.with_spin ?ctx t.cache_lock (fun () ->
        if Queue.is_empty t.free_cache then None
        else Some (Queue.pop t.free_cache))
  in
  match candidate with
  | None -> if grow ?ctx t then alloc_shared ?ctx t else None
  | Some addr -> claim ?ctx t addr ~retry:(fun () -> alloc_shared ?ctx t)

and alloc_cached ?ctx t tid =
  let q = tcache t tid in
  if Queue.is_empty q then
    Ctx_util.with_spin ?ctx t.cache_lock (fun () ->
        (* one (possibly contended) acquisition amortized over a batch *)
        let n = min tcache_batch (Queue.length t.free_cache) in
        for _ = 1 to n do
          Queue.push (Queue.pop t.free_cache) q
        done);
  if Queue.is_empty q then
    if grow ?ctx t then alloc_cached ?ctx t tid else None
  else
    (* thread-private pop: no shared-line atomic *)
    claim ?ctx t (Queue.pop q) ~retry:(fun () -> alloc_cached ?ctx t tid)

(** Allocate one object with its claim persisted: [stage_alloc] plus
    the fence. *)
let alloc ?ctx t =
  let p = stage_alloc ?ctx t in
  if Option.is_some p then begin
    Region.sfence t.region;
    charge ?ctx ~read:0 ~write:1 ()
  end;
  p

(** Clear the dirty bit: the object is initialized and linked. *)
let stage_commit t paddr = stage_flags t (paddr - obj_header) flag_valid
let commit ?ctx t paddr = persist_flags ?ctx t (paddr - obj_header) flag_valid

(** Mark an object unprocessed again (start of a teardown/transition). *)
let mark_dirty ?ctx t paddr =
  persist_flags ?ctx t (paddr - obj_header) (flag_valid lor flag_dirty)

(** First half of deallocation: unset valid, set dirty (state 01,
    Fig. 5b step 2) and persist.  The object is now recognizably
    mid-teardown for any observer, including recovery. *)
let begin_free ?ctx t paddr = persist_flags ?ctx t (paddr - obj_header) flag_dirty

(** Return a freed object to the volatile caches, once its zeroed flags
    are durable: a slot handed out before that fence could be claimed
    again while a crash would still show it allocated. *)
let recycle ?ctx t paddr =
  let addr = paddr - obj_header in
  decr t.live;
  t.frees <- t.frees + 1;
  let tid = ctx_tid ctx in
  if t.tcache_enabled && tid >= 0 then begin
    let q = tcache t tid in
    Queue.push addr q;
    (* spill half when a thread frees much more than it allocates, so
       objects keep circulating instead of stranding in one cache *)
    if Queue.length q > 2 * tcache_batch then
      Ctx_util.with_spin ?ctx t.cache_lock (fun () ->
          for _ = 1 to tcache_batch do
            Queue.push (Queue.pop q) t.free_cache
          done)
  end
  else
    Ctx_util.with_spin ?ctx t.cache_lock (fun () ->
        Queue.push addr t.free_cache)

let stage_zero t paddr =
  Region.zero t.region paddr t.obj_size;
  Region.clwb t.region paddr t.obj_size

(** Second half: zero the payload, then unset dirty (state 00). *)
let finish_free ?ctx t paddr =
  let addr = paddr - obj_header in
  stage_zero t paddr;
  Region.sfence t.region;
  stage_flags t addr 0;
  Region.sfence t.region;
  charge ?ctx ~read:0 ~write:(1 + (t.obj_size / 64)) ();
  recycle ?ctx t paddr

(** Deallocate in one go: [begin_free] then [finish_free]. *)
let free ?ctx t paddr =
  begin_free ?ctx t paddr;
  finish_free ?ctx t paddr

(** Write lines of a whole deallocation (flags, payload, flags). *)
let free_lines t = 2 + (t.obj_size / 64)

(** A whole deallocation staged in the caller's epoch: 01, the zeroed
    payload, 00, with no order among them.  Only where recovery treats
    every intermediate state alike: a rename's old entry, which a
    pending rename log frees on roll-forward in any state.  The caller
    fences and then calls [recycle]. *)
let stage_free t paddr =
  let addr = paddr - obj_header in
  stage_flags t addr flag_dirty;
  stage_zero t paddr;
  stage_flags t addr 0

let obj_flags t paddr = flags t (paddr - obj_header)
let is_live t paddr = obj_flags t paddr = flag_valid
let is_unprocessed t paddr = obj_flags t paddr = flag_valid lor flag_dirty
let live_objects t = !(t.live)

(** [seg]'s header and slot area as one bulk line-granular load, or
    [None] when it hits a poisoned line. *)
let read_segment t seg =
  let snap = Bytes.create (seg_header + (t.objs_per_seg * slot_size t)) in
  match Region.read_bytes_into t.region seg snap ~pos:0 ~len:(Bytes.length snap)
  with
  | () -> Some snap
  | exception Region.Media_error _ -> None

(** Read slot [paddr]'s bytes again into [snap], the {!read_segment}
    copy of its segment [seg], after a store to the slot: one load of
    the slot.  Raises [Media_error]. *)
let refresh_slot t snap seg paddr =
  let addr = paddr - obj_header in
  Region.read_bytes_into t.region addr snap ~pos:(addr - seg)
    ~len:(slot_size t)

(** Enumerate every object slot with its flags and its bytes:
    [f payload_addr flags slot].

    The walk snapshots each segment's slot area with one bulk
    line-granular load ({!read_segment}), or takes [snapshot], an
    earlier one, and scans the flag bytes in DRAM — one region round per
    segment instead of one per object, which is what recovery pays when
    it sweeps every slab after a crash.  [slot] is [Some (snap, off)]:
    the slot's bytes, header first, at [off] of the segment's snapshot
    [snap], so a visitor parses the object without reading it again.  A
    callback may mutate the object it is visiting (the snapshot is only
    consulted for later objects, which no callback touches); the
    snapshot of that slot is then stale.

    After a poisoned line anywhere in the segment (a [snapshot] of
    [None]) the walk degrades to one header load per slot, [slot] is
    [None] (the visitor reads the fields it needs itself), and a slot
    whose header is unreadable goes to [unreadable payload_addr] instead
    (it stays allocated — quarantined, never recycled).

    [iter_segment_objects] visits one segment — the unit of work for a
    parallel sweep worker; [iter_objects] walks the whole segment list,
    without the bytes. *)
let iter_segment_objects ?(unreadable = ignore) ?snapshot t seg f =
  let snapshot =
    match snapshot with Some s -> s | None -> read_segment t seg
  in
  match snapshot with
  | Some snap ->
      for i = 0 to t.objs_per_seg - 1 do
        let off = obj_addr t seg i - seg in
        f (payload (seg + off)) (Bytes.get_uint8 snap off) (Some (snap, off))
      done
  | None ->
      for i = 0 to t.objs_per_seg - 1 do
        let addr = obj_addr t seg i in
        match Region.read_u8 t.region addr with
        | fl -> f (payload addr) fl None
        | exception Region.Media_error _ -> unreadable (payload addr)
      done

let iter_objects t f =
  let rec seg_loop seg =
    if seg <> 0 then begin
      iter_segment_objects t seg (fun p fl _ -> f p fl);
      seg_loop (Region.read_u62 t.region seg)
    end
  in
  seg_loop (Region.read_u62 t.region (seg_list_head t))

(** Enumerate slab segment base addresses, in segment-list order. *)
let iter_segments t f =
  let rec go seg =
    if seg <> 0 then begin
      f seg;
      go (Region.read_u62 t.region seg)
    end
  in
  go (Region.read_u62 t.region (seg_list_head t))

(** A slab's segments: [segs] in segment-list order, and [addrs] the
    same addresses sorted, [index] giving each one's place in [segs]; to
    tell a slot's payload address from any other word ({!locate}). *)
type seg_map = { segs : int array; addrs : int array; index : int array }

let seg_map t =
  let l = ref [] in
  iter_segments t (fun seg -> l := seg :: !l);
  let segs = Array.of_list (List.rev !l) in
  let index = Array.init (Array.length segs) Fun.id in
  Array.sort (fun a b -> compare segs.(a) segs.(b)) index;
  { segs; addrs = Array.map (fun i -> segs.(i)) index; index }

(* [p] is the payload address of a slot of segment [seg] *)
let payload_in t seg p =
  let off = p - seg - seg_header - obj_header in
  let slot = slot_size t in
  off >= 0 && off < t.objs_per_seg * slot && off mod slot = 0

(** [locate t m p] is the segment-list index of the segment of [m] in
    which [p] is the payload address of a slot, or [-1] when [p] is no
    slot's payload address: the one definition of "a pointer to an
    object of this slab" for values read from a possibly corrupt image.
    [near], a likely index (the previous answer of a caller walking
    neighbouring slots), is tried before the search. *)
let locate ?(near = -1) t m p =
  let segs = m.segs and a = m.addrs in
  let n = Array.length a in
  if near >= 0 && near < n && payload_in t segs.(near) p then near
  else if n = 0 || p < a.(0) then -1
  else begin
    (* the last segment starting at or below [p] *)
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get a mid <= p then lo := mid else hi := mid
    done;
    if payload_in t a.(!lo) p then m.index.(!lo) else -1
  end

(** One segment's share of the volatile caches: its free slots in
    ascending address order and its live-object count. *)
type seg_cache = { free : int list; live : int }

(** [segment_cache t seg final] walks [seg] once
    ({!iter_segment_objects}) and classifies each slot by the flags
    [final paddr flags slot] says it holds once the caller is done with
    it: free slots are cached, live ones counted, and a slot overlapping
    an uncorrectable line is never cached.  [final] may rewrite the slot
    it visits; [unreadable] gets the slots whose header is unreadable,
    which are neither cached nor counted. *)
let segment_cache ?unreadable ?snapshot t seg final =
  let free = ref [] and live = ref 0 in
  iter_segment_objects ?unreadable ?snapshot t seg (fun paddr f slot ->
      let f = final paddr f slot in
      let addr = paddr - obj_header in
      if Region.range_poisoned t.region addr (slot_size t) then
        (if f = flag_valid then incr live)
      else if f = 0 then free := addr :: !free
      else if f = flag_valid then incr live);
  { free = List.rev !free; live = !live }

(** Replace the volatile caches and the live counter with [segs], one
    {!segment_cache} per segment in segment-list order. *)
let install_cache t segs =
  Queue.clear t.free_cache;
  Array.iter Queue.clear t.tcaches;
  t.live := 0;
  List.iter
    (fun s ->
      List.iter (fun addr -> Queue.push addr t.free_cache) s.free;
      t.live := !(t.live) + s.live)
    segs

(** Rebuild the volatile free cache and the live counter from persistent
    flags; [reclaim] additionally resets 11/01 (crash-interrupted)
    objects to free.  Used when a region is mounted. *)
let rebuild_cache ?(reclaim = false) t =
  let final paddr f _ =
    let addr = paddr - obj_header in
    if
      reclaim && f <> 0 && f <> flag_valid
      && not (Region.range_poisoned t.region addr (slot_size t))
    then begin
      Region.zero t.region paddr t.obj_size;
      Region.write_u8 t.region addr 0;
      Region.persist t.region addr 1;
      0
    end
    else f
  in
  let segs = ref [] in
  iter_segments t (fun seg -> segs := segment_cache t seg final :: !segs);
  install_cache t (List.rev !segs)

(** The shared free cache's slots, in pop order. *)
let free_slots t = List.of_seq (Queue.to_seq t.free_cache)

let obj_size t = t.obj_size
let blocks_per_segment t = t.blocks_per_seg
let objs_per_segment t = t.objs_per_seg

type stats = { live : int; allocs : int; frees : int }

(** Volatile counters (exported by the observability layer). *)
let stats (t : t) : stats = { live = !(t.live); allocs = t.allocs; frees = t.frees }

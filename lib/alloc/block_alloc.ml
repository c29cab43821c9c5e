(** Segmented block allocator (paper Section 4.2, "Block allocation").

    The managed space is divided into [segments] contiguous block ranges
    (the paper uses 2x the core count, following Hoard).  Each segment
    keeps a free list of ranges; a per-segment busy flag provides mutual
    exclusion and a [last_accessed] timestamp lets peers detect a holder
    that crashed while holding the lock.  Threads pick a segment with a
    modulo function of the allocation hint (the inode pointer), which
    both clusters a file's blocks and spreads files across segments; a
    busy segment is simply skipped in favour of the next one.

    Frees push the range onto the head of the segment's list in O(1)
    (the paper: "adds the block to the list of free blocks").  When a
    first-fit walk fails to find a fitting range quickly, the segment is
    coalesced (ranges sorted and merged) and the walk retried — lazy
    coalescing keeps the common path short while still recovering large
    contiguous ranges, and a format/alloc-all/free-all cycle restores
    the initial state.

    {b The free lists live in shared DRAM} (DESIGN.md §7), next to the
    slabs' free caches: an allocation or a free touches no NVMM but the
    segment's lock word.  Recovery rebuilds the lists from reachability
    after a crash ({!rebuild_free_lists}), so their media copy is only a
    checkpoint: written at format, by the rebuild and by the last clean
    unmount ({!checkpoint}), and read back by {!attach} [~load:true]
    when the region was unmounted cleanly.  On media each segment's list
    is threaded through the free blocks themselves, a 16-byte
    [next, count] node at the head of each range. *)

open Simurgh_nvmm

let magic = 0xb10ca1
let header_fixed = 32
let seg_header_size = 24
(* Free-range node of the media checkpoint, stored in the first 16
   bytes of the range itself. *)
let node_next = 0
let node_count = 8

(* Volatile operation counters (diagnostics; see Simurgh_obs), in a
   record of their own so an observability source can read them without
   keeping the allocator's region alive. *)
type counters = {
  mutable allocs : int;
  mutable frees : int;
  mutable blocks_allocated : int;
  mutable blocks_freed : int;
  mutable blocks_quarantined : int;
      (** blocks withheld from the free lists at [free] time because a
          poisoned line sat under them (never recycled; see statfs) *)
}

(* One segment's free list: range [k] starts at byte address
   [addr.(k)] and spans [count.(k)] blocks, for [k < len].  The list
   head is [len - 1], so a head insert is a push and a first-fit walk
   runs down from the top. *)
type seg = {
  mutable addr : int array;
  mutable count : int array;
  mutable len : int;
}

type t = {
  region : Region.t;
  off : int;  (** header location in the region *)
  block_size : int;
  segments : int;
  base : int;  (** first managed byte *)
  total_blocks : int;
  locks : Simurgh_sim.Vlock.Spin.t array;  (** virtual-time segment locks *)
  segs : seg array;  (** the free lists (shared DRAM) *)
  mutable loaded : bool;
      (** the lists hold the allocator's state: false after an attach
          without [~load] (a crash image) until {!rebuild_free_lists} *)
  mutable tseg : int array;
      (** per-thread segment affinity (indexed by simulated tid, -1 =
          unset): where the thread's last allocation succeeded.  Purely
          volatile, like the lists it points into *)
  mutable tseg_enabled : bool;
  c : counters;
}

let header_size ~segments = header_fixed + (segments * seg_header_size)
let seg_off t i = t.off + header_fixed + (i * seg_header_size)
let seg_flag t i = seg_off t i
let seg_last_accessed t i = seg_off t i + 8
let seg_head t i = seg_off t i + 16

(** Iterate the per-segment lock words — the persistent mirror of each
    segment lock (busy flag + last-accessed stamp, 16 bytes).  They are
    written under the segment's {!Simurgh_sim.Vlock} but deliberately
    read lock-free by the peer crash-detection scan
    ({!segment_is_stuck}), exactly as the paper's stuck-lock reclamation
    prescribes; a race detector must treat them as synchronization
    internals, not data. *)
let iter_lock_words t f =
  for i = 0 to t.segments - 1 do
    f ~off:(seg_off t i) ~len:16
  done

let blocks_per_segment t = (t.total_blocks + t.segments - 1) / t.segments

let seg_first_block t i = i * blocks_per_segment t
let seg_block_count t i =
  min (blocks_per_segment t) (t.total_blocks - seg_first_block t i)

let block_addr t b = t.base + (b * t.block_size)
let block_of_addr t addr = (addr - t.base) / t.block_size

(* --- the DRAM lists ---------------------------------------------------- *)

let clear_seg s = s.len <- 0

(* Head insert. *)
let push s ~addr ~count =
  if s.len = Array.length s.addr then begin
    let cap = max 8 (2 * s.len) in
    let grow a = Array.append a (Array.make (cap - s.len) 0) in
    s.addr <- grow s.addr;
    s.count <- grow s.count
  end;
  s.addr.(s.len) <- addr;
  s.count.(s.len) <- count;
  s.len <- s.len + 1

(* Unlink range [k], keeping the order of the others. *)
let remove s k =
  let above = s.len - 1 - k in
  Array.blit s.addr (k + 1) s.addr k above;
  Array.blit s.count (k + 1) s.count k above;
  s.len <- s.len - 1

(* Visit segment [i]'s ranges from the head. *)
let iter_seg t i f =
  let s = t.segs.(i) in
  for k = s.len - 1 downto 0 do
    f s.addr.(k) s.count.(k)
  done

(* --- the media checkpoint ---------------------------------------------- *)

let read_node t addr = Region.read_u62_pair t.region (addr + node_next)

let write_node t addr ~next ~count =
  Region.write_u62_pair t.region (addr + node_next) next count;
  Region.persist t.region addr 16

(* Write segment [i]'s list to media, head first: each node is written
   with no successor and then linked from its predecessor, and the head
   word and the segment header are persisted last. *)
let store_seg t i =
  let head = ref 0 and tail = ref 0 in
  iter_seg t i (fun addr count ->
      write_node t addr ~next:0 ~count;
      if !head = 0 then head := addr
      else begin
        Region.write_u62 t.region (!tail + node_next) addr;
        Region.persist t.region !tail 16
      end;
      tail := addr);
  Region.write_u62 t.region (seg_head t i) !head;
  Region.persist t.region (seg_off t i) seg_header_size

(* Read segment [i]'s media list into DRAM, in list order. *)
let load_seg t i =
  let rec collect node acc =
    if node = 0 then acc
    else
      let next, count = read_node t node in
      collect next ((node, count) :: acc)
  in
  let s = t.segs.(i) in
  clear_seg s;
  (* [collect] returns the tail first: pushing in that order leaves the
     head on top *)
  List.iter
    (fun (addr, count) -> push s ~addr ~count)
    (collect (Region.read_u62 t.region (seg_head t i)) [])

(** Load the media checkpoint into the DRAM lists.  Only a checkpoint
    that no later allocation outdates is the allocator's state: one
    written by format, by recovery's rebuild or by the last clean
    unmount. *)
let load t =
  for i = 0 to t.segments - 1 do
    load_seg t i
  done;
  t.loaded <- true

(** Write every DRAM list to its media checkpoint (the last clean
    unmount does this before it sets the clean flag). *)
let checkpoint t =
  for i = 0 to t.segments - 1 do
    store_seg t i
  done

(** Attach to a formatted allocator header.  [~load:true] reads the
    free lists from the media checkpoint; [~load:false] (a crash image)
    leaves them empty, and allocating or freeing raises until
    {!rebuild_free_lists} has run. *)
let attach ~load:load_lists region ~off =
  let m = Region.read_u32 region off in
  if m <> magic then invalid_arg "Block_alloc.attach: bad magic";
  let block_size = Region.read_u32 region (off + 4) in
  let segments = Region.read_u32 region (off + 8) in
  let base = Region.read_u62 region (off + 16) in
  let total_blocks = Region.read_u62 region (off + 24) in
  let t =
    {
      region;
      off;
      block_size;
      segments;
      base;
      total_blocks;
      locks =
        Array.init segments (fun _ ->
            Simurgh_sim.Vlock.Spin.create ~site:"balloc-seg" ());
      segs = Array.init segments (fun _ -> { addr = [||]; count = [||]; len = 0 });
      loaded = false;
      tseg = [||];
      tseg_enabled = false;
      c =
        {
          allocs = 0;
          frees = 0;
          blocks_allocated = 0;
          blocks_freed = 0;
          blocks_quarantined = 0;
        };
    }
  in
  if load_lists then load t;
  t

let format region ~off ~base ~blocks ~block_size ~segments =
  if block_size < 16 then
    invalid_arg "Block_alloc.format: block_size must be >= 16";
  if segments < 1 || blocks < segments then
    invalid_arg "Block_alloc.format: bad segment/block counts";
  Region.write_u32 region off magic;
  Region.write_u32 region (off + 4) block_size;
  Region.write_u32 region (off + 8) segments;
  Region.write_u62 region (off + 16) base;
  Region.write_u62 region (off + 24) blocks;
  let t = attach ~load:false region ~off in
  for i = 0 to segments - 1 do
    Region.write_u8 region (seg_flag t i) 0;
    Region.write_u62 region (seg_last_accessed t i) 0;
    let first = seg_first_block t i and count = seg_block_count t i in
    if count > 0 then begin
      let node = block_addr t first in
      Region.write_u62_pair region (node + node_next) 0 count;
      (* the header's fence below makes the node durable with it, before
         [Layout.format] persists the clean flag that loads this list *)
      Region.clwb region (node + node_next) 16;
      Region.write_u62 region (seg_head t i) node;
      push t.segs.(i) ~addr:node ~count
    end
    else Region.write_u62 region (seg_head t i) 0
  done;
  Region.persist region off (header_size ~segments);
  t.loaded <- true;
  t

(* --- virtual-time charging ------------------------------------------- *)

(** CPU cycles charged per free-list node visited (a DRAM hop). *)
let node_cycles = 20.0

let charge_nodes ?ctx n =
  match ctx with
  | None -> ()
  | Some ctx -> Simurgh_sim.Machine.cpu ctx (node_cycles *. float_of_int n)

(* --- segment locking with crash detection ----------------------------- *)

(** Virtual-time threshold after which a lock holder is presumed dead
    (paper: "the maximum duration that a process is allowed to hold a
    lock"). *)
let crash_threshold_cycles = 5.0e6

let lock_segment ?ctx t i =
  (match ctx with
  | Some ctx -> Simurgh_sim.Vlock.Spin.acquire ctx t.locks.(i)
  | None -> ());
  Region.write_u8 t.region (seg_flag t i) 1;
  let now =
    match ctx with
    | Some ctx -> int_of_float (Simurgh_sim.Machine.now ctx)
    | None -> 0
  in
  Region.write_u62 t.region (seg_last_accessed t i) now;
  Region.persist t.region (seg_flag t i) 16

let unlock_segment ?ctx t i =
  Region.write_u8 t.region (seg_flag t i) 0;
  Region.persist t.region (seg_flag t i) 1;
  match ctx with
  | Some ctx -> Simurgh_sim.Vlock.Spin.release ctx t.locks.(i)
  | None -> ()

(** A peer observing flag=1 with a stale timestamp reclaims the lock
    (process-crash recovery path). *)
let segment_is_stuck ?ctx t i =
  Region.read_u8 t.region (seg_flag t i) = 1
  &&
  match ctx with
  | None -> true
  | Some ctx ->
      let last =
        float_of_int (Region.read_u62 t.region (seg_last_accessed t i))
      in
      Simurgh_sim.Machine.now ctx -. last > crash_threshold_cycles

let recover_segment t i =
  Region.write_u8 t.region (seg_flag t i) 0;
  Region.persist t.region (seg_flag t i) 1

(* --- free-list manipulation (caller holds the segment lock) ----------- *)

(* Sort and merge every range of segment [i]; the merged list runs in
   ascending address order from the head. *)
let coalesce_segment ?ctx t i =
  let s = t.segs.(i) in
  let ranges = List.init s.len (fun k -> (s.addr.(k), s.count.(k))) in
  let merged =
    List.fold_left
      (fun acc (a, c) ->
        match acc with
        | (pa, pc) :: rest when pa + (pc * t.block_size) = a ->
            (pa, pc + c) :: rest
        | _ -> (a, c) :: acc)
      [] (List.sort compare ranges)
    (* accumulated in descending address order: pushing it leaves the
       lowest address on top *)
  in
  charge_nodes ?ctx s.len;
  clear_seg s;
  List.iter (fun (addr, count) -> push s ~addr ~count) merged

(* First-fit within a segment; splits the tail of the chosen range.
   A walk that exceeds [walk_budget] hops without a fit triggers a
   coalesce of the segment and one retry. *)
let walk_budget = 48

let alloc_in_segment ?ctx t i n =
  let s = t.segs.(i) in
  let rec attempt ~may_coalesce =
    let rec walk hops =
      let k = s.len - 1 - hops in
      if k < 0 then begin
        charge_nodes ?ctx (min hops walk_budget + 1);
        if may_coalesce && hops > 0 then begin
          coalesce_segment ?ctx t i;
          attempt ~may_coalesce:false
        end
        else None
      end
      else if hops > walk_budget && may_coalesce then begin
        charge_nodes ?ctx (walk_budget + 1);
        coalesce_segment ?ctx t i;
        attempt ~may_coalesce:false
      end
      else
        let count = s.count.(k) in
        if count >= n then begin
          let remaining = count - n in
          let grabbed = s.addr.(k) + (remaining * t.block_size) in
          if remaining = 0 then remove s k else s.count.(k) <- remaining;
          charge_nodes ?ctx (hops + 1);
          Some grabbed
        end
        else walk (hops + 1)
    in
    walk 0
  in
  attempt ~may_coalesce:true

(* O(1) head insert (deferred coalescing). *)
let free_in_segment ?ctx t i ~addr ~count =
  push t.segs.(i) ~addr ~count;
  charge_nodes ?ctx 1

let require_loaded t what =
  if not t.loaded then
    invalid_arg
      (Printf.sprintf
         "Block_alloc.%s: free lists not loaded (a crash image before \
          recovery's rebuild)"
         what)

(* --- public API -------------------------------------------------------- *)

let segment_busy ?ctx t i =
  match ctx with
  | None -> false
  | Some ctx ->
      Simurgh_sim.Vlock.Spin.busy t.locks.(i)
        ~now:(Simurgh_sim.Machine.now ctx)

(** Enable/disable per-thread segment affinity.  Off (the default) the
    starting segment is a hash of the allocation hint, so concurrent
    unrelated allocations herd onto the same segments; on, each thread
    starts at the segment its previous allocation succeeded in — its
    segment lock stays core-local (uncontended atomics) and the busy-skip
    sweeps disappear.  Threads spread across segments by tid initially,
    following the paper's core-count-proportional segmentation. *)
let set_thread_segments t on = t.tseg_enabled <- on
let thread_segments t = t.tseg_enabled

let ctx_tid (ctx : Simurgh_sim.Machine.ctx option) =
  match ctx with
  | Some c -> c.Simurgh_sim.Machine.thr.Simurgh_sim.Sthread.tid
  | None -> -1

let thread_segment t tid =
  let n = Array.length t.tseg in
  if tid >= n then
    t.tseg <-
      Array.init (max 8 (tid + 1)) (fun i -> if i < n then t.tseg.(i) else -1);
  if t.tseg.(tid) < 0 then t.tseg.(tid) <- tid mod t.segments;
  t.tseg.(tid)

(** Allocate [n] contiguous blocks; [hint] (e.g. the file's inode
    pointer) selects the starting segment.  Returns the byte address of
    the range, or [None] when no segment can satisfy the request. *)
let alloc ?ctx ?(hint = 0) t n =
  if n <= 0 then invalid_arg "Block_alloc.alloc: n must be positive";
  require_loaded t "alloc";
  let tid = ctx_tid ctx in
  let affine = t.tseg_enabled && tid >= 0 in
  let start =
    if affine then thread_segment t tid
    else
      (* multiplicative hash of the hint (inode pointer): slab-allocated
         inodes are spaced by the object size, so a plain modulo would
         alias to a few segments *)
      abs (hint * 0x9e3779b1) mod t.segments
  in
  (* paper: "If a process selects a busy segment, it simply moves to the
     next segment."  [skip_busy] relaxes on the second sweep so requests
     still succeed when every segment is busy. *)
  let rec try_seg k ~skip_busy =
    if k >= t.segments then
      if skip_busy then try_seg 0 ~skip_busy:false else None
    else
      let i = (start + k) mod t.segments in
      if skip_busy && segment_busy ?ctx t i then
        try_seg (k + 1) ~skip_busy
      else begin
        if segment_is_stuck ?ctx t i then recover_segment t i;
        lock_segment ?ctx t i;
        let r = alloc_in_segment ?ctx t i n in
        unlock_segment ?ctx t i;
        match r with
        | Some _ ->
            if affine then t.tseg.(tid) <- i;
            r
        | None -> try_seg (k + 1) ~skip_busy
      end
  in
  let r = try_seg 0 ~skip_busy:(t.segments > 1) in
  (match r with
  | Some _ ->
      t.c.allocs <- t.c.allocs + 1;
      t.c.blocks_allocated <- t.c.blocks_allocated + n
  | None -> ());
  r

(** Return [n] blocks starting at byte address [addr] to their segment.

    Blocks carrying a poisoned line are {e withheld}: once a line under
    a block takes an uncorrectable media error, the block must never be
    recycled (a later allocation would hand a known-bad device range to
    fresh data), so the freed range is split around quarantined blocks
    and only the clean runs rejoin the free lists.  Recovery's free-list
    rebuild applies the same exclusion; [quarantined_blocks] counts the
    withheld population so statfs can keep
    [free + used + quarantined = capacity]. *)
let free ?ctx t ~addr n =
  if n <= 0 then invalid_arg "Block_alloc.free: n must be positive";
  require_loaded t "free";
  let b = block_of_addr t addr in
  if b < 0 || b + n > t.total_blocks then
    invalid_arg "Block_alloc.free: range outside managed space";
  let free_run ~addr ~count =
    let i =
      min (block_of_addr t addr / blocks_per_segment t) (t.segments - 1)
    in
    if segment_is_stuck ?ctx t i then recover_segment t i;
    lock_segment ?ctx t i;
    free_in_segment ?ctx t i ~addr ~count;
    unlock_segment ?ctx t i
  in
  let freed =
    if Region.poisoned_lines t.region = 0 then begin
      (* fast path: no poison anywhere, one O(1) head insert as before *)
      free_run ~addr ~count:n;
      n
    end
    else begin
      let freed = ref 0 in
      let run_start = ref (-1) in
      let flush stop =
        if !run_start >= 0 then begin
          free_run ~addr:(block_addr t !run_start) ~count:(stop - !run_start);
          freed := !freed + (stop - !run_start);
          run_start := -1
        end
      in
      for blk = b to b + n - 1 do
        if Region.range_poisoned t.region (block_addr t blk) t.block_size
        then begin
          flush blk;
          t.c.blocks_quarantined <- t.c.blocks_quarantined + 1
        end
        else if !run_start < 0 then run_start := blk
      done;
      flush (b + n);
      !freed
    end
  in
  t.c.frees <- t.c.frees + 1;
  t.c.blocks_freed <- t.c.blocks_freed + freed

(** Visit every free range as [(byte address, block count)] across all
    segments, each list from its head.  Assumes no concurrent
    mutators. *)
let iter_free_ranges t f =
  for i = 0 to t.segments - 1 do
    iter_seg t i f
  done

(** Total free blocks (diagnostic). *)
let free_blocks t =
  let total = ref 0 in
  iter_free_ranges t (fun _ count -> total := !total + count);
  !total

(** Structural check: every free range lies within its segment and no
    two ranges overlap (lists are unordered between coalesces). *)
let check_invariants t =
  let ok = ref (Ok ()) in
  let fail fmt = Printf.ksprintf (fun s -> ok := Error s) fmt in
  for i = 0 to t.segments - 1 do
    let lo = block_addr t (seg_first_block t i) in
    let hi = lo + (seg_block_count t i * t.block_size) in
    let ranges = ref [] in
    iter_seg t i (fun addr count ->
        if addr < lo || addr + (count * t.block_size) > hi then
          fail "segment %d: range %#x+%d blocks escapes [%#x,%#x)" i addr
            count lo hi;
        ranges := (addr, count) :: !ranges);
    let rec overlap = function
      | (a, c) :: ((b, _) :: _ as rest) ->
          if a + (c * t.block_size) > b then
            fail "segment %d: overlapping free ranges at %#x" i b;
          overlap rest
      | _ -> ()
    in
    overlap (List.sort compare !ranges)
  done;
  !ok

let block_size t = t.block_size
let segments t = t.segments
let total_blocks t = t.total_blocks
let base t = t.base

(** Managed blocks with a poisoned line under them (never recyclable).
    Counted from the region's poison plane directly, so it is exact
    whether the poison arrived before or after the blocks were freed. *)
let quarantined_blocks t =
  if Region.poisoned_lines t.region = 0 then 0
  else begin
    let seen = Hashtbl.create 16 in
    let managed_end = t.base + (t.total_blocks * t.block_size) in
    Region.iter_poisoned_lines t.region (fun off ->
        if off >= t.base && off < managed_end then
          Hashtbl.replace seen ((off - t.base) / t.block_size) ());
    Hashtbl.length seen
  end

(** Rebuild every segment's free list from scratch given a predicate
    telling which blocks are in use (full-system mark-and-sweep recovery,
    paper Section 5.5), in address order from the head, and write it to
    the media checkpoint.  Also clears any stuck segment locks. *)
let rebuild_free_lists t ~in_use =
  for i = 0 to t.segments - 1 do
    Region.write_u8 t.region (seg_flag t i) 0;
    let s = t.segs.(i) in
    clear_seg s;
    let first = seg_first_block t i and count = seg_block_count t i in
    (* maximal free runs, collected in descending address order so the
       lowest ends up on top *)
    let runs = ref [] in
    let run_start = ref (-1) in
    let flush_run stop =
      if !run_start >= 0 then begin
        runs := (block_addr t !run_start, stop - !run_start) :: !runs;
        run_start := -1
      end
    in
    for b = first to first + count - 1 do
      if in_use b then flush_run b
      else if !run_start < 0 then run_start := b
    done;
    flush_run (first + count);
    List.iter (fun (addr, count) -> push s ~addr ~count) !runs;
    store_seg t i
  done;
  t.loaded <- true

type stats = {
  allocs : int;
  frees : int;
  blocks_allocated : int;
  blocks_freed : int;
  blocks_quarantined : int;
  total_blocks : int;
}

(** Volatile operation counters (exported by the observability layer). *)
let stats (t : t) : stats =
  {
    allocs = t.c.allocs;
    frees = t.c.frees;
    blocks_allocated = t.c.blocks_allocated;
    blocks_freed = t.c.blocks_freed;
    blocks_quarantined = t.c.blocks_quarantined;
    total_blocks = t.total_blocks;
  }

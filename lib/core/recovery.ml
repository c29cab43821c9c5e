(** Crash recovery (paper Sections 4.3 "Crash recovery" and 5.5).

    Full-system recovery is a mark-and-sweep pass:

    1. {b Mark}: every slab segment, inode and file-entry alike, is read
       once into a DRAM snapshot.  Then one traversal of the metadata
       graph from the root reads every directory's blocks once and
       parses each linked entry out of its segment's snapshot.  It
       records what mark needs — the entries to mark, the
       subdirectories to follow, the repairs to make, the chain blocks
       that survive — and the directory's pending rename logs.  It
       follows every {e allocated} entry, live or dirty, so that a log
       reachable only through an unresolved rename shadow is found too.
       A row slot whose value is no file-entry slot is detached like an
       unreadable entry.
    2. {b Resolve}: every pending log (an interrupted intra- or
       cross-directory rename) is rolled forward if the shadow entry
       became reachable, rolled back otherwise, in epoch order; the
       slots it stores into are read again into their snapshots, and
       the blocks of the directories a log touched are read again.
    3. {b Commit}: the directories reached through live entries are
       committed from the root, repairing as they go — slots that point
       to non-live file entries are completed deletions (Fig. 5b: "the
       next process accessing the same line identifies a null pointer
       and completes the remaining steps"), and entries linked in a row
       that does not match their name hash are interrupted renames whose
       remaining steps are executed.  Repairs wait for this step because
       a rename's dirty shadow looks like an interrupted delete until
       its log is resolved.
    4. {b Sweep}: reclaim every allocated-but-unreachable metadata object
       and block-mark what is reachable: directory chains (the blocks
       mark recorded), slab segments, spill blocks, and the extents and
       overflow blocks of every reachable inode, which its segment's
       sweep parses from the segment's snapshot.  Each segment's sweep
       also builds its share of the slab's volatile free cache.  The
       sweep reads no segment and no chain header again.
    5. {b Rebuild}: the block allocator's free lists from the marks
       (unreachable directory blocks and extents are implicitly
       reclaimed), then the relinks that grow a chain, and the caches
       are installed.

    The report times three passes: [mark] (steps 1-3), [segments] (4)
    and [rebuild] (5).  Every pass reads each metadata object once, as
    one copy parsed in DRAM: a slab segment (with its file entries and
    its inodes' extent slots), a directory block's header and rows, an
    overflow block (DESIGN.md §14).

    {b Parallel recovery} (DESIGN.md §14).  The snapshots, mark and
    sweep decompose into tasks over a {!Simurgh_sim.Workpool} frontier —
    one task per slab segment for the snapshots, one per directory for
    mark, one per slab segment / directory chain / spill slice for
    sweep — and the same task set runs under one of three
    drivers, chosen by [?par]:

    + {!Seq} (default): the reference sequential execution;
    + {!Vtime}: virtual-time list scheduling over per-worker
      {!Simurgh_sim.Sthread} clocks, each task's region traffic charged
      to its worker through the shared machine's bandwidth servers —
      this is what the recovery-time figure measures;
    + {!Fibers}: cooperative fibers over the schedule-exploring engine,
      interleaved at every store/lock/atomic — this is what the
      schedule explorer and the race detector drive.

    Parallel recovery is {e schedule-independent}: snapshot tasks each
    fill their own segment's copy; mark tasks write no media and append
    only to per-worker shards; sweep tasks make
    commutative, idempotent updates to shared state (bitmap ORs,
    counter increments) and only write media no other sweep task reads.
    Log resolution and every repair mark finds run in
    deterministically-sorted sequential steps between rounds.  A relink that must grow a chain
    waits longer, until the free-list rebuild: the block free lists are
    shared-DRAM state, and a crash image's media copy predates its last
    allocations, so recovery allocates no block before it has rebuilt
    them.  The sched-explorer asserts one media digest and one report
    across all explored interleavings.

    {b Fault containment}: a poisoned line hit during recovery gets a
    bounded re-read ([retry_budget]) and then escalates to quarantine —
    an unreadable directory head detaches the parent slot, an unreadable
    chain-block header truncates the chain, a partially-unreadable chain
    block is spliced out with its readable entries salvaged and
    relinked.  Recovery never lets [Media_error] escape mid-pass and
    never aborts half-swept.

    {b Re-entrancy}: recovery's own stores go through the region like
    any other writer, and [run]'s [crash_hook] labels its semantic store
    points ("recovery:resolve-log", "recovery:quarantine",
    "recovery:mark-repair", "recovery:sweep-free") so the
    crash explorer can crash {e into} recovery and re-run it; every pass
    is idempotent, so a second complete run over any such image is a
    media no-op (asserted by digest in {!Explore.run_reentrant}).

    The row-repair logic doubles as the runtime (process-crash) recovery
    path: {!repair_directory} fixes one directory without a global
    scan. *)

open Simurgh_nvmm
module Slab = Simurgh_alloc.Slab_alloc
module Balloc = Simurgh_alloc.Block_alloc
module Machine = Simurgh_sim.Machine
module Sthread = Simurgh_sim.Sthread
module Workpool = Simurgh_sim.Workpool

type report = {
  files : int;
  dirs : int;
  symlinks : int;
  completed_deletes : int;
  completed_renames : int;
  rolled_back_renames : int;
  reclaimed_inodes : int;
  reclaimed_fentries : int;
  cleared_busy_flags : int;
  used_blocks : int;
  free_blocks : int;
  quarantined : int;
      (** namespace entries / subtrees detached because their metadata
          sits on poisoned (uncorrectable) lines *)
  retries : int;  (** bounded media re-reads before quarantine *)
  resolve_passes : int;
      (** log passes until fixpoint: 1 with no log, 2 with logs *)
  mark_tasks : int;
      (** directories committed by mark (one marked again after a log
          counts once) *)
  sweep_tasks : int;  (** segment / chain / spill-slice sweep tasks *)
  vtime_cycles : float;
      (** {!Vtime} mode only: the recovery makespan (max worker clock);
          0 under {!Seq} and {!Fibers} *)
  pass_cycles : (string * float) list;
      (** {!Vtime} mode only: the makespan of each pass, in order —
          [mark] (the traversal, log resolution, the confirming pass and
          the commit rounds), [segments] (the sweep: slab segments with
          their inodes' extent scrub and marks, chain and spill block
          marks) and [rebuild] (free lists and caches); they sum to
          [vtime_cycles].  [\[\]] under {!Seq} and {!Fibers} *)
}

(** [r] without its virtual-time measurements: equal for every driver
    over the same image. *)
let untimed r = { r with vtime_cycles = 0.0; pass_cycles = [] }

let pp_report ppf r =
  Fmt.pf ppf
    "files=%d dirs=%d symlinks=%d completed_deletes=%d completed_renames=%d \
     rolled_back=%d reclaimed(inodes=%d fentries=%d) busy_cleared=%d \
     blocks(used=%d free=%d) quarantined=%d retries=%d passes=%d \
     tasks(mark=%d sweep=%d)"
    r.files r.dirs r.symlinks r.completed_deletes r.completed_renames
    r.rolled_back_renames r.reclaimed_inodes r.reclaimed_fentries
    r.cleared_busy_flags r.used_blocks r.free_blocks r.quarantined r.retries
    r.resolve_passes r.mark_tasks r.sweep_tasks

(** Execution driver for the recovery passes. *)
type par =
  | Seq
  | Vtime of { machine : Machine.t; workers : int }
  | Fibers of {
      schedule : Simurgh_sim.Schedule.t;
      workers : int;
      sink : Simurgh_sim.Engine.explore_outcome -> unit;
          (** receives each pool phase's outcome (trace hash, yields) *)
    }

(* Bounded retry on a media fault before escalating to quarantine.  A
   real DIMM can return corrected data on a later read (transient
   errors); the model's poison is persistent, so here the retries always
   fail — the [retries] counter proves the escalation path runs. *)
let retry_budget = 2

(* --- helpers ----------------------------------------------------------- *)

(* Bounded re-read of poisoned media; [None] after the budget is spent,
   at which point the caller quarantines.  [retried] counts a re-read. *)
let read_retrying ~retried f =
  let rec go k =
    match f () with
    | v -> Some v
    | exception Region.Media_error _ when k > 0 ->
        retried ();
        go (k - 1)
    | exception Region.Media_error _ -> None
  in
  go retry_budget

(* Does any slot in the chain starting at [head] point to [target]? *)
let find_pointer region ~head ~target =
  let found = ref None in
  (try
     Dirblock.iter_entries region head (fun b row s p ->
         if p = target then begin
           found := Some (b, row, s);
           raise Exit
         end)
   with Exit -> ());
  !found

(* Insert [p] into the row matching its name hash; used when completing
   an interrupted rename.  The caller guarantees [p] is a live or
   committable file entry.  The target row can be full even though a
   stale link was just removed — the stale link sat in a *different*
   row (that is why it was stale) — so a full row must grow the chain
   exactly like [Fs.insert_entry] (Fig. 5a steps 3-5), not drop the
   entry.  Returns the slot the entry is now linked in, or [None] when
   the row is full and [grow] is false: full recovery allocates no
   block before its free-list rebuild, so it grows chains after it. *)
let relink ~grow layout ~head p =
  let region = layout.Layout.region in
  let name = Fentry.name region p in
  let { Dirblock.found; blk; row; slot; last; _ } =
    Dirblock.probe region ~head ~name
  in
  if found <> 0 then Some (blk, row, slot) (* already correctly linked *)
  else if blk <> 0 then begin
    Dirblock.set_slot region blk row slot p;
    Some (blk, row, slot)
  end
  else if not grow then None
  else
    let new_rows = min Dirblock.max_rows (2 * Dirblock.rows region last) in
    let balloc = layout.Layout.balloc in
    let bs = Balloc.block_size balloc in
    let blocks = (Dirblock.size_for_rows new_rows + bs - 1) / bs in
    match Balloc.alloc balloc blocks with
    | None -> failwith "Recovery.relink: out of blocks extending directory"
    | Some nb ->
        Dirblock.init region nb ~rows:new_rows ();
        Dirblock.set_next region last nb;
        let row = Name_hash.hash name mod new_rows in
        Dirblock.set_slot region nb row 0 p;
        Some (nb, row, 0)

(* Relink [p] into [head], commit it if it is unprocessed and zero its
   [old] slot: relink first, so a crash in between leaves a transient
   duplicate (repaired on re-entry), never an unlinked live entry.
   [None] as for [relink]. *)
let move_entry ~grow layout ~head p ~old =
  match relink ~grow layout ~head p with
  | None -> None
  | Some slot' ->
      let fentry_slab = layout.Layout.fentry_slab in
      if Slab.is_unprocessed fentry_slab p then Slab.commit fentry_slab p;
      (match old with
      | Some (b, row, s) when (b, row, s) <> slot' ->
          Dirblock.set_slot layout.Layout.region b row s 0
      | _ -> ());
      Some slot'

(* --- pending rename logs ------------------------------------------------ *)

(* Resolve the pending log in [slot] of first-block [b].  Returns
   [`Forward] or [`Back], with the log's source and destination heads
   and its two entries, the only slab slots resolution stores into.
   A roll-forward whose shadow needs a chain to grow with [grow] false
   leaves the shadow's stale link for the mark pass to relink. *)
let resolve_log ~grow layout b ~slot =
  let region = layout.Layout.region in
  let src, dst, ofe, nfe = Dirblock.Log.read region b ~slot in
  let fentry_slab = layout.Layout.fentry_slab in
  let shadow_linked =
    match find_pointer region ~head:dst ~target:nfe with
    | Some _ -> true
    | None ->
        src <> dst
        && find_pointer region ~head:src ~target:nfe <> None
  in
  let nfe_flags = Slab.obj_flags fentry_slab nfe in
  let outcome =
    if shadow_linked && nfe_flags <> 0 then begin
      (* roll forward *)
      (* re-home any stale link of the shadow in a mismatched row:
         relink first, then drop the stale slot — a crash in between
         leaves a transient duplicate that the mark pass repairs,
         never a window where the entry is linked nowhere *)
      (match find_pointer region ~head:dst ~target:nfe with
      | Some (blk, row, s) ->
          let want =
            Name_hash.hash (Fentry.name region nfe)
            mod Dirblock.rows region blk
          in
          if row <> want then begin
            match relink ~grow layout ~head:dst nfe with
            | Some _ -> Dirblock.set_slot region blk row s 0
            | None -> ()
          end
      | None -> ());
      (* remove the old entry's remaining link in the source *)
      (match find_pointer region ~head:src ~target:ofe with
      | Some (blk, row, s) -> Dirblock.set_slot region blk row s 0
      | None -> ());
      if Slab.obj_flags fentry_slab ofe <> 0 then begin
        if not (Slab.is_live fentry_slab ofe) then
          Slab.mark_dirty fentry_slab ofe;
        Slab.free fentry_slab ofe
      end;
      if Slab.is_unprocessed fentry_slab nfe then Slab.commit fentry_slab nfe;
      `Forward
    end
    else begin
      (* roll back: the shadow never became visible *)
      (match find_pointer region ~head:src ~target:nfe with
      | Some (blk, row, s) -> Dirblock.set_slot region blk row s 0
      | None -> ());
      if nfe_flags <> 0 then begin
        if not (Slab.is_live fentry_slab nfe) then
          Slab.mark_dirty fentry_slab nfe;
        Slab.free fentry_slab nfe
      end;
      `Back
    end
  in
  Dirblock.Log.clear region b ~slot;
  (outcome, src, dst, ofe, nfe)

(* --- one read per object ------------------------------------------------- *)

(* Recovery reads each metadata object once, as one copy parsed in DRAM
   (DESIGN.md §14).  Each parser has a per-field twin that makes the
   reads the parser replaces: the reference the parsers are tested
   against, and the fallback when a copy hits a poisoned line, so that a
   fault's retries and quarantines are those of the per-field reads. *)

(** What the mark pass needs of a linked file entry. *)
type entry =
  | Dead of int
      (** not live: an interrupted delete, or a rename's shadow until its
          log is resolved; the directory head of an allocated (dirty)
          directory entry, else 0 *)
  | Live of {
      name : string;
      target : int;
      kind : [ `Dir of int | `Sym | `File ];
      spill : (int * int) option;  (** a long name's spill: (addr, bytes) *)
    }

(** The entry at [p], parsed from its slab slot at [off] of [snap],
    header first, as {!Slab.iter_segment_objects} hands it; a long name
    costs one read of its spill block.  Raises [Media_error] on the
    spill. *)
let parse_entry r (snap, off) p =
  let b = snap and e = off + Slab.obj_header in
  let f = Bytes.get_uint8 b (Fentry.f_flags e) in
  let slab_flags = Bytes.get_uint8 b off in
  if slab_flags <> Slab.flag_valid then
    Dead
      (if slab_flags <> 0 && f land Fentry.fl_dir <> 0 then
         Region.get_u62 b (Fentry.f_dirblock e)
       else 0)
  else
    let name, spill =
      if f land Fentry.fl_longname = 0 then
        let len = Bytes.get_uint8 b (Fentry.f_name_len e) in
        if len <= Fentry.inline_name_max then
          (Bytes.sub_string b (Fentry.f_name e) len, None)
        else
          ( Bytes.unsafe_to_string (Region.read_bytes r (Fentry.f_name p) len),
            None )
      else
        let s = Region.get_u62 b (Fentry.f_longname e) in
        let len = Region.read_u16 r s in
        ( Bytes.unsafe_to_string (Region.read_bytes r (s + 2) len),
          Some (s, 2 + len) )
    in
    let kind =
      if f land Fentry.fl_dir <> 0 then
        `Dir (Region.get_u62 b (Fentry.f_dirblock e))
      else if f land Fentry.fl_symlink <> 0 then `Sym
      else `File
    in
    Live { name; target = Region.get_u62 b (Fentry.f_target e); kind; spill }

(** {!parse_entry} from per-field reads. *)
let read_entry_fields r slab p =
  if not (Slab.is_live slab p) then
    Dead
      (if Slab.obj_flags slab p <> 0 && Fentry.is_dir r p then
         Fentry.dirblock r p
       else 0)
  else
    let name = Fentry.name r p in
    let target = Fentry.target r p in
    let kind =
      if Fentry.is_dir r p then `Dir (Fentry.dirblock r p)
      else if Fentry.is_symlink r p then `Sym
      else `File
    in
    Live { name; target; kind; spill = Fentry.spill r p }

(** Scrub [inode]'s torn extent slots, then report its extents
    ([extent addr blocks], file order) and its overflow blocks
    ([overflow b], chain order).  A crash inside a batched
    extent-staging window (range_locks data path) can leave a torn slot
    — address persisted, block count not, or the reverse.  Such a slot
    maps zero bytes, so it is harmless to readers, but it would shadow
    the slot forever (appends only fill addr = 0 slots): it is cleared,
    and the block rebuild reclaims whatever the lost stores leaked.
    The slots and the overflow pointer are parsed from [slot], the
    inode's slab slot at [off] of [snap], header first, as
    {!Slab.iter_segment_objects} hands it; each overflow block is read
    as one copy.  Raises [Media_error] before reporting anything. *)
let scan_inode r (snap, off) inode ~extent ~overflow =
  let exts = ref [] and ovs = ref [] in
  (* [n] slots of (addr u62, blocks u32, pad) at [first] in [b] *)
  let scrub b ~first ~n ~clear =
    for k = 0 to n - 1 do
      let o = first + (k * 16) in
      let addr = Region.get_u62 b o and blocks = Region.get_u32 b (o + 8) in
      if (addr <> 0) <> (blocks <> 0) then clear k
      else if addr <> 0 then exts := (addr, blocks) :: !exts
    done
  in
  let payload = off + Slab.obj_header in
  scrub snap ~first:(Inode.f_extent payload 0) ~n:Inode.inline_extents
    ~clear:(fun k -> Inode.write_extent r inode k ~addr:0 ~blocks:0);
  let ob = Bytes.create Inode.overflow_bytes in
  let rec chain blk =
    if blk <> 0 then begin
      Region.read_bytes_into r blk ob ~pos:0 ~len:Inode.overflow_bytes;
      scrub ob ~first:(Inode.ov_extent 0 0) ~n:Inode.overflow_entries
        ~clear:(fun k -> Inode.write_ov_extent r blk k ~addr:0 ~blocks:0);
      ovs := blk :: !ovs;
      chain (Region.get_u62 ob (Inode.ov_next 0))
    end
  in
  chain (Region.get_u62 snap (Inode.f_overflow payload));
  List.iter (fun (addr, blocks) -> extent addr blocks) (List.rev !exts);
  List.iter overflow (List.rev !ovs)

(** {!scan_inode} from per-field reads.  A field on a poisoned line is
    skipped, not the inode: an unreadable slot reports nothing (nor is
    it scrubbed), and an unreadable overflow pointer ends the chain, so
    every extent that still reads stays marked.  Returns [false] when a
    field was skipped. *)
let scan_inode_fields r inode ~extent ~overflow =
  let complete = ref true in
  let exts = ref [] and ovs = ref [] in
  let slot read write k =
    match read k with
    | exception Region.Media_error _ -> complete := false
    | addr, blocks ->
        if (addr <> 0) <> (blocks <> 0) then (
          try write k ~addr:0 ~blocks:0
          with Region.Media_error _ -> complete := false)
        else if addr <> 0 then exts := (addr, blocks) :: !exts
  in
  let next a =
    try Region.read_u62 r a
    with Region.Media_error _ ->
      complete := false;
      0
  in
  for k = 0 to Inode.inline_extents - 1 do
    slot (Inode.read_extent r inode) (Inode.write_extent r inode) k
  done;
  let rec chain b =
    if b <> 0 then begin
      for k = 0 to Inode.overflow_entries - 1 do
        slot (Inode.read_ov_extent r b) (Inode.write_ov_extent r b) k
      done;
      ovs := b :: !ovs;
      chain (next (Inode.ov_next b))
    end
  in
  chain (next (Inode.f_overflow inode));
  List.iter (fun (addr, blocks) -> extent addr blocks) (List.rev !exts);
  List.iter overflow (List.rev !ovs);
  !complete

(* a chain block's first words: next u62, rows u32, ring u32 *)
let header_words = 16

(** Chain block [b]'s [(rows, next, ring)] from one read of its first
    [header_words] bytes into [buf].  Raises [Media_error]. *)
let read_header r b buf =
  Region.read_bytes_into r b buf ~pos:0 ~len:header_words;
  ( Region.get_u32 buf (Dirblock.f_rows 0),
    Region.get_u62 buf (Dirblock.f_next 0),
    Region.get_u32 buf (Dirblock.f_ring 0) )

(** Block [b]'s [nrows] rows as one copy, row [i] at
    [i * Dirblock.row_bytes], and which rows are unreadable: after a
    fault the rows are read one by one, [row_read row dst ~pos] saying
    whether row [row] could be read. *)
let read_rows r b ~ring ~nrows ~row_read =
  let buf = Bytes.create (nrows * Dirblock.row_bytes) in
  match Dirblock.load_rows r b ~ring ~nrows buf with
  | () -> (buf, Array.make nrows false)
  | exception Region.Media_error _ ->
      ( buf,
        Array.init nrows (fun row ->
            not (row_read row buf ~pos:(row * Dirblock.row_bytes))) )

(* slot [s] of row [row] in a {!read_rows} copy *)
let row_slot rows row s =
  Region.get_u62 rows ((row * Dirblock.row_bytes) + (s * 8))

(* --- full-system recovery ------------------------------------------------ *)

(* The unit of work on the pool frontier. *)
type task =
  | Snapshot of [ `Inode | `Fentry ] * int
      (* read one slab segment, by its index in the segment list, into
         the snapshot mark and sweep parse its slots from *)
  | Mark of int
      (* read one directory (its head block's address) and record what
         mark and log discovery need of it in a [dir_mark] *)
  | Sweep_seg of [ `Inode | `Fentry ] * int
      (* one slab segment, by its index in the segment list; an inode
         segment's task also scrubs and block-marks its reachable
         inodes' extents *)
  | Sweep_chain of (int * int) list
      (* block-mark one directory chain: its blocks' (address, size) *)
  | Sweep_spills of int array * int * int
      (* spill-block mark of the long-named entries [lo,hi) *)

(* A deferred relink: a misplaced entry (interrupted same-directory
   rename, Fig. 5c steps 7-8) or an entry salvaged off a spliced
   poisoned chain block.  Relinking allocates slots, so it runs in the
   deterministically-sorted sequential step between mark rounds, never
   inside a parallel task; one that must grow the chain waits for the
   free-list rebuild. *)
type relink_job = {
  rl_head : int;
  rl_p : int;
  rl_tgt : int;  (* the entry's inode, un-marked if the relink fails *)
  rl_old : (int * int * int) option;  (* old slot; None if salvaged *)
  rl_child : int option;  (* dirhead to traverse once relinked *)
  rl_move : bool;  (* counts as a completed rename *)
}

(* A media write a Mark task found necessary.  Tasks only read: a dirty
   shadow looks like an interrupted delete until its rename log is
   resolved, so every write waits for the sequential step that commits
   the directory. *)
type repair =
  | Zero_slot of int * int * int  (* an interrupted delete's link *)
  | Quarantine_slot of int * int * int  (* an unreadable entry's link *)
  | Set_next of int * int  (* truncate or splice a chain: (block, next) *)
  | Clear_busy of int  (* a crashed lock holder's busy row *)

(* What one Mark task read of its directory, kept until the sequential
   step commits it (the directory is reached through live entries) or a
   resolved log touches it (it is marked again).  Counts are this
   directory's share of the report. *)
type dir_mark = {
  d_worker : int;
  d_lo : int;
      (* its (file entry, inode) marks are [d_lo, d_hi) of the worker's
         shard vector, in pairs *)
  mutable d_hi : int;
  mutable d_unreadable : bool;
      (* the head's header or a head row stayed unreadable: the whole
         directory is quarantined through its parent's slot *)
  mutable d_children : (int * (int * int * int * int * int)) list;
      (* live, correctly placed subdirectories: (head, (block, row,
         slot, file entry, inode) of the link), reversed *)
  mutable d_relinks : relink_job list;
  mutable d_repairs : repair list;  (* reversed *)
  mutable d_spills : (int * (int * int)) list;
      (* long-named entries: (entry, spill range) *)
  mutable d_blocks : (int * int) list;
      (* the chain blocks that survive its truncate and splice repairs:
         (address, size), reversed *)
  mutable d_files : int;
  mutable d_dirs : int;
  mutable d_symlinks : int;
  mutable d_deletes : int;
  mutable d_quarantined : int;
  mutable d_retries : int;
}

(* Per-worker shard: tasks append marks and found logs to their own
   worker's shard (cheap, unsynchronized); the sequential steps read
   them back by range or in worker-index order, so what they merge does
   not depend on task placement or schedule. *)
type shard = {
  s_marks : Reach.Vec.v;  (* (file entry, inode) pairs *)
  mutable s_logs : (int * int * int) list;
      (* pending rename logs found: (epoch, head, slot) *)
}

let sweep_slice = 512

(* [crash_hook] is called at every labeled semantic store point; the
   re-entrancy explorer raises from it to crash recovery mid-flight. *)
let run ?(par = Seq) ?(skip_log_resolution = false) ?(drop_mark_shard = false)
    ?(crash_hook = ignore) region =
  let hook = crash_hook in
  (* a crash wipes shared DRAM: discard any cached volatile state *)
  Fs.invalidate_shared region;
  let layout = Layout.attach region in
  let r = region in
  let inode_slab = layout.Layout.inode_slab in
  let fentry_slab = layout.Layout.fentry_slab in
  let balloc = layout.Layout.balloc in
  let log_ring = layout.Layout.log_ring in
  let head_bytes = Dirblock.header + (log_ring * Dirblock.ring_slot_bytes) in
  let nworkers =
    match par with
    | Seq -> 1
    | Vtime { workers; _ } | Fibers { workers; _ } -> max 1 workers
  in

  let completed_renames = ref 0 in
  let rolled_back = ref 0 in
  let completed_deletes = ref 0 in
  let cleared_busy = ref 0 in
  let quarantined = ref 0 in
  let retries = ref 0 in
  let resolve_passes = ref 0 in
  let mark_tasks = ref 0 in
  let sweep_tasks = ref 0 in
  let files = ref 0 and dirs = ref 0 and symlinks = ref 0 in

  let try_read f = read_retrying ~retried:(fun () -> incr retries) f in

  (* A subtree behind a poisoned metadata line cannot be traversed;
     detach it by zeroing the referencing slot (which lives in the
     parent's — healthy — block) so the rest of the namespace stays
     usable, and report it instead of aborting recovery. *)
  let quarantine_slot b row s =
    hook "recovery:quarantine";
    Dirblock.set_slot r b row s 0;
    incr quarantined
  in

  (* ---- drivers --------------------------------------------------------- *)
  let clocks =
    match par with
    | Vtime _ -> Some (Array.init nworkers (fun i -> Sthread.create i))
    | _ -> None
  in
  let ctxs =
    match (par, clocks) with
    | Vtime { machine; _ }, Some cl ->
        Some (Array.map (fun thr -> Machine.ctx machine thr) cl)
    | _ -> None
  in
  (* Virtual-time charging is a pure function of each task's region
     traffic: load *operations* are dependent line fetches (latency,
     mlp-overlapped), bytes beyond one line per op are streaming
     bandwidth (bulk snapshots), stores are served line writes (each
     waits behind the device's write queue), fences and per-op
     bookkeeping are CPU cycles.  Fiber mode charges nothing
     (its clock is never reported); Seq charges nothing. *)
  let charge ctx (s0 : Region.stats) =
    let s1 = Region.stats r in
    let loads = s1.Region.loads - s0.Region.loads in
    let stores = s1.Region.stores - s0.Region.stores in
    let lbytes = s1.Region.load_bytes - s0.Region.load_bytes in
    let sbytes = s1.Region.store_bytes - s0.Region.store_bytes in
    let fences = s1.Region.fences - s0.Region.fences in
    Machine.nvmm_meta_read_lines ctx loads;
    if lbytes > loads * 64 then Machine.nvmm_read ctx (lbytes - (loads * 64));
    let wlines = max stores ((sbytes + 63) / 64) in
    Machine.nvmm_write_lines ctx wlines;
    Machine.cpu ctx (float_of_int ((fences * 30) + ((loads + stores) * 12)))
  in
  let run_pool pool exec =
    match par with
    | Seq -> Workpool.run_seq pool exec
    | Vtime _ ->
        let cl = Option.get clocks and cs = Option.get ctxs in
        Workpool.run_vtime pool ~clocks:cl (fun ~worker task ->
            let s0 = Region.stats r in
            exec ~worker task;
            charge cs.(worker) s0);
        Workpool.barrier cl
    | Fibers { schedule; sink; _ } ->
        sink (Workpool.run_fibers pool ~schedule ~workers:nworkers exec)
  in
  (* sequential sections run on worker 0's clock, fenced by barriers *)
  let seq_section f =
    match (ctxs, clocks) with
    | Some cs, Some cl ->
        Workpool.barrier cl;
        let s0 = Region.stats r in
        let v = f () in
        charge cs.(0) s0;
        Workpool.barrier cl;
        v
    | _ -> f ()
  in
  let makespan () =
    match clocks with
    | Some cl ->
        Array.fold_left (fun acc c -> Stdlib.max acc c.Sthread.now) 0.0 cl
    | None -> 0.0
  in
  (* each pass ends on a barrier, so its makespan is the clock advance
     since the previous pass ended *)
  let pass_cycles = ref [] and pass_start = ref 0.0 in
  let end_pass name =
    if Option.is_some clocks then begin
      let now = makespan () in
      pass_cycles := (name, now -. !pass_start) :: !pass_cycles;
      pass_start := now
    end
  in

  (* ---- global reachability + shards ------------------------------------ *)
  let new_marks () = Reach.create ~size:(Region.size r) in
  let g_inode = new_marks () in
  let g_fentry = new_marks () in
  let g_dirhead = new_marks () in
  let g_spill = Hashtbl.create 16 in
  let shards =
    Array.init nworkers (fun _ ->
        { s_marks = Reach.Vec.create (); s_logs = [] })
  in

  (* ---- segment snapshots ----------------------------------------------- *)
  (* One pool ahead of mark reads every slab segment once, inode and
     file-entry segments alike, in segment-list order: mark parses each
     linked entry out of its segment's snapshot and the sweep works on
     the same snapshots, so no slot is read twice (DESIGN.md §14).  A
     segment whose read faults has no snapshot ([None]): its entries and
     inodes are read field by field, with the per-field reads' retries
     and quarantines.  The snapshots are dropped when [run] returns. *)
  let inode_map = Slab.seg_map inode_slab
  and fentry_map = Slab.seg_map fentry_slab in
  let inode_segs = inode_map.Slab.segs and fentry_segs = fentry_map.Slab.segs in
  let inode_snaps = Array.make (Array.length inode_segs) None in
  let fentry_snaps = Array.make (Array.length fentry_segs) None in
  let slab_of = function
    | `Inode -> (inode_slab, inode_segs, inode_snaps)
    | `Fentry -> (fentry_slab, fentry_segs, fentry_snaps)
  in
  let pool = Workpool.create () in
  Array.iteri (fun i _ -> Workpool.push pool (Snapshot (`Inode, i))) inode_segs;
  Array.iteri
    (fun i _ -> Workpool.push pool (Snapshot (`Fentry, i)))
    fentry_segs;
  run_pool pool (fun ~worker:_ task ->
      match task with
      | Snapshot (which, i) ->
          let slab, segs, snaps = slab_of which in
          snaps.(i) <- Slab.read_segment slab segs.(i)
      | _ -> assert false);
  (* The entry that row slot value [p] links, from its segment's
     snapshot; field by field under [fields] when the segment has no
     snapshot or the parse faults on a spill.  [None] when [fields]
     gives up, when [p] is no file-entry slot's payload address (a word
     of another structure in a reused or overwritten block) and when a
     live directory entry's head is no directory-block address
     ({!Layout.dir_block_addr}), which mark treats as an unreadable
     entry; a dead entry's such head reads as none.  [near] holds the segment of
     the caller's previous entry, the likely one of the next. *)
  let by_fields fields p =
    fields (fun () -> read_entry_fields r fentry_slab p)
  in
  let followable = function
    | Live { kind = `Dir h; _ } when not (Layout.dir_block_addr layout h) ->
        None
    | Dead h when h <> 0 && not (Layout.dir_block_addr layout h) ->
        Some (Dead 0)
    | e -> Some e
  in
  let entry_at ~near ~fields p =
    let i = Slab.locate ~near:!near fentry_slab fentry_map p in
    if i < 0 then None
    else begin
      near := i;
      Option.bind
        (match fentry_snaps.(i) with
        | None -> by_fields fields p
        | Some snap -> (
            match
              parse_entry r (snap, p - Slab.obj_header - fentry_segs.(i)) p
            with
            | e -> Some e
            | exception Region.Media_error _ -> by_fields fields p))
        followable
    end
  in
  (* Snapshot coherence: a file-entry slot that recovery stores into
     before the sweep (log resolution's frees and shadow commits, a
     relink's commit) is read again into its segment's snapshot, one
     load as a mark read of the entry was.  A refresh that faults drops
     the snapshot, and the segment takes the per-field path. *)
  let refresh p =
    let i = Slab.locate fentry_slab fentry_map p in
    if i >= 0 then
      Option.iter
        (fun snap ->
          try Slab.refresh_slot fentry_slab snap fentry_segs.(i) p
          with Region.Media_error _ -> fentry_snaps.(i) <- None)
        fentry_snaps.(i)
  in

  (* ---- pass 1: mark, with rename-log discovery ------------------------- *)
  (* One traversal from the root reads every directory once, as a [Mark]
     task that records what mark needs of it in a [dir_mark] and the
     pending rename logs of its head in its worker's shard.  It follows
     the directory of every *allocated* entry, live or dirty, so a log
     reachable only through an unresolved shadow is found as well.

     Logs must win over row repair: a crashed cross-directory rename
     leaves its shadow entry dirty in the destination, and until the log
     in the source is resolved the shadow looks like an interrupted
     delete.  So tasks write nothing; their repairs wait in the
     [dir_mark] for the sequential step that commits the directory.  The
     found logs are sorted and resolved sequentially in ascending epoch
     order: slots of conflicting renames were stamped in their row-lock
     serialization order, so replaying by epoch is the deterministic
     linearization.  Resolution only removes links, frees entries and
     commits or re-homes shadows already linked in a log's source or
     destination, so only those directories' records go stale: the
     confirming pass marks them again, and finds no new log unless
     resolution exposed one.  [log_seen] keys on (head, slot) and
     guarantees termination (DESIGN.md §14). *)
  let claimed = new_marks () in
  let marked : (int, dir_mark) Hashtbl.t = Hashtbl.create 64 in
  let do_mark pool d head =
    let sh = shards.(d.d_worker) in
    let try_read f =
      read_retrying ~retried:(fun () -> d.d_retries <- d.d_retries + 1) f
    in
    let discover child =
      if child <> 0 && not (Reach.mem claimed child) then begin
        Reach.add claimed child;
        Workpool.push pool (Mark child)
      end
    in
    let repair x = d.d_repairs <- x :: d.d_repairs in
    let near = ref (-1) in
    let hb = Bytes.create header_words in
    (* a read under the retry budget, or without [retry] just once *)
    let attempt ~retry f =
      if retry then try_read f
      else try Some (f ()) with Region.Media_error _ -> None
    in
    (* one chain block's header and a copy of its rows; a row that stays
       unreadable is flagged in [bad], and a link or header that cannot
       belong to a chain block reads as unreadable *)
    let read_block ~retry b =
      if not (Layout.dir_block_addr layout b) then None
      else
        match attempt ~retry (fun () -> read_header r b hb) with
        | Some (nrows, nxt, ring)
          when Layout.dir_block layout ~first:false b ~rows:nrows ~ring ->
            let rows, bad =
              read_rows r b ~ring ~nrows ~row_read:(fun row buf ~pos ->
                  Option.is_some
                    (attempt ~retry (fun () ->
                         Dirblock.load_row ~pos r b row buf)))
            in
            Some (nrows, nxt, rows, bad)
        | _ -> None
    in
    (* The head's header and its [log_ring] log slots in one copy:
       next, rows, ring, the busy flags and the pending slots as
       [(slot, epoch)]; after a fault, the reads it replaces, where an
       unreadable log slot makes the head unreadable as an unreadable
       header does.  [(nrows, next, ring, busy, logs)]. *)
    let read_head () =
      let h = Bytes.create head_bytes in
      match Region.read_bytes_into r head h ~pos:0 ~len:head_bytes with
      | () ->
          Some
            ( Region.get_u32 h (Dirblock.f_rows 0),
              Region.get_u62 h (Dirblock.f_next 0),
              Region.get_u32 h (Dirblock.f_ring 0),
              (fun row -> Bytes.get_uint8 h (Dirblock.f_busy 0 row) <> 0),
              List.filter_map
                (fun slot ->
                  let o = Dirblock.Log.base 0 slot in
                  if Bytes.get_uint8 h (Dirblock.Log.f_state o) = 0 then None
                  else Some (slot, Region.get_u62 h (Dirblock.Log.f_epoch o)))
                (List.init log_ring Fun.id) )
      | exception Region.Media_error _ -> (
          match try_read (fun () -> read_header r head hb) with
          | None -> None
          | Some (nrows, nxt, ring) ->
              Option.map
                (fun logs ->
                  ( nrows,
                    nxt,
                    ring,
                    (fun row ->
                      try Dirblock.busy r head row
                      with Region.Media_error _ -> false),
                    logs ))
                (try_read (fun () -> Dirblock.Log.pending_slots r head)))
    in
    let mark p tgt =
      Reach.Vec.push sh.s_marks p;
      Reach.Vec.push sh.s_marks tgt
    in
    (* Process one entry.  Everything is read (with retry) before
       anything is recorded, so a fault can never strand a
       half-processed entry: either the whole entry is acted on, or its
       slot is quarantined with no marks made.  [salvage] entries sit on
       a block being spliced out — their slot no longer exists, so
       repairs that would touch it are skipped and live entries are
       queued for relinking instead. *)
    let process_entry ~salvage ~nrows b row s p =
      match entry_at ~near ~fields:try_read p with
      | None ->
          (* unreadable entry metadata, or no entry at all: detach the
             slot *)
          if salvage then d.d_quarantined <- d.d_quarantined + 1
          else repair (Quarantine_slot (b, row, s))
      | Some (Dead child) ->
          (* interrupted delete: complete it (zero the pointer); a
             salvaged dead entry's slot vanished with its block.  A
             dirty directory entry may be a rename's shadow: its
             directory is read for logs. *)
          if not salvage then repair (Zero_slot (b, row, s));
          d.d_deletes <- d.d_deletes + 1;
          discover child
      | Some (Live { name; target = tgt; kind; spill }) ->
          let want = Name_hash.hash name mod nrows in
          Option.iter (fun sp -> d.d_spills <- (p, sp) :: d.d_spills) spill;
          let child = match kind with `Dir h -> Some h | _ -> None in
          mark p tgt;
          Option.iter discover child;
          if salvage || want <> row then
            (* misplaced (interrupted same-directory rename after the
               swap: finish steps 7-8 of Fig. 5c) or salvaged: mark now,
               relink in the sequential step, traverse the child dir in
               the next round *)
            d.d_relinks <-
              {
                rl_head = head;
                rl_p = p;
                rl_tgt = tgt;
                rl_old = (if salvage then None else Some (b, row, s));
                rl_child = child;
                rl_move = not salvage;
              }
              :: d.d_relinks
          else
            match kind with
            | `Dir h ->
                d.d_dirs <- d.d_dirs + 1;
                d.d_children <- (h, (b, row, s, p, tgt)) :: d.d_children
            | `Sym -> d.d_symlinks <- d.d_symlinks + 1
            | `File -> d.d_files <- d.d_files + 1
    in
    let process_block ~salvage b nrows rows bad =
      for row = 0 to nrows - 1 do
        if bad.(row) then (
          if salvage then d.d_quarantined <- d.d_quarantined + 1)
        else
          for s = 0 to Dirblock.slots_per_row - 1 do
            let p = row_slot rows row s in
            if p <> 0 then process_entry ~salvage ~nrows b row s p
          done
      done
    in
    (* A quarantined directory is detached, but the logs below it are
       still resolved: its readable rows and chain are read for
       subdirectories only, without retries (the sweep reclaims the
       rest). *)
    let rec discover_only seen nrows nxt rows bad =
      for row = 0 to nrows - 1 do
        if not bad.(row) then
          for s = 0 to Dirblock.slots_per_row - 1 do
            let p = row_slot rows row s in
            if p <> 0 then
              match
                entry_at ~near p ~fields:(fun f ->
                    try Some (f ()) with Region.Media_error _ -> None)
              with
              | Some (Live { kind = `Dir h; _ } | Dead h) -> discover h
              | Some (Live _) | None -> ()
          done
      done;
      if nxt <> 0 && not (Dirblock.mem_block nxt seen) then
        Option.iter
          (fun (nrows, nxt', rows, bad) ->
            discover_only (nxt :: seen) nrows nxt' rows bad)
          (read_block ~retry:false nxt)
    in
    (* The head block is validated in full before anything below it is
       marked: an unreadable header, log slot or row, or a header that
       cannot belong to a first block, quarantines the whole directory
       by detaching the parent slot, with no marks made (a
       partially-marked quarantined subtree would leak). *)
    match read_head () with
    | Some (nrows, nxt, ring, busy, logs)
      when Layout.dir_block layout ~first:true head ~rows:nrows ~ring ->
        List.iter
          (fun (slot, epoch) -> sh.s_logs <- (epoch, head, slot) :: sh.s_logs)
          logs;
        let rows, bad =
          read_rows r head ~ring ~nrows ~row_read:(fun row buf ~pos ->
              Option.is_some
                (try_read (fun () -> Dirblock.load_row ~pos r head row buf)))
        in
        if Array.exists Fun.id bad then begin
          d.d_unreadable <- true;
          discover_only [ head ] nrows nxt rows bad
        end
        else begin
          (* busy flags left behind by crashed lock holders *)
          for row = 0 to Dirblock.first_rows - 1 do
            if busy row then repair (Clear_busy row)
          done;
          process_block ~salvage:false head nrows rows bad;
          d.d_blocks <- [ (head, Dirblock.size_for_rows ~ring nrows) ];
          (* chain blocks degrade per-block, never per-directory: an
             unreadable header, or a link that is no chain block or
             leads back into the chain, truncates the chain there (the
             orphaned tail is swept); a block with unreadable rows is
             spliced out and its readable entries salvaged *)
          let rec walk seen prev b =
            if b <> 0 then
              match
                if Dirblock.mem_block b seen then None
                else read_block ~retry:true b
              with
              | None ->
                  d.d_quarantined <- d.d_quarantined + 1;
                  repair (Set_next (prev, 0))
              | Some (nrows, nxt, rows, bad) when Array.exists Fun.id bad ->
                  process_block ~salvage:true b nrows rows bad;
                  repair (Set_next (prev, nxt));
                  walk (b :: seen) prev nxt
              | Some (nrows, nxt, rows, bad) ->
                  process_block ~salvage:false b nrows rows bad;
                  d.d_blocks <- (b, Dirblock.size_for_rows nrows) :: d.d_blocks;
                  walk (b :: seen) b nxt
          in
          walk [ head ] head nxt
        end
    | _ -> d.d_unreadable <- true
  in
  (* one frontier drain from [heads], marked even if claimed before (a
     confirming pass replaces their records) *)
  let mark_dirs heads =
    let pool = Workpool.create () in
    List.iter
      (fun h ->
        Reach.add claimed h;
        Workpool.push pool (Mark h))
      heads;
    run_pool pool (fun ~worker task ->
        match task with
        | Mark head ->
            let v = shards.(worker).s_marks in
            let d =
              {
                d_worker = worker;
                d_lo = v.Reach.Vec.n;
                d_hi = v.Reach.Vec.n;
                d_unreadable = false;
                d_children = [];
                d_relinks = [];
                d_repairs = [];
                d_spills = [];
                d_blocks = [];
                d_files = 0;
                d_dirs = 0;
                d_symlinks = 0;
                d_deletes = 0;
                d_quarantined = 0;
                d_retries = 0;
              }
            in
            (* backstop: no fault may abort the frontier half-read *)
            (try do_mark pool d head
             with Region.Media_error _ ->
               d.d_quarantined <- d.d_quarantined + 1);
            d.d_hi <- v.Reach.Vec.n;
            Hashtbl.replace marked head d
        | _ -> assert false)
  in
  let log_seen = Hashtbl.create 64 in
  let rec mark_and_resolve heads =
    mark_dirs heads;
    let found =
      Array.fold_left
        (fun acc sh ->
          let l = sh.s_logs in
          sh.s_logs <- [];
          List.rev_append l acc)
        [] shards
    in
    (* [skip_log_resolution] deliberately breaks recovery (resolution is
       what disambiguates crashed renames); used by the negative tests
       proving the offline checker actually catches recovery bugs *)
    if not skip_log_resolution then begin
      incr resolve_passes;
      let fresh =
        List.filter
          (fun (_, head, slot) -> not (Hashtbl.mem log_seen (head, slot)))
          found
        |> List.sort_uniq compare
      in
      if fresh <> [] then
        let touched =
          seq_section (fun () ->
              List.concat_map
                (fun (_, head, slot) ->
                  Hashtbl.replace log_seen (head, slot) ();
                  hook "recovery:resolve-log";
                  match resolve_log ~grow:false layout head ~slot with
                  | outcome, src, dst, ofe, nfe ->
                      refresh ofe;
                      refresh nfe;
                      if outcome = `Forward then incr completed_renames
                      else incr rolled_back;
                      [ src; dst ]
                  | exception Region.Media_error _ -> (
                      (* a fault mid-resolution: its directories and
                         entries may still have changed.  A log that
                         cannot be read again could not be read before
                         (poison persists), so nothing was stored *)
                      try
                        let src, dst, ofe, nfe =
                          Dirblock.Log.read r head ~slot
                        in
                        refresh ofe;
                        refresh nfe;
                        [ src; dst ]
                      with Region.Media_error _ -> []))
                fresh)
        in
        mark_and_resolve
          (List.sort_uniq compare (List.filter (( <> ) 0) touched))
    end
  in

  (* ---- commit: mark rounds ----------------------------------------------- *)
  (* A directory's record is committed — its marks merged, its counts
     added, its repairs applied — when the closure over live, correctly
     placed links from the round's roots reaches it; a directory reached
     only through a non-live entry never is, and the sweep reclaims it.
     Each round is one sequential step: commit, then detach the parent
     slots of unreadable heads, then the relinks, sorted on (directory,
     entry, old slot) so slot placement and chain growth are
     schedule-independent.  Relinked subdirectories are the next round's
     roots.  Rounds terminate: every round consumes relink jobs found in
     the previous one, and an entry is relinked at most once. *)
  let committed = new_marks () in
  let relinks : relink_job list ref = ref [] in
  (* relinks that must grow a chain: they wait for the free-list
     rebuild, their entry still linked at its old slot (if any) *)
  let waiting : relink_job list ref = ref [] in
  (* parent slots of unreadable directory heads *)
  let pending_quarantines : (int * int * int * int * int) list ref = ref [] in
  let apply_repair head = function
    | Zero_slot (b, row, s) ->
        hook "recovery:mark-repair";
        Dirblock.set_slot r b row s 0
    | Quarantine_slot (b, row, s) -> quarantine_slot b row s
    | Set_next (b, nxt) -> Dirblock.set_next r b nxt
    | Clear_busy row ->
        Dirblock.set_busy r head row false;
        incr cleared_busy
  in
  (* [drop_mark_shard] discards the marks of every other committed
     record, in commit order (the root's is kept) — the deliberate merge
     bug behind make fsck's negative control: whatever the worker count
     and whichever worker made each record, some reachable objects lose
     their marks and the sweep frees storage the namespace still
     references. *)
  let commit head pslot d =
    incr mark_tasks;
    retries := !retries + d.d_retries;
    quarantined := !quarantined + d.d_quarantined;
    completed_deletes := !completed_deletes + d.d_deletes;
    files := !files + d.d_files;
    dirs := !dirs + d.d_dirs;
    symlinks := !symlinks + d.d_symlinks;
    if d.d_unreadable then
      match pslot with
      | Some q -> pending_quarantines := q :: !pending_quarantines
      | None -> incr quarantined (* the root itself: nothing to detach *)
    else begin
      if !mark_tasks mod 2 = 1 || not drop_mark_shard then begin
        Reach.add g_dirhead head;
        let v = shards.(d.d_worker).s_marks.Reach.Vec.a in
        for k = 0 to ((d.d_hi - d.d_lo) / 2) - 1 do
          Reach.add g_fentry v.(d.d_lo + (2 * k));
          Reach.add g_inode v.(d.d_lo + (2 * k) + 1)
        done;
        List.iter (fun (p, sp) -> Hashtbl.replace g_spill p sp) d.d_spills
      end;
      List.iter (apply_repair head) (List.rev d.d_repairs);
      relinks := List.rev_append d.d_relinks !relinks
    end
  in
  let rec mark_rounds roots =
    let next_roots =
      seq_section (fun () ->
          let q = Queue.create () in
          let visit (h, pslot) =
            if h <> 0 && not (Reach.mem committed h) then begin
              Reach.add committed h;
              Queue.push (h, pslot) q
            end
          in
          List.iter visit roots;
          while not (Queue.is_empty q) do
            let h, pslot = Queue.pop q in
            let d = Hashtbl.find marked h in
            commit h pslot d;
            if not d.d_unreadable then
              List.iter
                (fun (c, ps) -> visit (c, Some ps))
                (List.rev d.d_children)
          done;
          (* detach entries whose directory head proved unreadable, and
             drop their marks so the sweep reclaims them (nothing below
             an unreadable head was marked) *)
          List.iter
            (fun (b, row, s, p, tgt) ->
              Reach.remove g_fentry p;
              Reach.remove g_inode tgt;
              (* block 0: a waiting salvaged entry, linked nowhere yet *)
              if b <> 0 then quarantine_slot b row s else incr quarantined)
            (List.sort compare !pending_quarantines);
          pending_quarantines := [];
          let jobs =
            List.sort
              (fun a b ->
                compare (a.rl_head, a.rl_p, a.rl_old) (b.rl_head, b.rl_p, b.rl_old))
              !relinks
          in
          relinks := [];
          List.filter_map
            (fun j ->
              hook "recovery:mark-repair";
              match
                try_read (fun () ->
                    move_entry ~grow:false layout ~head:j.rl_head j.rl_p
                      ~old:j.rl_old)
              with
              | None ->
                  (* the relink itself hit poisoned media: detach *)
                  Reach.remove g_fentry j.rl_p;
                  Reach.remove g_inode j.rl_tgt;
                  (match j.rl_old with
                  | Some (b, row, s) -> quarantine_slot b row s
                  | None -> incr quarantined);
                  None
              | Some placed ->
                  if placed <> None then refresh j.rl_p;
                  if j.rl_move then incr completed_renames;
                  if placed = None then waiting := j :: !waiting;
                  (* a waiting entry's child is traversed from its old
                     slot (block 0 when it has none) *)
                  let b', row', s' =
                    match (placed, j.rl_old) with
                    | Some slot', _ | None, Some slot' -> slot'
                    | None, None -> (0, 0, 0)
                  in
                  Option.map
                    (fun h -> (h, Some (b', row', s', j.rl_p, j.rl_tgt)))
                    j.rl_child)
            jobs)
    in
    if next_roots <> [] then mark_rounds next_roots
  in

  let root = Layout.root_fentry layout in
  Reach.add g_fentry root;
  Reach.add g_inode (Fentry.target r root);
  let root_head = Fentry.dirblock r root in
  mark_and_resolve [ root_head ];
  mark_rounds [ (root_head, None) ];
  end_pass "mark";

  (* ---- pass 3: sweep ---------------------------------------------------- *)
  let bs = Balloc.block_size balloc in
  let nblocks = Balloc.total_blocks balloc in
  let bmap_bytes = (nblocks + 7) / 8 in
  (* per-worker block-usage bitmaps, OR-merged after the barrier: bit
     sets are idempotent and commutative, so the merged bitmap is
     schedule-independent *)
  let bitmaps = Array.init nworkers (fun _ -> Bytes.make bmap_bytes '\000') in
  let set_used bm b =
    let byte = b lsr 3 and bit = b land 7 in
    let v = Char.code (Bytes.get bm byte) in
    if v land (1 lsl bit) = 0 then
      Bytes.set bm byte (Char.chr (v lor (1 lsl bit)))
  in
  let mark_range bm addr bytes =
    let first = (addr - Balloc.base balloc) / bs in
    let last = (addr + bytes - 1 - Balloc.base balloc) / bs in
    for b = first to last do
      set_used bm b
    done
  in
  let reclaimed_inodes = ref 0 in
  let reclaimed_fentries = ref 0 in
  (* each segment task leaves its share of the slab's free cache here,
     at its segment-list index; the last sequential step installs them
     in that order *)
  let inode_caches = Array.make (Array.length inode_segs) None in
  let fentry_caches = Array.make (Array.length fentry_segs) None in
  (* a reachable inode's extents, from its slot in the segment snapshot
     or, after a fault, field by field; a skipped field quarantines the
     inode's unreadable part, the rest stays marked *)
  let scan_extents bm inode slot =
    let extent addr blocks = mark_range bm addr (blocks * bs) in
    let overflow b = mark_range bm b Inode.overflow_bytes in
    let fields () =
      if not (scan_inode_fields r inode ~extent ~overflow) then
        incr quarantined
    in
    match slot with
    | Some slot -> (
        try scan_inode r slot inode ~extent ~overflow
        with Region.Media_error _ -> fields ())
    | None -> fields ()
  in
  let sweep_segment which i bm =
    let slab, segs, snaps = slab_of which in
    let seg = segs.(i) in
    let reach, counter, caches =
      match which with
      | `Inode -> (g_inode, reclaimed_inodes, inode_caches)
      | `Fentry -> (g_fentry, reclaimed_fentries, fentry_caches)
    in
    mark_range bm seg (Slab.blocks_per_segment slab * bs);
    let slot_bytes = Slab.obj_header + Slab.obj_size slab in
    let to_free = ref [] in
    let scan p slot =
      if which = `Inode && Reach.mem reach p then scan_extents bm p slot
    in
    let cache =
      Slab.segment_cache slab seg ~snapshot:snaps.(i)
        ~unreadable:(fun p -> scan p None)
        (fun p flags slot ->
          scan p slot;
          if flags <> 0 && not (Reach.mem reach p) then
            if Region.range_poisoned r (p - Slab.obj_header) slot_bytes
            then begin
              (* the slot overlaps a poisoned line (possibly a
                 neighbor's — slots are not line-aligned): it can be
                 neither zeroed nor recycled, so it stays allocated,
                 quarantined in place, until the media is scrubbed *)
              incr quarantined;
              flags
            end
            else begin
              to_free := p :: !to_free;
              0
            end
          else if flags = Slab.flag_valid lor Slab.flag_dirty then begin
            (* reached but unprocessed: a create whose file entry's
               commit became durable before its inode's (one epoch,
               DESIGN.md §18); finish its step 6 *)
            Slab.commit slab p;
            Slab.flag_valid
          end
          else flags)
    in
    List.iter
      (fun p ->
        hook "recovery:sweep-free";
        if not (Slab.is_live slab p) then Slab.mark_dirty slab p;
        Slab.free slab p;
        incr counter)
      !to_free;
    caches.(i) <- Some cache
  in
  let do_sweep ~worker task =
    incr sweep_tasks;
    let bm = bitmaps.(worker) in
    match task with
    | Sweep_seg (which, i) -> sweep_segment which i bm
    | Sweep_chain blocks ->
        List.iter (fun (b, size) -> mark_range bm b size) blocks
    | Sweep_spills (arr, lo, hi) ->
        (* the ranges mark read with each long-named entry *)
        for k = lo to hi - 1 do
          let addr, len = Hashtbl.find g_spill arr.(k) in
          mark_range bm addr len
        done
    | Snapshot _ | Mark _ -> assert false
  in
  (* One pool.  A segment task scrubs and block-marks the extents of its
     reachable inodes from its segment's snapshot, frees its unreachable
     slots and builds its share of the free cache; chain and spill tasks
     block-mark from what mark recorded, and read nothing.  Writes stay disjoint from every
     other task's reads: a segment task writes only its own slots and its
     own inodes' overflow blocks, and chain and spill tasks write nothing,
     so no phase split or barrier is needed between them. *)
  let pool = Workpool.create () in
  let push_segs which =
    Array.iteri (fun i _ -> Workpool.push pool (Sweep_seg (which, i)))
  in
  push_segs `Inode inode_segs;
  push_segs `Fentry fentry_segs;
  Array.iter
    (fun head ->
      Workpool.push pool (Sweep_chain (Hashtbl.find marked head).d_blocks))
    (Reach.to_sorted_array g_dirhead);
  (* an entry mark recorded a spill for can have lost its mark since, to
     a quarantine or a failed relink: its spill is reclaimed *)
  let entries =
    Hashtbl.fold
      (fun p _ acc -> if Reach.mem g_fentry p then p :: acc else acc)
      g_spill []
    |> Array.of_list
  in
  Array.sort compare entries;
  let n = Array.length entries in
  for k = 0 to ((n + sweep_slice - 1) / sweep_slice) - 1 do
    let lo = k * sweep_slice in
    Workpool.push pool (Sweep_spills (entries, lo, min n (lo + sweep_slice)))
  done;
  run_pool pool (fun ~worker task ->
      try do_sweep ~worker task
      with Region.Media_error _ -> incr quarantined);
  end_pass "segments";

  (* merged bitmap, free-list rebuild, volatile caches *)
  let used_count = ref 0 in
  seq_section (fun () ->
      let merged = bitmaps.(0) in
      for w = 1 to nworkers - 1 do
        let bm = Bytes.unsafe_to_string bitmaps.(w) in
        for i = 0 to bmap_bytes - 1 do
          let v = Char.code (Bytes.get merged i) lor Char.code bm.[i] in
          Bytes.set merged i (Char.chr v)
        done
      done;
      let popcount = Array.init 256 (fun i ->
          let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
          go i 0)
      in
      Bytes.iter
        (fun c -> used_count := !used_count + popcount.(Char.code c))
        merged;
      let is_used b =
        Char.code (Bytes.get merged (b lsr 3)) land (1 lsl (b land 7)) <> 0
      in
      (* blocks under poisoned lines must never be handed out again:
         keep them out of the rebuilt free lists (quarantined until
         scrubbed) *)
      let in_use =
        if Region.poisoned_lines r = 0 then is_used
        else fun b ->
          is_used b
          || Region.range_poisoned r (Balloc.base balloc + (b * bs)) bs
      in
      Balloc.rebuild_free_lists balloc ~in_use;
      (* the relinks that wait for a chain to grow, in the order mark
         queued them; one whose subtree was quarantined meanwhile lost
         its marks and is dropped.  Their blocks come from the rebuilt
         lists, which are checkpointed again afterwards. *)
      let free0 = Balloc.free_blocks balloc in
      List.iter
        (fun j ->
          if Reach.mem g_fentry j.rl_p then begin
            hook "recovery:mark-repair";
            match
              try_read (fun () ->
                  move_entry ~grow:true layout ~head:j.rl_head j.rl_p
                    ~old:j.rl_old)
            with
            | Some _ -> ()
            | None -> incr quarantined (* left linked where it was *)
          end)
        (List.rev !waiting);
      let grown = free0 - Balloc.free_blocks balloc in
      if grown > 0 then begin
        used_count := !used_count + grown;
        Balloc.checkpoint balloc
      end;
      (* Volatile caches reflect the repaired truth: the segment tasks
         built them (a segment whose task faulted is read again here) *)
      let install slab segs caches =
        Slab.install_cache slab
          (Array.to_list
             (Array.mapi
                (fun i seg ->
                  match caches.(i) with
                  | Some c -> c
                  | None -> Slab.segment_cache slab seg (fun _ f _ -> f))
                segs))
      in
      install inode_slab inode_segs inode_caches;
      install fentry_slab fentry_segs fentry_caches;
      Layout.set_clean_shutdown layout true);
  end_pass "rebuild";

  let vtime_cycles = makespan () in
  let pass_cycles = List.rev !pass_cycles in
  (* this run's totals: under [Vtime], in the counters of the machine
     that drove it (which join the active experiment's snapshot when the
     machine was made under one); otherwise in the active experiment's
     snapshot (no-op outside the bench driver) *)
  let totals =
    List.map
      (fun (k, v) -> ("recovery/" ^ k, v))
      (List.map
         (fun (k, v) -> (k, float_of_int v))
         [
           ("runs", 1);
           ("retries", !retries);
           ("quarantined", !quarantined);
           ("swept_objects", !reclaimed_inodes + !reclaimed_fentries);
           ("mark_tasks", !mark_tasks);
           ("sweep_tasks", !sweep_tasks);
           ("resolve_passes", !resolve_passes);
         ]
      @ List.map (fun (pass, c) -> (pass ^ "_cycles", c)) pass_cycles)
  in
  (match par with
  | Vtime { machine; _ } ->
      let counters = (Machine.obs machine).Simurgh_obs.Run.counters in
      List.iter (fun (k, v) -> Simurgh_obs.Metrics.add counters k v) totals
  | Seq | Fibers _ -> Simurgh_obs.Collect.add totals);

  ( layout,
    {
      files = !files;
      dirs = !dirs;
      symlinks = !symlinks;
      completed_deletes = !completed_deletes;
      completed_renames = !completed_renames;
      rolled_back_renames = !rolled_back;
      reclaimed_inodes = !reclaimed_inodes;
      reclaimed_fentries = !reclaimed_fentries;
      cleared_busy_flags = !cleared_busy;
      used_blocks = !used_count;
      free_blocks = Balloc.free_blocks balloc;
      quarantined = !quarantined;
      retries = !retries;
      resolve_passes = !resolve_passes;
      mark_tasks = !mark_tasks;
      sweep_tasks = !sweep_tasks;
      vtime_cycles;
      pass_cycles;
    } )

(** Recover every region of a sharded (multi-region) namespace.  Each
    region is an independent crash-consistency domain -- a shard's
    allocators, slabs and rename logs never reference another region --
    so recovery is simply the single-region [run] applied per region,
    in region order.  Returns the layouts and reports in that order. *)
let run_all ?par ?skip_log_resolution ?drop_mark_shard regions =
  Array.map
    (fun region -> run ?par ?skip_log_resolution ?drop_mark_shard region)
    regions

(** Recover and mount in one step, on the protocol the region was
    formatted with. *)
let mount_after_crash ?call_mode ?euid ?egid region =
  let layout, report = run region in
  (Fs.bring_up ?call_mode ?euid ?egid layout, report)

(** Mount with the clean-shutdown fast path (paper §4.3: "if the file
    system was unmounted cleanly, no recovery is necessary").  A set
    clean flag means the last writer ran {!Fs.unmount}: attach directly
    and skip the mark-and-sweep entirely ([None]).  A clear flag means a
    crash (mounting clears it, only a clean unmount sets it back), so a
    full {!run} is performed ([Some report]). *)
let mount_auto ?call_mode ?euid ?egid region =
  if Layout.clean_shutdown_of_region region then
    (Fs.mount ?call_mode ?euid ?egid region, None)
  else
    let fs, report = mount_after_crash ?call_mode ?euid ?egid region in
    (fs, Some report)

(** Runtime (process-crash) recovery for a single directory: repair its
    rows and clear its busy flags without a global scan.  Returns the
    number of repairs performed. *)
let repair_directory fs dirpath =
  let region = Fs.region fs in
  let layout = Fs.layout fs in
  let _, fe = Fs.resolve fs dirpath in
  let head = Fentry.dirblock region fe in
  let repaired = ref 0 in
  (* every pending log slot of this directory, in epoch order (the ring
     can hold several after a multi-process crash) *)
  List.iter
    (fun (slot, _) ->
      let _ : _ * int * int * int * int =
        resolve_log ~grow:true layout head ~slot
      in
      incr repaired)
    (List.sort
       (fun (_, e1) (_, e2) -> compare e1 e2)
       (Dirblock.Log.pending_slots region head));
  let moves = ref [] in
  Dirblock.iter_entries region head (fun b row s p ->
      if not (Slab.is_live layout.Layout.fentry_slab p) then begin
        Dirblock.set_slot region b row s 0;
        incr repaired
      end
      else begin
        let want =
          Name_hash.hash (Fentry.name region p) mod Dirblock.rows region b
        in
        if want <> row then moves := (b, row, s, p) :: !moves
      end);
  List.iter
    (fun (b, row, s, p) ->
      ignore (move_entry ~grow:true layout ~head p ~old:(Some (b, row, s)));
      incr repaired)
    !moves;
  for row = 0 to Dirblock.first_rows - 1 do
    if Dirblock.busy region head row then Dirblock.set_busy region head row false
  done;
  !repaired

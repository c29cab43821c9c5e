(** Crash recovery (paper Sections 4.3 "Crash recovery" and 5.5).

    Full-system recovery is a mark-and-sweep pass:

    1. {b Resolve}: every directory first-block with a pending log entry
       (an interrupted intra- or cross-directory rename) is rolled
       forward if the shadow entry became reachable, rolled back
       otherwise.
    2. {b Mark}: traverse the metadata graph from the root, repairing as
       it goes — slots that point to non-live file entries are completed
       deletions (Fig. 5b: "the next process accessing the same line
       identifies a null pointer and completes the remaining steps"), and
       entries linked in a row that does not match their name hash are
       interrupted renames whose remaining steps are executed.
    3. {b Sweep}: reclaim every allocated-but-unreachable metadata object
       and rebuild the block allocator's free lists from the blocks
       referenced by reachable inodes, directory chains and slab
       segments (unreachable directory blocks and extents are implicitly
       reclaimed).

    {b Parallel recovery} (DESIGN.md §14).  All three passes decompose
    into tasks over a {!Simurgh_sim.Workpool} frontier — one task per
    directory for log collection and for mark, one per slab segment /
    directory chain / inode slice for sweep — and the same task set runs
    under one of three drivers, chosen by [?par]:

    + {!Seq} (default): the reference sequential execution;
    + {!Vtime}: virtual-time list scheduling over per-worker
      {!Simurgh_sim.Sthread} clocks, each task's region traffic charged
      to its worker through the shared machine's bandwidth servers —
      this is what the recovery-time figure measures;
    + {!Fibers}: cooperative fibers over the schedule-exploring engine,
      interleaved at every store/lock/atomic — this is what the
      schedule explorer and the race detector drive.

    Parallel recovery is {e schedule-independent}: tasks only make
    commutative, idempotent updates to shared state (set-union marks
    into per-worker shards merged in worker order, bitmap ORs, counter
    increments) and only write media they own (their directory's
    blocks); every repair whose placement depends on allocation order
    (relinking a moved or salvaged entry, growing a chain) is deferred
    to a deterministically-sorted sequential step between rounds.  The
    sched-explorer asserts one media digest and one report across all
    explored interleavings.

    {b Fault containment}: a poisoned line hit during recovery gets a
    bounded re-read ([retry_budget]) and then escalates to quarantine —
    an unreadable directory head detaches the parent slot, an unreadable
    chain-block header truncates the chain, a partially-unreadable chain
    block is spliced out with its readable entries salvaged and
    relinked.  Recovery never lets [Media_error] escape mid-pass and
    never aborts half-swept.

    {b Re-entrancy}: recovery's own stores go through the region like
    any other writer, and [set_crash_hook] labels its semantic store
    points (log resolution, quarantine, repairs, sweep frees) so the
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
  resolve_passes : int;  (** log-collection passes until fixpoint *)
  mark_tasks : int;  (** directory mark tasks executed *)
  sweep_tasks : int;  (** segment / chain / slice sweep tasks *)
  vtime_cycles : float;
      (** {!Vtime} mode only: the recovery makespan (max worker clock);
          0 under {!Seq} and {!Fibers} *)
}

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
  | Fibers of { schedule : Simurgh_sim.Schedule.t; workers : int }

(* --- observability ------------------------------------------------------ *)

(* Cumulative across runs: the obs collector samples sources at drain
   time, so per-run registration inside the library would be lost —
   bench experiments export these via their own [Collect.note_source]
   closure instead. *)
let obs_runs = ref 0
let obs_retries = ref 0
let obs_quarantined = ref 0
let obs_swept = ref 0
let obs_mark_tasks = ref 0
let obs_sweep_tasks = ref 0
let obs_resolve_passes = ref 0

(** [recovery/*] counters, cumulative over every {!run} in this
    process. *)
let counters () =
  [
    ("recovery/runs", float_of_int !obs_runs);
    ("recovery/retries", float_of_int !obs_retries);
    ("recovery/quarantined", float_of_int !obs_quarantined);
    ("recovery/swept_objects", float_of_int !obs_swept);
    ("recovery/mark_tasks", float_of_int !obs_mark_tasks);
    ("recovery/sweep_tasks", float_of_int !obs_sweep_tasks);
    ("recovery/resolve_passes", float_of_int !obs_resolve_passes);
  ]

(* --- crash hooks -------------------------------------------------------- *)

(* Labelled semantic store points inside recovery itself, mirroring
   [Fs.set_crash_hook]: the re-entrancy explorer installs a hook that
   raises at the n-th firing to crash recovery mid-flight.  Labels:
   "recovery:resolve-log", "recovery:mark-repair", "recovery:quarantine",
   "recovery:sweep-free". *)
let crash_hook : (string -> unit) option ref = ref None
let set_crash_hook f = crash_hook := Some f
let clear_crash_hook () = crash_hook := None

let hook label =
  match !crash_hook with Some f -> f label | None -> ()

(* Bounded retry on a media fault before escalating to quarantine.  A
   real DIMM can return corrected data on a later read (transient
   errors); the model's poison is persistent, so here the retries always
   fail — the [retries] counter proves the escalation path runs. *)
let retry_budget = 2

(* --- helpers ----------------------------------------------------------- *)

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
   entry.  Returns the slot the entry is now linked in. *)
let relink layout ~head p =
  let region = layout.Layout.region in
  let name = Fentry.name region p in
  match Dirblock.find region ~head ~name with
  | Some (b, row, s, _), _ -> (b, row, s) (* already correctly linked *)
  | None, _ -> (
      let hash = Name_hash.hash name in
      let slot_ref, _, last = Dirblock.find_free_slot region ~head ~hash in
      match slot_ref with
      | Some (b, row, s) ->
          Dirblock.set_slot region b row s p;
          (b, row, s)
      | None ->
          let new_rows =
            min Dirblock.max_rows (2 * Dirblock.rows region last)
          in
          let balloc = layout.Layout.balloc in
          let bs = Balloc.block_size balloc in
          let blocks = (Dirblock.size_for_rows new_rows + bs - 1) / bs in
          (match Balloc.alloc balloc blocks with
          | None ->
              failwith "Recovery.relink: out of blocks extending directory"
          | Some nb ->
              Dirblock.init region nb ~rows:new_rows ();
              Dirblock.set_next region last nb;
              let row = hash mod new_rows in
              Dirblock.set_slot region nb row 0 p;
              (nb, row, 0)))

(* --- pending rename logs ------------------------------------------------ *)

(* Resolve the pending log in [slot] of first-block [b].  Returns
   [`Forward] or [`Back]. *)
let resolve_log layout b ~slot =
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
            ignore (relink layout ~head:dst nfe);
            Dirblock.set_slot region blk row s 0
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
  outcome

(* --- full-system recovery ------------------------------------------------ *)

(* The unit of work on the pool frontier. *)
type task =
  | Collect_logs of int  (* pass-1 read-only scan of one directory *)
  | Mark of { head : int; pslot : (int * int * int * int * int) option }
      (* mark + repair one directory; [pslot] = (block, row, slot,
         fentry, inode) of the referencing entry in the parent — if the
         head turns out unreadable the slot is detached and the entry's
         marks dropped (in the sequential step: the slot bytes belong to
         the parent's task, so the child task must not write them) *)
  | Sweep_seg of [ `Inode | `Fentry ] * int  (* one slab segment *)
  | Sweep_chain of int  (* block-mark one directory chain *)
  | Sweep_inodes of int array * int * int  (* extent scrub+mark, [lo,hi) *)
  | Sweep_spills of int array * int * int  (* spill-block mark, [lo,hi) *)

(* A deferred relink: a misplaced entry (interrupted same-directory
   rename, Fig. 5c steps 7-8) or an entry salvaged off a spliced
   poisoned chain block.  Relinking allocates slots (and possibly
   blocks), so it runs in the deterministically-sorted sequential step
   between mark rounds, never inside a parallel task. *)
type relink_job = {
  rl_head : int;
  rl_p : int;
  rl_tgt : int;  (* the entry's inode, un-marked if the relink fails *)
  rl_old : (int * int * int) option;  (* old slot; None if salvaged *)
  rl_child : int option;  (* dirhead to traverse once relinked *)
  rl_move : bool;  (* counts as a completed rename *)
}

(* Per-worker reachability shard: tasks append marks to their own
   vectors (cheap, unsynchronized) and the vectors are merged into the
   global sets in worker-index order at each round barrier — the merged
   result is a set union, independent of task placement and schedule. *)
type shard = {
  s_fentry : Reach.Vec.v;
  s_inode : Reach.Vec.v;
  s_dirhead : Reach.Vec.v;
}

let sweep_slice = 512

let run ?(par = Seq) ?(skip_log_resolution = false) ?(drop_mark_shard = false)
    region =
  (* a crash wipes shared DRAM: discard any cached volatile state *)
  Fs.invalidate_shared region;
  let layout = Layout.attach region in
  let r = region in
  let inode_slab = layout.Layout.inode_slab in
  let fentry_slab = layout.Layout.fentry_slab in
  let balloc = layout.Layout.balloc in
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

  (* bounded re-read of poisoned media; [None] after the budget is
     spent, at which point the caller quarantines *)
  let try_read f =
    let rec go k =
      match f () with
      | v -> Some v
      | exception Region.Media_error _ when k > 0 ->
          incr retries;
          go (k - 1)
      | exception Region.Media_error _ -> None
    in
    go retry_budget
  in

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
     bandwidth (bulk snapshots), stores are posted line writes, fences
     and per-op bookkeeping are CPU cycles.  Fiber mode charges nothing
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
    | Fibers { schedule; _ } ->
        Workpool.run_fibers pool ~schedule ~workers:nworkers exec
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

  (* ---- global reachability + shards ------------------------------------ *)
  let new_marks () = Reach.create ~size:(Region.size r) in
  let g_inode = new_marks () in
  let g_fentry = new_marks () in
  let g_dirhead = new_marks () in
  let shards =
    Array.init nworkers (fun _ ->
        {
          s_fentry = Reach.Vec.create ();
          s_inode = Reach.Vec.create ();
          s_dirhead = Reach.Vec.create ();
        })
  in
  (* merge (and clear) the shards in worker-index order; the result is
     the set union, so it does not depend on which worker marked what.
     [drop_mark_shard] discards every shard but worker 0's — the
     deliberate parallel-merge bug behind make fsck's negative control:
     with >= 2 workers some reachable objects lose their marks and the
     sweep frees storage the namespace still references. *)
  let merge_shards () =
    Array.iteri
      (fun w sh ->
        if w = 0 || not drop_mark_shard then begin
          Reach.add_all g_fentry sh.s_fentry;
          Reach.add_all g_inode sh.s_inode;
          Reach.add_all g_dirhead sh.s_dirhead
        end;
        Reach.Vec.clear sh.s_fentry;
        Reach.Vec.clear sh.s_inode;
        Reach.Vec.clear sh.s_dirhead)
      shards
  in
  let mark g v k = if not (Reach.mem g k) then Reach.Vec.push v k in
  let mark_f sh p = mark g_fentry sh.s_fentry p in
  let mark_i sh i = mark g_inode sh.s_inode i in
  let mark_d sh h = mark g_dirhead sh.s_dirhead h in

  (* ---- pass 1: resolve pending rename logs ----------------------------- *)
  (* Resolve every pending log BEFORE any row repair.  A crashed
     cross-directory rename leaves its shadow entry dirty in the
     destination; were the destination repaired first, the shadow would
     be mistaken for an interrupted delete and the file lost.  The log
     in the source directory disambiguates, so logs must win.

     Collection (a read-only tree scan) runs as one pool task per
     directory; the found (epoch, head, slot) triples are sorted and
     resolved sequentially in ascending epoch order: slots of
     conflicting renames were stamped in their row-lock serialization
     order, so replaying by epoch is the deterministic linearization.
     Resolution can change reachability (stale links dropped, shadows
     committed), so collection iterates to a fixpoint — [log_seen] keys
     on (head, slot) and guarantees termination. *)
  let log_seen = Hashtbl.create 64 in
  let resolve_logs root_head =
    let continue_ = ref true in
    while !continue_ do
      incr resolve_passes;
      let found = ref [] in
      let seen = new_marks () in
      Reach.add seen root_head;
      let pool = Workpool.create () in
      let do_collect head =
        (try
           List.iter
             (fun (slot, epoch) -> found := (epoch, head, slot) :: !found)
             (Dirblock.Log.pending_slots r head)
         with Region.Media_error _ -> ());
        let rowbuf = Bytes.create Dirblock.row_bytes in
        let rec block b =
          if b <> 0 then begin
            match
              try Some (Dirblock.rows r b, Dirblock.next r b)
              with Region.Media_error _ -> None
            with
            | None -> ()
            | Some (nrows, nxt) ->
                for row = 0 to nrows - 1 do
                  if
                    try
                      Dirblock.load_row r b row rowbuf;
                      true
                    with Region.Media_error _ -> false
                  then
                    for s = 0 to Dirblock.slots_per_row - 1 do
                      let p = Dirblock.slot_of_row rowbuf s in
                      if p <> 0 then
                        try
                          if
                            Slab.obj_flags fentry_slab p <> 0
                            && Fentry.is_dir r p
                          then begin
                            let child = Fentry.dirblock r p in
                            if child <> 0 && not (Reach.mem seen child)
                            then begin
                              Reach.add seen child;
                              Workpool.push pool (Collect_logs child)
                            end
                          end
                        with Region.Media_error _ -> ()
                    done
                done;
                block nxt
          end
        in
        block head
      in
      Workpool.push pool (Collect_logs root_head);
      run_pool pool (fun ~worker:_ task ->
          match task with
          | Collect_logs head -> do_collect head
          | _ -> assert false);
      let fresh =
        List.filter
          (fun (_, head, slot) -> not (Hashtbl.mem log_seen (head, slot)))
          !found
        |> List.sort_uniq compare
      in
      match fresh with
      | [] -> continue_ := false
      | pending ->
          seq_section (fun () ->
              List.iter
                (fun (_, head, slot) ->
                  Hashtbl.replace log_seen (head, slot) ();
                  hook "recovery:resolve-log";
                  try
                    match resolve_log layout head ~slot with
                    | `Forward -> incr completed_renames
                    | `Back -> incr rolled_back
                  with Region.Media_error _ -> ())
                pending)
    done
  in

  (* ---- pass 2: mark + repair ------------------------------------------- *)
  let claimed = new_marks () in
  let relinks : relink_job list ref = ref [] in
  (* parent slots of unreadable directory heads, detached in the
     sequential step (the slot bytes are owned by the parent's task) *)
  let pending_quarantines : (int * int * int * int * int) list ref = ref [] in
  let do_mark pool sh head pslot =
    incr mark_tasks;
    let claim_push child pslot =
      if child <> 0 && not (Reach.mem claimed child) then begin
        Reach.add claimed child;
        Workpool.push pool (Mark { head = child; pslot })
      end
    in
    (* read one block's header and a snapshot of its rows; a row that
       stays unreadable after the retry budget snapshots to [None] *)
    let read_block b =
      match try_read (fun () -> (Dirblock.rows r b, Dirblock.next r b)) with
      | None -> None
      | Some (nrows, nxt) ->
          let snap =
            Array.init nrows (fun row ->
                try_read (fun () ->
                    let buf = Bytes.create Dirblock.row_bytes in
                    Dirblock.load_row r b row buf;
                    buf))
          in
          Some (nrows, nxt, snap)
    in
    (* Process one entry.  Everything is read (with retry) before
       anything is marked or written, so a fault can never strand a
       half-processed entry: either the whole entry is acted on, or its
       slot is quarantined with no marks made.  [salvage] entries sit on
       a block being spliced out — their slot no longer exists, so
       repairs that would touch it are skipped and live entries are
       queued for relinking instead. *)
    let process_entry ~salvage ~nrows b row s p =
      match
        try_read (fun () ->
            if not (Slab.is_live fentry_slab p) then `Dead
            else
              let name = Fentry.name r p in
              let want = Name_hash.hash name mod nrows in
              let tgt = Fentry.target r p in
              let kind =
                if Fentry.is_dir r p then `Dir (Fentry.dirblock r p)
                else if Fentry.is_symlink r p then `Sym
                else `File
              in
              `Live (want, tgt, kind))
      with
      | None ->
          (* unreadable entry metadata: detach the slot *)
          if salvage then incr quarantined else quarantine_slot b row s
      | Some `Dead ->
          (* interrupted delete: complete it (zero the pointer); a
             salvaged dead entry's slot vanished with its block *)
          if not salvage then begin
            hook "recovery:mark-repair";
            Dirblock.set_slot r b row s 0
          end;
          incr completed_deletes
      | Some (`Live (want, tgt, kind)) ->
          let child = match kind with `Dir h -> Some h | _ -> None in
          if salvage || want <> row then begin
            (* misplaced (interrupted same-directory rename after the
               swap: finish steps 7-8 of Fig. 5c) or salvaged: mark now,
               relink in the sequential step, traverse the child dir in
               the next round *)
            mark_f sh p;
            mark_i sh tgt;
            relinks :=
              {
                rl_head = head;
                rl_p = p;
                rl_tgt = tgt;
                rl_old = (if salvage then None else Some (b, row, s));
                rl_child = child;
                rl_move = not salvage;
              }
              :: !relinks
          end
          else begin
            mark_f sh p;
            mark_i sh tgt;
            match kind with
            | `Dir h ->
                incr dirs;
                claim_push h (Some (b, row, s, p, tgt))
            | `Sym -> incr symlinks
            | `File -> incr files
          end
    in
    let process_block ~salvage b nrows snap =
      Array.iteri
        (fun row o ->
          match o with
          | None -> if salvage then incr quarantined
          | Some rowbuf ->
              for s = 0 to Dirblock.slots_per_row - 1 do
                let p = Dirblock.slot_of_row rowbuf s in
                if p <> 0 then process_entry ~salvage ~nrows b row s p
              done)
        snap
    in
    (* The head block is validated in full before anything below it is
       marked: an unreadable header or row quarantines the whole
       directory by detaching the parent slot, with no marks made (a
       partially-marked quarantined subtree would leak). *)
    let head_unreadable () =
      match pslot with
      | Some q -> pending_quarantines := q :: !pending_quarantines
      | None -> incr quarantined (* the root itself: nothing to detach *)
    in
    match read_block head with
    | None -> head_unreadable ()
    | Some (_, _, snap) when Array.exists (fun o -> o = None) snap ->
        head_unreadable ()
    | Some (nrows, nxt, snap) ->
        mark_d sh head;
        (* clear busy flags left behind by crashed lock holders *)
        for row = 0 to Dirblock.first_rows - 1 do
          if
            try Dirblock.busy r head row with Region.Media_error _ -> false
          then begin
            Dirblock.set_busy r head row false;
            incr cleared_busy
          end
        done;
        process_block ~salvage:false head nrows snap;
        (* chain blocks degrade per-block, never per-directory: an
           unreadable header truncates the chain there (the orphaned
           tail is swept); a block with unreadable rows is spliced out
           and its readable entries salvaged *)
        let rec walk prev b =
          if b <> 0 then
            match read_block b with
            | None ->
                incr quarantined;
                Dirblock.set_next r prev 0
            | Some (nrows, nxt, snap)
              when Array.exists (fun o -> o = None) snap ->
                process_block ~salvage:true b nrows snap;
                Dirblock.set_next r prev nxt;
                walk prev nxt
            | Some (nrows, nxt, snap) ->
                process_block ~salvage:false b nrows snap;
                walk b nxt
        in
        walk head nxt
  in
  (* One mark round = a parallel frontier drain + the sequential merge
     and relink step.  Relinks sort on (directory, entry, old slot) so
     slot placement and chain growth are schedule-independent; relinked
     subdirectories seed the next round.  Rounds terminate: every round
     consumes relink jobs discovered in the previous one, and an entry
     is relinked at most once. *)
  let rec mark_rounds roots =
    let pool = Workpool.create () in
    List.iter
      (fun (h, ps) ->
        if h <> 0 && not (Reach.mem claimed h) then begin
          Reach.add claimed h;
          Workpool.push pool (Mark { head = h; pslot = ps })
        end)
      roots;
    run_pool pool (fun ~worker task ->
        match task with
        | Mark { head; pslot } ->
            (* backstop: no fault may abort the frontier half-marked *)
            (try do_mark pool shards.(worker) head pslot
             with Region.Media_error _ -> incr quarantined)
        | _ -> assert false);
    let next_roots =
      seq_section (fun () ->
          merge_shards ();
          (* detach entries whose directory head proved unreadable, and
             drop their marks so the sweep reclaims them (the old code
             path un-marked the whole subtree; here nothing below an
             unreadable head was ever marked) *)
          List.iter
            (fun (b, row, s, p, tgt) ->
              Reach.remove g_fentry p;
              Reach.remove g_inode tgt;
              quarantine_slot b row s)
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
                    (* relink before zeroing the old slot: a crash in
                       between leaves a transient duplicate (repaired on
                       re-entry), never an unlinked live entry *)
                    let slot' = relink layout ~head:j.rl_head j.rl_p in
                    if Slab.is_unprocessed fentry_slab j.rl_p then
                      Slab.commit fentry_slab j.rl_p;
                    (match j.rl_old with
                    | Some (b, row, s) when (b, row, s) <> slot' ->
                        Dirblock.set_slot r b row s 0
                    | _ -> ());
                    slot')
              with
              | None ->
                  (* the relink itself hit poisoned media: detach *)
                  Reach.remove g_fentry j.rl_p;
                  Reach.remove g_inode j.rl_tgt;
                  (match j.rl_old with
                  | Some (b, row, s) -> quarantine_slot b row s
                  | None -> incr quarantined);
                  None
              | Some slot' ->
                  if j.rl_move then incr completed_renames;
                  Option.map
                    (fun h ->
                      let b', row', s' = slot' in
                      (h, Some (b', row', s', j.rl_p, j.rl_tgt)))
                    j.rl_child)
            jobs)
    in
    if next_roots <> [] then mark_rounds next_roots
  in

  let root = Layout.root_fentry layout in
  Reach.add g_fentry root;
  Reach.add g_inode (Fentry.target r root);
  let root_head = Fentry.dirblock r root in
  (* [skip_log_resolution] deliberately breaks recovery (pass 1 is what
     disambiguates crashed renames); used by the negative tests proving
     the offline checker actually catches recovery bugs *)
  if not skip_log_resolution then resolve_logs root_head;
  mark_rounds [ (root_head, None) ];

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
  let sweep_segment which seg bm =
    let slab, reach, counter =
      match which with
      | `Inode -> (inode_slab, g_inode, reclaimed_inodes)
      | `Fentry -> (fentry_slab, g_fentry, reclaimed_fentries)
    in
    mark_range bm seg (Slab.blocks_per_segment slab * bs);
    let slot_bytes = Slab.obj_header + Slab.obj_size slab in
    let to_free = ref [] in
    Slab.iter_segment_objects slab seg (fun p flags ->
        if flags <> 0 && not (Reach.mem reach p) then
          if Region.range_poisoned r (p - Slab.obj_header) slot_bytes then
            (* the slot overlaps a poisoned line (possibly a neighbor's
               — slots are not line-aligned): it can be neither zeroed
               nor recycled, so it stays allocated, quarantined in
               place, until the media is scrubbed *)
            incr quarantined
          else to_free := p :: !to_free);
    List.iter
      (fun p ->
        hook "recovery:sweep-free";
        if not (Slab.is_live slab p) then Slab.mark_dirty slab p;
        Slab.free slab p;
        incr counter)
      !to_free
  in
  (* file extents + extent overflow chains.  A crash inside a batched
     extent-staging window (range_locks data path) can leave a torn
     slot — address persisted, block count not, or the reverse.  Such a
     slot maps zero bytes so it is harmless to readers, but it would
     shadow the slot forever (appends only fill addr = 0 slots): scrub
     it back to empty here, and let the rebuild below reclaim whatever
     blocks the lost stores leaked. *)
  let scrub_slot read write k =
    let addr, blocks = read k in
    if (addr <> 0 && blocks = 0) || (addr = 0 && blocks <> 0) then
      write k ~addr:0 ~blocks:0
  in
  let sweep_inode bm inode =
    try
      for k = 0 to Inode.inline_extents - 1 do
        scrub_slot (Inode.read_extent r inode) (Inode.write_extent r inode) k
      done;
      let rec ov_scrub b =
        if b <> 0 then begin
          for k = 0 to Inode.overflow_entries - 1 do
            scrub_slot (Inode.read_ov_extent r b) (Inode.write_ov_extent r b) k
          done;
          ov_scrub (Region.read_u62 r (Inode.ov_next b))
        end
      in
      ov_scrub (Region.read_u62 r (Inode.f_overflow inode));
      Inode.iter_extents r inode (fun addr blocks ->
          mark_range bm addr (blocks * bs));
      let rec ov b =
        if b <> 0 then begin
          mark_range bm b Inode.overflow_bytes;
          ov (Region.read_u62 r (Inode.ov_next b))
        end
      in
      ov (Region.read_u62 r (Inode.f_overflow inode))
    with Region.Media_error _ -> incr quarantined
  in
  let do_sweep ~worker task =
    incr sweep_tasks;
    let bm = bitmaps.(worker) in
    match task with
    | Sweep_seg (which, seg) -> sweep_segment which seg bm
    | Sweep_chain head -> (
        try
          Dirblock.iter_chain r head (fun _ b ->
              mark_range bm b (Dirblock.size_of r b))
        with Region.Media_error _ -> ())
    | Sweep_inodes (arr, lo, hi) ->
        for k = lo to hi - 1 do
          sweep_inode bm arr.(k)
        done
    | Sweep_spills (arr, lo, hi) ->
        for k = lo to hi - 1 do
          let fe = arr.(k) in
          try
            match Fentry.spill r fe with
            | Some (addr, len) -> mark_range bm addr len
            | None -> ()
          with Region.Media_error _ -> incr quarantined
        done
    | Collect_logs _ | Mark _ -> assert false
  in
  let slice pool arr mk =
    let n = Array.length arr in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + sweep_slice) in
      Workpool.push pool (mk arr !lo hi);
      lo := hi
    done
  in
  let run_sweep pool =
    run_pool pool (fun ~worker task ->
        try do_sweep ~worker task
        with Region.Media_error _ -> incr quarantined)
  in
  (* Two fenced phases: the scan phase scrubs torn extent slots (writes
     into reachable inodes) and block-marks chains/extents/spills; the
     segment phase bulk-snapshots whole segments (reads every slot) and
     frees the unreachable ones.  Splitting them keeps any task's writes
     out of another concurrent task's read set — within a phase tasks
     touch disjoint media, across phases the pool's fork/join fences
     order them. *)
  let pool_scan = Workpool.create () in
  Array.iter
    (fun head -> Workpool.push pool_scan (Sweep_chain head))
    (Reach.to_sorted_array g_dirhead);
  slice pool_scan (Reach.to_sorted_array g_inode) (fun a lo hi ->
      Sweep_inodes (a, lo, hi));
  slice pool_scan (Reach.to_sorted_array g_fentry) (fun a lo hi ->
      Sweep_spills (a, lo, hi));
  run_sweep pool_scan;
  let pool_seg = Workpool.create () in
  Slab.iter_segments inode_slab (fun seg ->
      Workpool.push pool_seg (Sweep_seg (`Inode, seg)));
  Slab.iter_segments fentry_slab (fun seg ->
      Workpool.push pool_seg (Sweep_seg (`Fentry, seg)));
  run_sweep pool_seg;

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
      (* Volatile caches reflect the repaired truth. *)
      Slab.rebuild_cache inode_slab;
      Slab.rebuild_cache fentry_slab;
      Layout.set_clean_shutdown layout true);

  let vtime_cycles =
    match clocks with
    | Some cl ->
        Array.fold_left (fun acc c -> Stdlib.max acc c.Sthread.now) 0.0 cl
    | None -> 0.0
  in
  incr obs_runs;
  obs_retries := !obs_retries + !retries;
  obs_quarantined := !obs_quarantined + !quarantined;
  obs_swept := !obs_swept + !reclaimed_inodes + !reclaimed_fentries;
  obs_mark_tasks := !obs_mark_tasks + !mark_tasks;
  obs_sweep_tasks := !obs_sweep_tasks + !sweep_tasks;
  obs_resolve_passes := !obs_resolve_passes + !resolve_passes;

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

(** Recover and mount in one step. *)
let mount_after_crash ?call_mode ?relaxed_writes ?euid ?egid region =
  let layout, report = run region in
  let fs = Fs.of_layout ?call_mode ?relaxed_writes ?euid ?egid layout in
  Fs.register_shared region layout (Fs.locks_of fs) (Fs.rcache_of fs)
    (Fs.quota_of fs);
  Layout.set_clean_shutdown layout false;
  (fs, report)

(** Mount with the clean-shutdown fast path (paper §4.3: "if the file
    system was unmounted cleanly, no recovery is necessary").  A set
    clean flag means the last writer ran {!Fs.unmount}: attach directly
    and skip the mark-and-sweep entirely ([None]).  A clear flag means a
    crash (mounting clears it, only a clean unmount sets it back), so a
    full {!run} is performed ([Some report]). *)
let mount_auto ?call_mode ?relaxed_writes ?euid ?egid region =
  if Layout.clean_shutdown_of_region region then begin
    let fs = Fs.mount ?call_mode ?relaxed_writes ?euid ?egid region in
    (fs, None)
  end
  else
    let fs, report =
      mount_after_crash ?call_mode ?relaxed_writes ?euid ?egid region
    in
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
      ignore (resolve_log layout head ~slot);
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
      (* relink first, then drop the old slot: a crash in between
         leaves a repairable duplicate, never an unlinked live entry *)
      let slot' = relink layout ~head p in
      if Slab.is_unprocessed layout.Layout.fentry_slab p then
        Slab.commit layout.Layout.fentry_slab p;
      if slot' <> (b, row, s) then Dirblock.set_slot region b row s 0;
      incr repaired)
    !moves;
  for row = 0 to Dirblock.first_rows - 1 do
    if Dirblock.busy region head row then Dirblock.set_busy region head row false
  done;
  !repaired

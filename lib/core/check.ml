(** Offline fsck-style invariant checker.

    [run region] attaches to a formatted region and validates every
    structural invariant the Fig. 5 state machines are supposed to
    re-establish after recovery:

    - {b placement}: every linked entry sits in the row its name hashes
      to in that chain block;
    - {b slots}: no slot points to a non-live file entry (dangling) and
      no file entry is linked twice (duplicate), no duplicate names in a
      directory;
    - {b slabs}: no 11 (allocated-unprocessed) or 01 (mid-deallocation)
      object survives, and every live object is reachable from the root
      (no leaks);
    - {b blocks}: the allocator's free lists and the blocks reachable
      through slab segments, directory chains, extents and long-name
      spills exactly partition the managed space (no overlap, no loss);
    - {b logs/busy}: no reachable directory block has a pending rename
      log or a stuck busy flag.

    It is the oracle of the crash-image explorer ({!Explore}): after
    recovery from {e any} crash image, [run] must return [[]].  Poisoned
    lines encountered while checking are reported as [Media] violations
    instead of aborting the scan, and so are slots and chain links that
    no directory could hold ([Dangling_slot], [Structure]).  Read-only:
    the checker never mutates the region. *)

open Simurgh_nvmm
module Slab = Simurgh_alloc.Slab_alloc
module Balloc = Simurgh_alloc.Block_alloc

type violation =
  | Structure of string  (** superblock / traversal-level corruption *)
  | Misplaced_entry of { block : int; row : int; want : int; name : string }
      (** entry linked in a row that does not match its name hash *)
  | Dangling_slot of { block : int; row : int; slot : int; target : int }
      (** slot points at a file entry that is not live *)
  | Duplicate_slot of { fentry : int }
      (** the same file entry is linked from two slots *)
  | Duplicate_name of { dir : int; name : string }
      (** two live entries with the same name in one directory *)
  | Slab_state of { slab : string; obj : int; flags : int }
      (** allocated-unprocessed (11) or mid-deallocation (01) leftover *)
  | Leak of { slab : string; obj : int }
      (** live object unreachable from the root *)
  | Block_accounting of string
      (** free lists vs. reachable references disagree *)
  | Log_pending of { block : int; slot : int }
      (** unresolved rename log in one of a first block's [log_ring]
          slots (several can be flagged in one block) *)
  | Busy_flag of { block : int; row : int }  (** stuck busy flag *)
  | Media of { line : int }  (** poisoned line hit while checking *)
  | Free_cache of string
      (** a slab's volatile free cache differs from a rebuild *)

let pp_violation ppf = function
  | Structure s -> Fmt.pf ppf "structure: %s" s
  | Misplaced_entry { block; row; want; name } ->
      Fmt.pf ppf "misplaced entry %S in block %#x row %d (want row %d)" name
        block row want
  | Dangling_slot { block; row; slot; target } ->
      Fmt.pf ppf "dangling slot %#x[%d.%d] -> non-live fentry %#x" block row
        slot target
  | Duplicate_slot { fentry } -> Fmt.pf ppf "fentry %#x linked twice" fentry
  | Duplicate_name { dir; name } ->
      Fmt.pf ppf "duplicate name %S in directory %#x" name dir
  | Slab_state { slab; obj; flags } ->
      Fmt.pf ppf "%s object %#x left in transient state %d" slab obj flags
  | Leak { slab; obj } -> Fmt.pf ppf "%s object %#x live but unreachable" slab obj
  | Block_accounting s -> Fmt.pf ppf "block accounting: %s" s
  | Log_pending { block; slot } ->
      Fmt.pf ppf "pending rename log in block %#x slot %d" block slot
  | Busy_flag { block; row } ->
      Fmt.pf ppf "busy flag stuck in block %#x row %d" block row
  | Media { line } -> Fmt.pf ppf "media error at line %#x while checking" line
  | Free_cache s -> Fmt.pf ppf "free cache: %s" s

let violation_to_string v = Fmt.str "%a" pp_violation v

(** [run region] returns every invariant violation found (empty list =
    consistent file system).  [include_leaks:false] skips the
    live-but-unreachable check — the runtime single-directory repair
    path ({!Recovery.repair_directory}) legitimately leaves objects of
    {e other} crashed directories for the next full scan.  The block
    free lists are read from the live allocator when the region is
    mounted (its shared-DRAM state), otherwise from their media
    checkpoint. *)
let run ?(include_leaks = true) region =
  let out = ref [] in
  let add v = out := v :: !out in
  let r = region in
  let attach () =
    match Fs.lookup_shared region with
    | Some s -> s.Fs.s_layout
    | None ->
        let layout = Layout.attach region in
        if not (Layout.clean_shutdown layout) then
          Balloc.load layout.Layout.balloc;
        layout
  in
  match
    try Ok (attach ()) with
    | Invalid_argument m -> Error m
    | Region.Media_error off -> Error (Printf.sprintf "media error at %#x" off)
  with
  | Error m ->
      [ Structure (Printf.sprintf "cannot attach: %s" m) ]
  | Ok layout ->
      let fentry_slab = layout.Layout.fentry_slab in
      let inode_slab = layout.Layout.inode_slab in
      let balloc = layout.Layout.balloc in

      (* --- namespace traversal -------------------------------------- *)
      let new_marks () = Reach.create ~size:(Region.size r) in
      let reach_fentry = new_marks () in
      let reach_inode = new_marks () in
      let reach_dirhead = new_marks () in
      (* every directory block walked, with its size, for the block
         accounting *)
      let dir_blocks = ref [] in
      (* Values read from a corrupt image are checked before they are
         followed, by the predicates recovery's mark applies: a slot must
         hold a file-entry slab object ({!Slab.locate}), and a chain link
         a directory block ({!Layout.dir_block}) not seen before in its
         chain. *)
      let fentry_map = Slab.seg_map fentry_slab in
      let bs = Balloc.block_size balloc and base = Balloc.base balloc in
      let dir_block ~head ~seen b =
        Layout.dir_block_addr layout b
        && (not (Dirblock.mem_block b seen))
        && Layout.dir_block layout ~first:(b = head) b ~rows:(Dirblock.rows r b)
             ~ring:(Dirblock.ring r b)
      in
      let rec walk_dir head =
        if head <> 0 && not (Reach.mem reach_dirhead head) then begin
          Reach.add reach_dirhead head;
          let names = Hashtbl.create 16 in
          let rec chain seen b =
            if b = 0 then List.rev seen
            else if dir_block ~head ~seen b then begin
              dir_blocks := (b, Dirblock.size_of r b) :: !dir_blocks;
              chain (b :: seen) (Dirblock.next r b)
            end
            else begin
              add
                (Structure
                   (Printf.sprintf "directory %#x links non-directory block %#x"
                      head b));
              List.rev seen
            end
          in
          try
            List.iter
              (fun b ->
                (* ring emptiness: every log slot must be clear *)
                List.iter
                  (fun (slot, _) -> add (Log_pending { block = b; slot }))
                  (Dirblock.Log.pending_slots r b);
                if b = head then
                  for row = 0 to Dirblock.first_rows - 1 do
                    if Dirblock.busy r b row then
                      add (Busy_flag { block = b; row })
                  done;
                Dirblock.iter_block r b (check_entry head names b))
              (chain [] head)
          with Region.Media_error off ->
            add (Media { line = off / Region.line_size })
        end
      and check_entry head names b row s p =
        try
          if
            not
              (Slab.locate fentry_slab fentry_map p >= 0
              && Slab.is_live fentry_slab p)
          then
            add (Dangling_slot { block = b; row; slot = s; target = p })
          else begin
            let name = Fentry.name r p in
            let want = Name_hash.hash name mod Dirblock.rows r b in
            if want <> row then
              add (Misplaced_entry { block = b; row; want; name });
            if Hashtbl.mem names name then
              add (Duplicate_name { dir = head; name })
            else Hashtbl.replace names name ();
            if Reach.mem reach_fentry p then add (Duplicate_slot { fentry = p })
            else begin
              Reach.add reach_fentry p;
              Reach.add reach_inode (Fentry.target r p);
              if Fentry.is_dir r p then walk_dir (Fentry.dirblock r p)
            end
          end
        with Region.Media_error off ->
          add (Media { line = off / Region.line_size })
      in
      let root = Layout.root_fentry layout in
      Reach.add reach_fentry root;
      Reach.add reach_inode (Fentry.target r root);
      (try walk_dir (Fentry.dirblock r root)
       with Region.Media_error off ->
         add (Media { line = off / Region.line_size }));

      (* --- slab flag consistency ------------------------------------ *)
      let scan_slab name slab reach =
        let slot_bytes = Slab.obj_header + Slab.obj_size slab in
        Slab.iter_objects slab (fun p flags ->
            if Region.range_poisoned r (p - Slab.obj_header) slot_bytes then
              (* quarantined in place by recovery: neither state nor
                 reachability can be judged for a slot under poison *)
              ()
            else
            if flags = Slab.flag_valid lor Slab.flag_dirty
               || flags = Slab.flag_dirty
            then add (Slab_state { slab = name; obj = p; flags })
            else if
              include_leaks && flags = Slab.flag_valid
              && not (Reach.mem reach p)
            then add (Leak { slab = name; obj = p }))
      in
      scan_slab "fentry" fentry_slab reach_fentry;
      scan_slab "inode" inode_slab reach_inode;

      (* --- block accounting ----------------------------------------- *)
      (try
         let nblocks = Balloc.total_blocks balloc in
         (* 0 = unaccounted, 1 = reachable-used, 2 = free-listed *)
         let state = Bytes.make nblocks '\000' in
         let claim tag what addr bytes =
           let first = (addr - base) / bs
           and last = (addr + bytes - 1 - base) / bs in
           if first < 0 || last >= nblocks then
             add
               (Block_accounting
                  (Printf.sprintf "%s range %#x+%d escapes managed space" what
                     addr bytes))
           else
             for b = first to last do
               let prev = Char.code (Bytes.get state b) in
               if prev = 0 then Bytes.set state b (Char.chr tag)
               else
                 add
                   (Block_accounting
                      (Printf.sprintf
                         "block %d claimed twice (%s vs state %d)" b what prev))
             done
         in
         let used = claim 1 and freed = claim 2 in
         Slab.iter_segments inode_slab (fun seg ->
             used "inode slab segment" seg
               (Slab.blocks_per_segment inode_slab * bs));
         Slab.iter_segments fentry_slab (fun seg ->
             used "fentry slab segment" seg
               (Slab.blocks_per_segment fentry_slab * bs));
         List.iter
           (fun (b, size) -> used "directory block" b size)
           (List.rev !dir_blocks);
         Reach.iter
           (fun inode ->
             try
               Inode.iter_extents r inode (fun addr blocks ->
                   used "extent" addr (blocks * bs));
               let rec ov b =
                 if b <> 0 then begin
                   used "extent overflow block" b Inode.overflow_bytes;
                   ov (Region.read_u62 r (Inode.ov_next b))
                 end
               in
               ov (Region.read_u62 r (Inode.f_overflow inode))
             with Region.Media_error off ->
               add (Media { line = off / Region.line_size }))
           reach_inode;
         Reach.iter
           (fun fe ->
             try
               match Fentry.spill r fe with
               | Some (addr, len) -> used "long-name spill" addr len
               | None -> ()
             with Region.Media_error off ->
               add (Media { line = off / Region.line_size }))
           reach_fentry;
         Balloc.iter_free_ranges balloc (fun addr count ->
             freed "free list" addr (count * bs));
         (match Balloc.check_invariants balloc with
         | Ok () -> ()
         | Error m -> add (Block_accounting m));
         if include_leaks then begin
           let lost = ref 0 in
           Bytes.iteri
             (fun b c ->
               (* unaccounted blocks under poison are recovery's
                  quarantine, not a leak *)
               if
                 c = '\000'
                 && not (Region.range_poisoned r (base + (b * bs)) bs)
               then incr lost)
             state;
           if !lost > 0 then
             add
               (Block_accounting
                  (Printf.sprintf
                     "%d blocks neither free-listed nor reachable" !lost))
         end
       with Region.Media_error off ->
         add (Media { line = off / Region.line_size }));
      List.rev !out

(** Check every region of a sharded namespace; each violation is tagged
    with the index of the region it was found on. *)
let run_all ?include_leaks regions =
  List.concat
    (List.mapi
       (fun i region ->
         List.map (fun v -> (i, v)) (run ?include_leaks region))
       (Array.to_list regions))

(** [free_caches layout] compares the slabs' volatile free caches that
    [layout] holds (recovery installs them from its segment sweep) with
    a fresh {!Slab.rebuild_cache} of the same image: the free queue, in
    pop order, and the live count must be equal, or allocations after
    recovery land elsewhere than after a plain mount.  Leaves [layout]
    and the region untouched. *)
let free_caches (layout : Layout.t) =
  let fresh = Layout.attach layout.Layout.region in
  List.concat_map
    (fun (name, have, want) ->
      Slab.rebuild_cache want;
      let queue = Slab.free_slots have and queue' = Slab.free_slots want in
      (if queue <> queue' then
         [
           Free_cache
             (Printf.sprintf
                "%s queue of %d slots differs from a rebuild's %d" name
                (List.length queue) (List.length queue'));
         ]
       else [])
      @
      if Slab.live_objects have <> Slab.live_objects want then
        [
          Free_cache
            (Printf.sprintf "%s live count %d, a rebuild counts %d" name
               (Slab.live_objects have) (Slab.live_objects want));
        ]
      else [])
    [
      ("inode", layout.Layout.inode_slab, fresh.Layout.inode_slab);
      ("fentry", layout.Layout.fentry_slab, fresh.Layout.fentry_slab);
    ]

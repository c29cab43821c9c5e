(** Adversarial crash-image exploration.

    The Strict-mode region already models the persistence rules of real
    NVMM (store -> volatile line, clwb+sfence -> durable).  The classic
    [Region.crash] tests exactly one adversary — "every unpersisted line
    is lost" — but hardware is worse: the cache may evict any dirty line
    {e early}, so at a crash point every unpersisted line is
    {e independently} lost or already durable ([Region.crash_image]).

    {!explore} turns that into a systematic search over a region array.
    For one unit of work it

    + replays the work once per {e crash point} — before every NVMM
      store of any region ([Region.set_store_hook]), at every [sfence]
      before it commits ([Region.set_fence_hook]: the point where a
      persist epoch's lines are all pending at once) and at every
      labeled hook firing ({!points}, {!crash_at}) — restoring a
      checkpoint of the post-setup state each time;
    + at each crash point enumerates eviction subsets of the unpersisted
      lines of every region ({!each_image});
    + for every crash image runs full recovery ({!Recovery.run_all}) and
      then the offline checker ({!Check.run_all}), which must report
      zero violations; an optional [verify] callback can additionally
      inspect the recovered file system.

    {!run} is the one-region call, {!run_multi} the sharded one, and
    {!run_reentrant} reuses the same three steps with recovery itself as
    the unit of work.  The returned {!stats} aggregates points, images
    and any violating images (which make the calling test fail with a
    precise reproduction label). *)

open Simurgh_fs_common
open Simurgh_nvmm

exception Crash_now

type stats = {
  crash_points : int;  (** store-granular, fence and labeled hook points *)
  fences : int;  (** sfences of one uninterrupted run of the work *)
  images : int;  (** crash images explored (recoveries performed) *)
  max_pending : int;  (** largest unpersisted-line set at any point *)
  failures : (string * Check.violation list) list;
      (** crash images whose post-recovery check failed, labeled
          ["<point> keep={lines}"] *)
}

type point =
  | Store of int  (** crash before the [n]-th store (1-based) *)
  | Fence of int  (** crash at the [n]-th sfence, before it commits *)
  | Hook of string * int  (** crash at n-th firing of a label *)

let point_label = function
  | Store n -> Printf.sprintf "store:%d" n
  | Fence n -> Printf.sprintf "fence:%d" n
  | Hook (l, n) -> Printf.sprintf "hook:%s#%d" l n

(* -- the explorer config ----------------------------------------------- *)

(** How the explored file system is formatted.  [scaled] turns on the
    scalability protocol (resolve cache, allocator caches, posted
    rename-log writes), [range] the byte-range data-path locks, [ring]
    the rename-log ring size (1 = the paper's single log entry) and
    [secure] the security plane.  The format word records them, so
    recovery and post-crash traffic run through the configured paths. *)
type config = { scaled : bool; range : bool; ring : int; secure : bool }

let plain = { scaled = false; range = false; ring = 1; secure = false }
let striped = { plain with scaled = true }
let ranged = { striped with range = true }

let mkfs ?(cores = 2) c region =
  Fs.mkfs ~cores ~euid:0 ~scaled:c.scaled ~range_locks:c.range
    ~log_ring:c.ring ~secure:c.secure region

(* Mount a fresh FS handle on [region] as a new "process" would: the
   shared volatile state is discarded (a crash wiped DRAM) and rebuilt
   from NVMM, so the image must have been unmounted cleanly or
   recovered. *)
let mount region =
  Fs.invalidate_shared region;
  (* a dead process's page-table mappings die with it: if the crashed
     mount had guarded the region (secure mode), the new process starts
     unguarded until it installs its own protection *)
  Region.clear_guard region;
  Fs.mount ~euid:0 region

let default_size = 4 lsl 20

(* -- the driver ---------------------------------------------------------

   A unit of work is [start : unit -> (string -> unit) -> unit]: [start ()]
   mounts (or otherwise prepares) without observation and returns a
   closure that runs the work, calling the hook at each labeled point.
   Store hooks are armed only after [start ()] returns, so the mount's
   own stores are never crash points. *)

let clear_hooks regions =
  Array.iter
    (fun r ->
      Region.clear_store_hook r;
      Region.clear_fence_hook r)
    regions

(** Every crash point of the work: one per NVMM store across [regions]
    (the work is single-threaded, so a global store count is a stable
    address), one per sfence, then every labeled hook firing. *)
let points regions start =
  let work = start () in
  let stores = ref 0 and fences = ref 0 in
  let hooks = ref [] and fired = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      Region.set_store_hook r (fun () -> incr stores);
      Region.set_fence_hook r (fun () -> incr fences))
    regions;
  Fun.protect
    ~finally:(fun () -> clear_hooks regions)
    (fun () ->
      work (fun label ->
          let n = 1 + Option.value ~default:0 (Hashtbl.find_opt fired label) in
          Hashtbl.replace fired label n;
          hooks := Hook (label, n) :: !hooks));
  List.init !stores (fun i -> Store (i + 1))
  @ List.init !fences (fun i -> Fence (i + 1))
  @ List.rev !hooks

(** Run the work up to [point] and stop there, as a power failure would.
    A point past the work's end (a hook that did not fire) runs it to
    completion: still explored. *)
let crash_at regions start point =
  let work = start () in
  let k = ref 0 in
  let fire n =
    incr k;
    if !k = n then raise Crash_now
  in
  let hook =
    match point with
    | Store n ->
        Array.iter (fun r -> Region.set_store_hook r (fun () -> fire n)) regions;
        ignore
    | Fence n ->
        Array.iter (fun r -> Region.set_fence_hook r (fun () -> fire n)) regions;
        ignore
    | Hook (label, n) -> fun l -> if l = label then fire n
  in
  Fun.protect
    ~finally:(fun () -> clear_hooks regions)
    (fun () -> try work hook with Crash_now -> ())

(** The unpersisted lines of every region, tagged [(region, line)]. *)
let pending regions =
  Array.concat
    (Array.to_list
       (Array.mapi
          (fun i r ->
            Array.of_list (List.map (fun ln -> (i, ln)) (Region.pending_lines r)))
          regions))

(** The eviction adversary: call [f keep] once per crash image, where
    [keep] tells which [pending] lines were already durable.  Every
    subset when at most [max_exhaustive] lines are pending ([2^n]
    images), otherwise drop-all, keep-all and [samples]-2 subsets drawn
    from [rng]. *)
let each_image rng ~max_exhaustive ~samples pending f =
  let subset pick =
    let keep = Hashtbl.create 16 in
    Array.iteri (fun i ln -> if pick i then Hashtbl.replace keep ln ()) pending;
    f (Hashtbl.mem keep)
  in
  let n = Array.length pending in
  if n <= max_exhaustive then
    for mask = 0 to (1 lsl n) - 1 do
      subset (fun i -> mask land (1 lsl i) <> 0)
    done
  else begin
    f (fun _ -> false);
    f (fun _ -> true);
    for _ = 3 to samples do
      subset (fun _ -> Simurgh_sim.Rng.int rng 2 = 1)
    done
  end

(* Restore [cps] and apply the crash image [keep]: the volatile state of
   every region is gone with the power. *)
let crash_image regions cps keep =
  Array.iteri
    (fun i r ->
      Region.restore r cps.(i);
      Region.crash_image r ~keep:(fun ln -> keep (i, ln));
      Fs.invalidate_shared r;
      Region.clear_guard r)
    regions

(* "keep={...}": the kept lines, region-tagged only across regions *)
let keep_label regions pending keep =
  let line (i, ln) =
    if Array.length regions > 1 then Printf.sprintf "%d:%d" i ln
    else string_of_int ln
  in
  Printf.sprintf "keep={%s}"
    (Array.to_list pending |> List.filter keep |> List.map line
   |> String.concat ",")

(** Pending lines up to which a crash point's eviction subsets are all
    explored; past it they are sampled. *)
let max_exhaustive = 10

(** [explore ~regions ~mount ~fss op] explores [op] over the set-up
    [regions].  [mount ()] attaches a fresh handle, [fss] lists its
    per-region FS handles (whose crash hooks label the points; labels
    get a ["<region>:"] tag when there are several regions).  Each image
    is recovered with {!Recovery.run_all}, checked with
    {!Check.run_all} and, when clean, handed to [verify] on a fresh
    mount. *)
let explore ?(seed = 7L) ?(max_exhaustive = max_exhaustive) ?(samples = 64)
    ~regions ~mount ~fss ?verify op =
  (* the operation's own writes must be the only unpersisted lines at
     the crash point; drain everything setup left behind (e.g. zeroed
     directory-block tails that were never clwb'd) *)
  Array.iter Region.persist_all regions;
  let cp0 = Array.map Region.checkpoint regions in
  let tag = Array.length regions > 1 in
  let start () =
    let h = mount () in
    fun hook ->
      Array.iteri
        (fun i fs ->
          Fs.set_crash_hook fs
            (if tag then fun l -> hook (Printf.sprintf "%d:%s" i l) else hook))
        (fss h);
      op h
  in
  let points = points regions start in
  let rng = Simurgh_sim.Rng.create seed in
  let images = ref 0 and max_pending = ref 0 and failures = ref [] in
  List.iter
    (fun point ->
      Array.iteri (fun i r -> Region.restore r cp0.(i)) regions;
      crash_at regions start point;
      let pending = pending regions in
      max_pending := max !max_pending (Array.length pending);
      let cp = Array.map Region.checkpoint regions in
      each_image rng ~max_exhaustive ~samples pending (fun keep ->
          incr images;
          crash_image regions cp keep;
          let fail viols =
            failures :=
              ( Printf.sprintf "%s %s" (point_label point)
                  (keep_label regions pending keep),
                viols )
              :: !failures
          in
          match Recovery.run_all regions with
          | _ -> (
              match Check.run_all regions with
              | [] -> (
                  match verify with
                  | None -> ()
                  | Some v -> (
                      try v (mount ())
                      with e ->
                        fail
                          [ Check.Structure ("verify: " ^ Printexc.to_string e) ]
                      ))
              | viols -> fail (List.map snd viols))
          | exception e ->
              failures :=
                ( Printf.sprintf "%s: recovery raised %s" (point_label point)
                    (Printexc.to_string e),
                  [] )
                :: !failures))
    points;
  {
    crash_points = List.length points;
    fences =
      List.length (List.filter (function Fence _ -> true | _ -> false) points);
    images = !images;
    max_pending = !max_pending;
    failures = List.rev !failures;
  }

(** One Strict region formatted with [config]: the single-region
    explorer. *)
let run ?seed ?max_exhaustive ?samples ?(size = default_size)
    ?(config = plain) ?verify ~setup ~op () =
  let region = Region.create ~mode:Region.Strict size in
  let fs = mkfs config region in
  setup fs;
  Fs.unmount fs;
  explore ?seed ?max_exhaustive ?samples ~regions:[| region |]
    ~mount:(fun () -> mount region)
    ~fss:(fun fs -> [| fs |])
    ?verify op

(** [run_multi ~regions ~setup ~op ()] is {!run} lifted to a sharded
    namespace: the operation runs against a {!Shard.t} over [regions]
    Strict regions, so an image can lose lines on the source region of a
    cross-region rename while keeping them on the destination, and vice
    versa.  Each region recovers as its own crash domain. *)
let run_multi ?seed ?max_exhaustive ?samples ?(size = default_size)
    ?(regions = 2) ?verify ~setup ~op () =
  let sh0 = Shard.mkfs ~mode:Region.Strict ~obs:false ~regions ~euid:0 size in
  let rs = Shard.regions sh0 in
  setup sh0;
  Shard.unmount sh0;
  explore ?seed ?max_exhaustive ?samples ~regions:rs
    ~mount:(fun () ->
      Array.iter Fs.invalidate_shared rs;
      Shard.mount ~obs:false ~euid:0 rs)
    ~fss:(fun sh -> Array.init regions (Shard.fs_of sh))
    ?verify op

(* -- crash-during-recovery re-entrancy -------------------------------- *)

type reentrant_stats = {
  recovery_points : int;  (** mid-recovery crash points explored *)
  reentry_images : int;  (** crash images re-entered through recovery *)
  max_passes : int;
      (** most recovery passes any image needed to reach a media
          fixpoint (2 = idempotent: the second pass only confirms) *)
  reentry_failures : string list;
      (** images that diverged, raised, or failed the offline checker *)
}

(* [count] points strided over 1..[total] *)
let strided ~count total =
  let st = max 1 (total / max 1 count) in
  List.init count (fun i -> 1 + (i * st))
  |> List.filter (fun p -> p <= total)
  |> List.sort_uniq compare

let stores points =
  List.length (List.filter (function Store _ -> true | _ -> false) points)

(** [run_reentrant ~setup ~op ()] crashes recovery {e itself} and
    re-enters it.  For a strided sample of the operation's store points
    it takes the dirtiest crash image (every unpersisted line dropped),
    discovers recovery's own crash points — strided NVMM stores plus
    first/middle/last firing of every labeled {!Recovery} hook
    (pending-log resolution, mark repairs, quarantine detaches, sweep
    frees) — then crashes recovery at each, enumerates eviction subsets
    of recovery's unpersisted lines exactly like {!explore}, and re-runs
    recovery on every image until the durable media digest reaches a
    fixpoint.  Convergence must take at most 4 passes (idempotence
    predicts 2: repair, then confirm) and every terminal image must pass
    {!Check.run}. *)
let run_reentrant ?(seed = 11L) ?(max_exhaustive = 8) ?(samples = 12)
    ?(size = default_size) ?(op_points = 5) ?(rec_stores = 8) ~setup ~op () =
  let region = Region.create ~mode:Region.Strict size in
  let regions = [| region |] in
  let fs = mkfs plain region in
  setup fs;
  Fs.unmount fs;
  Region.persist_all region;
  let cp0 = Region.checkpoint region in
  let start_op () =
    let fs = mount region in
    fun hook ->
      Fs.set_crash_hook fs hook;
      op fs
  in
  let start_recovery () =
    Fs.invalidate_shared region;
    fun crash_hook -> ignore (Recovery.run ~crash_hook region)
  in
  let op_crashes = strided ~count:op_points (stores (points regions start_op)) in

  let rng = Simurgh_sim.Rng.create seed in
  let rec_points = ref 0 in
  let images = ref 0 in
  let max_passes = ref 0 in
  let failures = ref [] in

  List.iter
    (fun opn ->
      (* 1. crash the op at store [opn]; drop every unpersisted line —
            the dirtiest image recovery can be handed *)
      Region.restore region cp0;
      crash_at regions start_op (Store opn);
      Region.crash_image region ~keep:(fun _ -> false);
      let cp_dirty = Region.checkpoint region in

      (* 2. discover recovery's own crash points on the dirty image *)
      let rpoints = points regions start_recovery in
      let store_pts =
        List.map (fun n -> Store n) (strided ~count:rec_stores (stores rpoints))
      in
      let hook_pts =
        let fires = Hashtbl.create 8 in
        List.iter
          (function Hook (l, n) -> Hashtbl.replace fires l n | _ -> ())
          rpoints;
        Hashtbl.fold
          (fun label fires acc ->
            List.map
              (fun n -> Hook (label, n))
              (List.sort_uniq compare [ 1; (fires + 1) / 2; fires ])
            @ acc)
          fires []
        |> List.sort compare
      in

      (* 3. crash recovery at each point; re-enter on every eviction
            subset of its unpersisted lines; require media fixpoint and
            a clean checker *)
      List.iter
        (fun point ->
          incr rec_points;
          Region.restore region cp_dirty;
          crash_at regions start_recovery point;
          let pending = pending regions in
          let cp_crash = [| Region.checkpoint region |] in
          each_image rng ~max_exhaustive ~samples pending (fun keep ->
              incr images;
              crash_image regions cp_crash keep;
              let label () =
                Printf.sprintf "op-store:%d %s %s" opn (point_label point)
                  (keep_label regions pending keep)
              in
              let rec fix prev passes =
                if passes > 4 then Error "no media fixpoint after 4 passes"
                else begin
                  Fs.invalidate_shared region;
                  Region.clear_guard region;
                  ignore (Recovery.run region);
                  Region.persist_all region;
                  let d = Region.media_digest region in
                  if prev = Some d then Ok passes else fix (Some d) (passes + 1)
                end
              in
              match fix None 1 with
              | Ok passes -> (
                  if passes > !max_passes then max_passes := passes;
                  match Check.run region with
                  | [] -> ()
                  | v :: _ as viols ->
                      failures :=
                        Printf.sprintf "%s: %d checker violations (%s)"
                          (label ()) (List.length viols)
                          (Format.asprintf "%a" Check.pp_violation v)
                        :: !failures)
              | Error msg -> failures := (label () ^ ": " ^ msg) :: !failures
              | exception e ->
                  failures :=
                    (label () ^ ": recovery raised " ^ Printexc.to_string e)
                    :: !failures))
        (store_pts @ hook_pts))
    op_crashes;
  {
    recovery_points = !rec_points;
    reentry_images = !images;
    max_passes = !max_passes;
    reentry_failures = List.rev !failures;
  }

(* -- the Fig. 5 crash machines ------------------------------------------ *)

(** One explored state machine: [setup] builds the pre-state, [op] is
    the operation crashed at every point, [verify] is the atomicity
    oracle every recovered image must pass. *)
type 'fs steps = {
  setup : 'fs -> unit;
  op : 'fs -> unit;
  verify : 'fs -> unit;
}

type machine = { name : string; config : config; steps : target }

and target =
  | Single of Fs.t steps  (** one region formatted with [config] *)
  | Sharded of Shard.t steps  (** a plain 2-region shard *)

(* create/unlink/rename/cross-rename are Fig. 5's four state machines *)
let create =
  {
    setup = (fun fs -> Fs.mkdir fs "/d");
    op = (fun fs -> Fs.create_file fs "/d/f");
    verify =
      (fun fs ->
        (* the file exists as a valid file or not at all; a retry must
           succeed either way *)
        match Fs.stat fs "/d/f" with
        | st -> if st.Types.kind <> Types.File then failwith "create: not a file"
        | exception Errno.Err (ENOENT, _) -> Fs.create_file fs "/d/f");
  }

let unlink =
  {
    setup =
      (fun fs ->
        Fs.mkdir fs "/d";
        Fs.create_file fs "/d/f");
    op = (fun fs -> Fs.unlink fs "/d/f");
    verify =
      (fun fs ->
        if Fs.exists fs "/d/f" then Fs.unlink fs "/d/f";
        Fs.create_file fs "/d/f");
  }

(* exactly one of [a] and [b] names the file *)
let one_of exists a b fs =
  let x = exists fs a and y = exists fs b in
  if x = y then failwith (Printf.sprintf "not atomic: %s=%b %s=%b" a x b y)

let rename =
  {
    setup =
      (fun fs ->
        Fs.mkdir fs "/d";
        Fs.create_file fs "/d/old");
    op = (fun fs -> Fs.rename fs "/d/old" "/d/new");
    verify = one_of Fs.exists "/d/old" "/d/new";
  }

let xrename =
  {
    setup =
      (fun fs ->
        Fs.mkdir fs "/d";
        Fs.mkdir fs "/e";
        Fs.create_file fs "/d/m");
    op = (fun fs -> Fs.rename fs "/d/m" "/e/m2");
    verify = one_of Fs.exists "/d/m" "/e/m2";
  }

(* The data path, under the file lock or the byte-range locks: the
   data epoch (staged extent slots, hole and payload) and the
   append/extend publish point.  The size is either the old or the new
   value (the publish is a single 8-aligned u62 store),
   and a published size never covers bytes whose stores had not retired
   — no torn data, and a hole left by a past-EOF write reads back as
   zeros. *)
let page = 4096

let read_file fs path =
  let st = Fs.stat fs path in
  let fd = Fs.openf fs Types.rdonly path in
  let b = Fs.pread fs fd ~pos:0 ~len:st.Types.size in
  Fs.close fs fd;
  b

let expect_uniform b ~pos ~len c ~what =
  for i = pos to pos + len - 1 do
    if Bytes.get b i <> c then
      failwith
        (Printf.sprintf "%s: byte %d is %C, want %C" what i (Bytes.get b i) c)
  done

let one_page_setup fs =
  let fd = Fs.openf fs (Types.creat Types.rdwr) "/f" in
  ignore (Fs.pwrite fs fd ~pos:0 (Bytes.make page 'a'));
  Fs.close fs fd

(* [write fs fd] grows the one-page file to [pages] pages whose tail
   page is [c]; any page in between is a hole *)
let grow ~pages ~c write =
  {
    setup = one_page_setup;
    op =
      (fun fs ->
        let fd = Fs.openf fs Types.rdwr "/f" in
        ignore (write fs fd (Bytes.make page c));
        Fs.close fs fd);
    verify =
      (fun fs ->
        let got = read_file fs "/f" in
        (match Bytes.length got with
        | n when n = page -> ()
        | n when n = pages * page ->
            expect_uniform got ~pos:page ~len:((pages - 2) * page) '\000'
              ~what:"hole";
            expect_uniform got ~pos:((pages - 1) * page) ~len:page c
              ~what:"published bytes"
        | n ->
            failwith
              (Printf.sprintf "size %d, want %d or %d" n page (pages * page)));
        expect_uniform got ~pos:0 ~len:page 'a' ~what:"pre-crash prefix");
  }

(* An append past a file whose inline extent slots are all full: its
   allocation links a new overflow block (zeroed and persisted first)
   and stages the extent in it.  The setup fills slots 1-3 with
   fallocates one block past the mapped capacity, each taking one slack
   allocation, then sets the size to the capacity. *)
let spill_append =
  let slack fs = Fs.append_slack_blocks * Fs.block_size fs in
  let cap fs = page + (3 * slack fs) in
  {
    setup =
      (fun fs ->
        one_page_setup fs;
        let fd = Fs.openf fs Types.rdwr "/f" in
        for k = 0 to 2 do
          Fs.fallocate fs fd ~len:(page + (k * slack fs) + Fs.block_size fs)
        done;
        Fs.fallocate fs fd ~len:(cap fs);
        Fs.close fs fd;
        let inode = (Fs.stat fs "/f").Types.ino in
        let region = (Fs.layout fs).Layout.region in
        if
          fst (Inode.read_extent region inode (Inode.inline_extents - 1)) = 0
          || Region.read_u62 region (Inode.f_overflow inode) <> 0
        then failwith "spill-append: setup did not fill the inline slots");
    op =
      (fun fs ->
        let fd = Fs.openf fs Types.rdwr "/f" in
        ignore (Fs.append fs fd (Bytes.make page 'c'));
        Fs.close fs fd);
    verify =
      (fun fs ->
        let size = (Fs.stat fs "/f").Types.size and old = cap fs in
        if size = old + page then begin
          let fd = Fs.openf fs Types.rdonly "/f" in
          let got = Fs.pread fs fd ~pos:old ~len:page in
          Fs.close fs fd;
          expect_uniform got ~pos:0 ~len:page 'c' ~what:"published bytes"
        end
        else if size <> old then
          failwith
            (Printf.sprintf "size %d, want %d or %d" size old (old + page)));
  }

(* a top-level dir name that routes to region [r] of a 2-region shard *)
let shard_dir r =
  let rec go i =
    let n = Printf.sprintf "d%d_%d" r i in
    if Name_hash.home n ~regions:2 = r then n else go (i + 1)
  in
  "/" ^ go 0

let xfile_bytes = 256

(* Cross-region rename: the source is unlinked last, so once it is gone
   the destination is complete. *)
let xregion_rename =
  let d0 = shard_dir 0 and d1 = shard_dir 1 in
  let src = d0 ^ "/m" and dst = d1 ^ "/m2" in
  {
    setup =
      (fun sh ->
        Shard.mkdir sh d0;
        Shard.mkdir sh d1;
        let fd = Shard.openf sh (Types.creat Types.rdwr) src in
        ignore (Shard.pwrite sh fd ~pos:0 (Bytes.make xfile_bytes 'x'));
        Shard.close sh fd);
    op = (fun sh -> Shard.rename sh src dst);
    verify =
      (fun sh ->
        if not (Shard.exists sh src) then begin
          let st = Shard.stat sh dst in
          if st.Types.size <> xfile_bytes then
            failwith
              (Printf.sprintf "dest size %d after source unlink, want %d"
                 st.Types.size xfile_bytes);
          let fd = Shard.openf sh Types.rdonly dst in
          let got = Shard.pread sh fd ~pos:0 ~len:xfile_bytes in
          Shard.close sh fd;
          Bytes.iter
            (fun c -> if c <> 'x' then failwith "torn dest after unlink")
            got
        end);
  }

(* One create on each region: each file exists whole or not at all. *)
let xregion_create =
  let files = [ shard_dir 0 ^ "/a"; shard_dir 1 ^ "/b" ] in
  {
    setup =
      (fun sh ->
        Shard.mkdir sh (shard_dir 0);
        Shard.mkdir sh (shard_dir 1));
    op = (fun sh -> List.iter (Shard.create_file sh) files);
    verify =
      (fun sh ->
        List.iter
          (fun f ->
            match Shard.stat sh f with
            | st ->
                if st.Types.kind <> Types.File then failwith (f ^ ": not a file")
            | exception Errno.Err (ENOENT, _) -> Shard.create_file sh f)
          files);
  }

(** Every explored crash machine: Fig. 5's four state machines (one
    directory protocol on every format: the striped insert and the
    reserve-then-log rename window), the mutating ones again with the
    scalability features on (per-thread allocator caches, resolve
    cache, posted log writes), the renames on log-ring media (any ring slot may be left
    pending), the data path's append and extending pwrite (default and
    byte-range locking) and an append that links an overflow extent
    block, and the sharded cross-region rename and creates. *)
let machines =
  let fs name config s = { name; config; steps = Single s } in
  let ring = { striped with ring = 4 } in
  let append = grow ~pages:2 ~c:'b' (fun fs fd b -> Fs.append fs fd b) in
  let extend =
    grow ~pages:3 ~c:'c' (fun fs fd b -> Fs.pwrite fs fd ~pos:(2 * page) b)
  in
  [
    fs "create" plain create;
    fs "unlink" plain unlink;
    fs "rename" plain rename;
    fs "cross-rename" plain xrename;
    fs "striped-create" striped create;
    fs "striped-rename" striped rename;
    fs "striped-xrename" striped xrename;
    fs "ring-rename" ring rename;
    fs "ring-xrename" ring xrename;
    fs "append" plain append;
    fs "extend" plain extend;
    fs "range-append" ranged append;
    fs "range-extend" ranged extend;
    fs "spill-append" plain spill_append;
    { name = "xregion-rename"; config = plain; steps = Sharded xregion_rename };
    { name = "xregion-create"; config = plain; steps = Sharded xregion_create };
  ]

let run_machine ?samples m =
  match m.steps with
  | Single s ->
      run ?samples ~config:m.config ~setup:s.setup ~op:s.op ~verify:s.verify ()
  | Sharded s -> run_multi ?samples ~setup:s.setup ~op:s.op ~verify:s.verify ()

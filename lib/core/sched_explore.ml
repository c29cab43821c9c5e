(** Systematic schedule exploration with race detection — the
    concurrency twin of the crash-image explorer ({!Explore}).

    One {e scenario} is an FS state machine (create / unlink / rename /
    read-write): a setup phase, then one body per simulated thread.  The
    explorer runs the bodies as preemptible fibers
    ({!Simurgh_sim.Engine.explore}): at every lock acquire/release,
    atomic, NVMM store and persist barrier a {!Simurgh_sim.Schedule}
    policy picks freely among runnable threads.  Schedules are drawn the
    same way {!Explore} draws crash images: systematic depth-first
    enumeration for the small two-thread scenarios, seeded random
    sampling beyond, each run restarting from a checkpoint of the
    post-setup region.

    Two oracles judge every schedule:

    + {b result invariance}: a recursive namespace snapshot (sorted
      entries, kinds, sizes) must be identical across all schedules of a
      scenario — the decentralized locking must serialize to the same
      final state no matter the interleaving;
    + {b fsck-cleanliness}: the offline checker ({!Check.run}) must
      report zero violations after every schedule.

    In parallel, a happens-before race detector
    ({!Simurgh_sim.Race}) watches every region access through the
    region's trace hooks; its sync edges come from the
    {!Simurgh_sim.Vlock} acquires/releases and sfence barriers the
    workload actually performs.  The default scenarios give each thread
    a private directory — Simurgh's decentralized target workload
    (fxmark private mode); shared state is then exactly the allocators
    and lock registries, all lock-protected, so the detector must stay
    silent.  A shared-directory scenario additionally exercises the
    lock-free lookup path, whose by-design benign races (8-byte atomic
    slot reads against in-progress inserts on real hardware) are
    reported separately and informationally.  {!negative_control}
    proves the detector is live: two fibers storing to the same word
    with no lock must be flagged. *)

open Simurgh_fs_common
module Region = Simurgh_nvmm.Region
module Engine = Simurgh_sim.Engine
module Schedule = Simurgh_sim.Schedule
module Race = Simurgh_sim.Race
module Machine = Simurgh_sim.Machine
module Sthread = Simurgh_sim.Sthread

type scenario = {
  name : string;
  threads : int;
  config : Explore.config;
      (** how the region is formatted: the scaled, byte-range and
          log-ring gates are base scenarios run under
          {!Explore.striped}, {!Explore.ranged} or a ring config *)
  invariant : bool;
      (** assert the namespace snapshot identical across schedules.
          Off for scenarios whose outcome legitimately depends on the
          serialization order (append racing truncate); [check_final]
          then carries the correctness burden alone *)
  check_final : (Fs.t -> string option) option;
      (** extra per-schedule oracle on the final state: [Some msg] is a
          failure.  Runs on every schedule, invariant or not *)
  setup : Fs.t -> unit;
  body : tid:int -> site:(string -> unit) -> Fs.t -> Machine.ctx -> unit;
      (** one simulated thread's work; [site] labels the current
          operation for race reports *)
}

let scenario ?(config = Explore.plain) ?(invariant = true) ?check_final
    ~threads name ~setup body =
  { name; threads; config; invariant; check_final; setup; body }

type stats = {
  scenario : string;
  schedules : int;  (** interleavings executed *)
  distinct : int;  (** distinct pick sequences among them (trace hash) *)
  exhaustive : bool;  (** DFS enumerated the whole tree within budget *)
  yields : int;  (** preemption points offered, summed over schedules *)
  switches : int;  (** scheduling decisions, summed over schedules *)
  failures : (string * string) list;
      (** (schedule label, detail): snapshot divergence, checker
          violations, or an exception/deadlock during the run *)
  races : Race.report list;  (** deduplicated race reports *)
  lines_tracked : int;  (** max cache lines tracked in one schedule *)
  accesses : int;  (** region accesses tracked, summed over schedules *)
}

(* --- oracle: recursive namespace snapshot ------------------------------ *)

let rec snapshot_dir fs path acc =
  let names = List.sort compare (Fs.readdir fs path) in
  List.fold_left
    (fun acc n ->
      let p = if path = "/" then "/" ^ n else path ^ "/" ^ n in
      let st = Fs.stat fs p in
      let line =
        Printf.sprintf "%s %s %d" p
          (match st.Types.kind with
          | Types.File -> "f"
          | Types.Dir -> "d"
          | Types.Symlink -> "l")
          st.Types.size
      in
      if st.Types.kind = Types.Dir then snapshot_dir fs p (line :: acc)
      else line :: acc)
    acc names

let snapshot fs = String.concat "\n" (List.rev (snapshot_dir fs "/" []))

(* --- race detection --------------------------------------------------- *)

(* [let watched, reports = race_log ()]: [watched region race f] runs
   [f] with [race] active, watching every access and fence of [region].
   A store yields before its bytes change, so another thread can slip
   in between intent and store, and is recorded atomically with it; a
   fence is a persist point and a happens-before edge.  The run's
   reports join [reports ()], deduplicated by (line, site, site). *)
let race_log () =
  let seen = Hashtbl.create 16 and all = ref [] in
  let collect race =
    List.iter
      (fun (r : Race.report) ->
        let k = (r.Race.line, r.Race.site_a, r.Race.site_b) in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.replace seen k ();
          all := r :: !all
        end)
      (Race.reports race)
  in
  let watched region race f =
    Region.set_access_hook region (fun ~off ~len ~write ->
        if write then Schedule.point Schedule.Store;
        Race.on_access ~off ~len ~write);
    Region.set_fence_hook region (fun () ->
        Schedule.point Schedule.Persist;
        Race.on_fence ());
    Fun.protect
      ~finally:(fun () ->
        Region.clear_access_hook region;
        Region.clear_fence_hook region;
        collect race)
      (fun () -> Race.with_active race f)
  in
  (watched, fun () -> List.rev !all)

(* --- the explorer ------------------------------------------------------ *)

let run ?(seed = 11L) ?(budget = 128) ?(size = Explore.default_size) sc =
  let threads = sc.threads in
  let region = Region.create size in
  let fs = Explore.mkfs ~cores:threads sc.config region in
  sc.setup fs;
  Fs.unmount fs;
  Region.persist_all region;
  let cp0 = Region.checkpoint region in

  let yields = ref 0 and switches = ref 0 in
  let hashes = Hashtbl.create (2 * budget) in
  let failures = ref [] in
  let watched, races = race_log () in
  let lines_tracked = ref 0 and accesses = ref 0 in
  let reference = ref None in
  let schedules = ref 0 in

  let run_one label policy =
    incr schedules;
    Region.restore region cp0;
    let fs = Explore.mount region in
    let machine = Machine.create () in
    let race = Race.create ~threads in
    (* the block allocator's persistent segment lock words are read
       lock-free by the crash-detection scan — synchronization
       internals, not data *)
    Simurgh_alloc.Block_alloc.iter_lock_words
      (Fs.layout fs).Layout.balloc
      (fun ~off ~len -> Race.exclude race ~off ~len);
    let bodies =
      Array.init threads (fun tid () ->
          let thr = Sthread.create ~seed tid in
          let ctx = Machine.ctx machine thr in
          sc.body ~tid ~site:(fun s -> Race.set_site race ~tid s) fs ctx)
    in
    (match watched region race (fun () -> Engine.explore ~schedule:policy bodies)
     with
    | (o : Engine.explore_outcome) ->
        yields := !yields + o.Engine.yields;
        switches := !switches + o.Engine.switches;
        Hashtbl.replace hashes o.Engine.trace_hash ()
    | exception e ->
        failures := (label, "run: " ^ Printexc.to_string e) :: !failures;
        Hashtbl.replace hashes (Hashtbl.hash label) ());
    lines_tracked := max !lines_tracked (Race.lines_tracked race);
    accesses := !accesses + Race.accesses race;
    (* oracles: same final namespace (when the scenario promises it),
       the scenario's own final-state predicate, clean fsck — on every
       schedule *)
    (if sc.invariant then
       match snapshot fs with
       | snap -> (
           match !reference with
           | None -> reference := Some snap
           | Some r ->
               if r <> snap then
                 failures :=
                   ( label,
                     Printf.sprintf "result diverged:\n%s\n-- want --\n%s" snap
                       r )
                   :: !failures)
       | exception e ->
           failures := (label, "snapshot: " ^ Printexc.to_string e) :: !failures);
    (match sc.check_final with
    | None -> ()
    | Some f -> (
        match f fs with
        | None -> ()
        | Some msg -> failures := (label, "final state: " ^ msg) :: !failures
        | exception e ->
            failures := (label, "final state: " ^ Printexc.to_string e)
                        :: !failures));
    match Check.run region with
    | [] -> ()
    | viols ->
        failures :=
          ( label,
            "fsck: "
            ^ String.concat "; " (List.map Check.violation_to_string viols) )
          :: !failures
  in

  (* systematic DFS for half the budget (small scenarios often exhaust
     it), seeded random sampling for the rest *)
  let dfs = Schedule.Dfs.create () in
  let dfs_budget = if threads <= 2 then (budget + 1) / 2 else 0 in
  let cont = ref (dfs_budget > 0) in
  let i = ref 0 in
  while !cont && !i < dfs_budget do
    Schedule.Dfs.start dfs;
    run_one (Printf.sprintf "%s/dfs%d" sc.name !i) (Schedule.driven dfs);
    cont := Schedule.Dfs.advance dfs;
    incr i
  done;
  let exhaustive = dfs_budget > 0 && Schedule.Dfs.exhausted dfs in
  let remaining = budget - !schedules in
  for j = 0 to remaining - 1 do
    run_one
      (Printf.sprintf "%s/rnd%d" sc.name j)
      (Schedule.random (Int64.add seed (Int64.of_int ((j * 7919) + 13))))
  done;
  {
    scenario = sc.name;
    schedules = !schedules;
    distinct = Hashtbl.length hashes;
    exhaustive;
    yields = !yields;
    switches = !switches;
    failures = List.rev !failures;
    races = races ();
    lines_tracked = !lines_tracked;
    accesses = !accesses;
  }

(* --- the default FS state machines ------------------------------------- *)

(* Each thread works in its own directory (fxmark-private, the paper's
   decentralized target): cross-thread shared state is exactly the
   metadata allocators, lock registries and the root directory — all of
   it lock-protected or read-only, so zero race reports are required. *)

let tdir tid = Printf.sprintf "/t%d" tid

let mk_private_dirs threads fs =
  for tid = 0 to threads - 1 do
    Fs.mkdir fs (tdir tid)
  done

let create_scenario ~threads =
  scenario ~threads "create" ~setup:(mk_private_dirs threads)
    (fun ~tid ~site fs ctx ->
      site "create";
      Fs.create_file ~ctx fs (tdir tid ^ "/a");
      Fs.create_file ~ctx fs (tdir tid ^ "/b"))

let unlink_scenario ~threads =
  scenario ~threads "unlink"
    ~setup:(fun fs ->
      mk_private_dirs threads fs;
      for tid = 0 to threads - 1 do
        Fs.create_file fs (tdir tid ^ "/a");
        Fs.create_file fs (tdir tid ^ "/b")
      done)
    (fun ~tid ~site fs ctx ->
      site "unlink";
      Fs.unlink ~ctx fs (tdir tid ^ "/a");
      Fs.unlink ~ctx fs (tdir tid ^ "/b"))

let rename_scenario ~threads =
  scenario ~threads "rename"
    ~setup:(fun fs ->
      for tid = 0 to threads - 1 do
        Fs.mkdir fs (tdir tid);
        Fs.mkdir fs (Printf.sprintf "/u%d" tid);
        Fs.create_file fs (tdir tid ^ "/a")
      done)
    (fun ~tid ~site fs ctx ->
      site "rename";
      Fs.rename ~ctx fs (tdir tid ^ "/a") (tdir tid ^ "/b");
      site "xrename";
      Fs.rename ~ctx fs (tdir tid ^ "/b") (Printf.sprintf "/u%d/c" tid))

let rw_scenario ~threads =
  scenario ~threads "read-write"
    ~setup:(fun fs ->
      mk_private_dirs threads fs;
      for tid = 0 to threads - 1 do
        Fs.create_file fs (tdir tid ^ "/f")
      done)
    (fun ~tid ~site fs ctx ->
      site "open";
      let fd = Fs.openf ~ctx fs Types.rdwr (tdir tid ^ "/f") in
      site "append";
      ignore (Fs.append ~ctx fs fd (Bytes.make 200 (Char.chr (97 + tid))));
      site "pread";
      let got = Fs.pread ~ctx fs fd ~pos:0 ~len:200 in
      if Bytes.length got <> 200 || Bytes.get got 0 <> Char.chr (97 + tid)
      then failwith "read-write scenario: wrong data read back";
      site "close";
      Fs.close ~ctx fs fd)

(* Shared-directory variant: disjoint names in ONE directory, so the
   per-row spin locks, the append lock and the lock-free lookup path all
   see real cross-thread traffic.  The result oracle still holds (name
   sets are disjoint); race reports are expected occasionally — the
   lock-free resolve reads a dirblock row another thread may be
   inserting into, Simurgh's by-design benign race (atomic 8-byte slot
   publish on real hardware) — and are reported, not asserted zero. *)
let shared_scenario ~threads =
  scenario ~threads "shared-dir"
    ~setup:(fun fs -> Fs.mkdir fs "/s")
    (fun ~tid ~site fs ctx ->
      let f i = Printf.sprintf "/s/f%d_%d" tid i in
      site "create";
      Fs.create_file ~ctx fs (f 0);
      Fs.create_file ~ctx fs (f 1);
      site "append";
      let fd = Fs.openf ~ctx fs Types.rdwr (f 0) in
      ignore (Fs.append ~ctx fs fd (Bytes.make 64 'x'));
      Fs.close ~ctx fs fd;
      site "unlink";
      Fs.unlink ~ctx fs (f 1))

(* --- shared-directory scenarios ------------------------------------------ *)

(* The shared-directory paths need names with controlled hash rows:
   deterministically probe until one lands in [row]. *)
let name_in_row ~row i =
  let rec go j =
    let n = Printf.sprintf "r%d_%d_%d" row i j in
    if Dirblock.lock_row_of_name n = row then n else go (j + 1)
  in
  go 0

(* Concurrent creates in ONE directory, each thread in its own hash row:
   the per-row spin and append locks (plus, when scaled, the per-thread
   allocator caches and the resolve cache) see real cross-thread
   traffic, yet every access is lock-ordered — zero races required.
   Rows stay under 8 entries, so the chain never grows (the lock-free
   publication of a new hash block is benign-by-design and covered
   informationally by [shared_scenario], not asserted here). *)
let dir_create_scenario ~config ~threads name =
  scenario ~config ~threads name
    ~setup:(fun fs -> Fs.mkdir fs "/s")
    (fun ~tid ~site fs ctx ->
      site "create";
      Fs.create_file ~ctx fs ("/s/" ^ name_in_row ~row:tid 0);
      Fs.create_file ~ctx fs ("/s/" ^ name_in_row ~row:tid 1))

(* All threads hammer the SAME hash row: the row lock must serialize
   the EEXIST probe + insert sequences completely. *)
let dir_row_scenario ~config ~threads name =
  scenario ~config ~threads name
    ~setup:(fun fs -> Fs.mkdir fs "/s")
    (fun ~tid ~site fs ctx ->
      site "create";
      Fs.create_file ~ctx fs ("/s/" ^ name_in_row ~row:0 (2 * tid));
      Fs.create_file ~ctx fs ("/s/" ^ name_in_row ~row:0 ((2 * tid) + 1)))

let one_file_per_thread ~threads ~dirs fs =
  List.iter (Fs.mkdir fs) dirs;
  for tid = 0 to threads - 1 do
    Fs.create_file fs ("/s/" ^ name_in_row ~row:tid 0)
  done

(* Same-directory renames on disjoint rows from every thread.  On the
   default one-slot format the directory's single persistent log slot
   is written by all of them, serialized by its slot lock: every claim
   past the first takes the ring-full fallback (blocking on the hint
   slot), and the explorer proves the write..clear windows never
   interleave (any overlap would corrupt the slot and diverge the
   namespace or trip fsck).  On a larger ring each rename instead claims
   its own slot, so the log windows genuinely overlap in time. *)
let dir_rename_scenario ~config ~threads name =
  scenario ~config ~threads name
    ~setup:(one_file_per_thread ~threads ~dirs:[ "/s" ])
    (fun ~tid ~site fs ctx ->
      site "rename";
      Fs.rename ~ctx fs
        ("/s/" ^ name_in_row ~row:tid 0)
        ("/s/" ^ name_in_row ~row:(tid + 8) 1))

(* Cross-directory renames sharing one source directory (and hence one
   source ring). *)
let dir_xrename_scenario ~config ~threads name =
  scenario ~config ~threads name
    ~setup:(one_file_per_thread ~threads ~dirs:[ "/s"; "/d" ])
    (fun ~tid ~site fs ctx ->
      site "xrename";
      Fs.rename ~ctx fs
        ("/s/" ^ name_in_row ~row:tid 0)
        ("/d/" ^ name_in_row ~row:tid 1))

(** The shared-directory scenarios (creates on disjoint rows and on one
    row, same- and cross-directory renames) on the default and the
    scaled configuration: one directory protocol, so the same
    zero-race bar. *)
let shared_dir_scenarios ~threads =
  List.concat_map
    (fun (config, prefix) ->
      [
        dir_create_scenario ~config ~threads (prefix ^ "create");
        dir_row_scenario ~config ~threads (prefix ^ "row");
        dir_rename_scenario ~config ~threads (prefix ^ "rename");
        dir_xrename_scenario ~config ~threads (prefix ^ "xrename");
      ])
    [ (Explore.plain, "shared-"); (Explore.striped, "striped-") ]

(* The log-ring gate: the renames on media with a ring of [slots]
   rename-log slots per directory.  The explorer proves the per-slot
   claim discipline keeps every interleaving serializable (identical
   namespace), fsck-clean (no slot left pending) and race-free
   (distinct slots never share lines; a contended slot is handed over
   lock-to-lock). *)
let ring slots = { Explore.striped with ring = slots }

(* --- step 6 against an in-flight insert ----------------------------------- *)

(* Fig. 5b step 6 frees a non-head chain block that an unlink emptied.
   Head rows 1 and 2 of "/s" are full and one more row-1 name sits
   alone in the second block; thread 0 unlinks it, so step 6 frees that
   block, while thread 1 creates (or renames a file to) a row-2 name
   whose first free slot is in that block.  The insert holds that slot
   across yield points (inode and file-entry stores, the rename log
   window), so step 6 must leave a pinned block alone and probes must
   skip a retired one: otherwise the new entry lands in a freed block
   and is lost.  The lock-free reads of chain and row lines make
   benign, informational race reports, as in [shared_scenario]. *)
let step6_scenario ~config ~rename name =
  let lone = name_in_row ~row:1 8 and target = name_in_row ~row:2 8 in
  scenario ~config ~threads:2 name
    ~check_final:(fun fs ->
      if not (Fs.exists fs ("/s/" ^ target)) then Some "new entry lost"
      else if Fs.exists fs ("/s/" ^ lone) then Some "unlinked entry back"
      else None)
    ~setup:(fun fs ->
      Fs.mkdir fs "/s";
      for i = 0 to 7 do
        Fs.create_file fs ("/s/" ^ name_in_row ~row:1 i);
        Fs.create_file fs ("/s/" ^ name_in_row ~row:2 i)
      done;
      Fs.create_file fs ("/s/" ^ lone);
      if rename then Fs.create_file fs ("/s/" ^ name_in_row ~row:3 0))
    (fun ~tid ~site fs ctx ->
      if tid = 0 then begin
        site "unlink";
        Fs.unlink ~ctx fs ("/s/" ^ lone)
      end
      else if rename then begin
        site "rename";
        Fs.rename ~ctx fs ("/s/" ^ name_in_row ~row:3 0) ("/s/" ^ target)
      end
      else begin
        site "create";
        Fs.create_file ~ctx fs ("/s/" ^ target)
      end)

(** The step-6 scenarios: create and rename, on the default and the
    striped configuration.  Oracle-gated like every scenario; their
    race reports are informational. *)
let step6_scenarios =
  List.concat_map
    (fun (config, prefix) ->
      [
        step6_scenario ~config ~rename:false (prefix ^ "step6-create");
        step6_scenario ~config ~rename:true (prefix ^ "step6-rename");
      ])
    [ (Explore.plain, ""); (Explore.striped, "striped-") ]

(* --- data-path scenarios ------------------------------------------------ *)

(* One shared file, concurrent byte-level traffic.  The first three are
   formatted with [range_locks] (plus [scaled]): writers of disjoint
   4 KiB rows must scale AND serialize correctly; the explorer proves
   the correctness half here, with zero race reports required — the
   reservation/publish protocol and the row/extent locks must carry
   every happens-before edge themselves.  The append-vs-truncation
   scenarios run on both data-path disciplines. *)

let page = Explore.page
let fill tid = Char.chr (Char.code 'a' + tid)

(* one shared file "/f" of [len] bytes of [c] *)
let shared_file ~len c fs =
  let fd = Fs.openf fs (Types.creat Types.rdwr) "/f" in
  ignore (Fs.pwrite fs fd ~pos:0 (Bytes.make len c));
  Fs.close fs fd

(* The oracles read "/f" with a fresh fd and no ctx (sequential code);
   a torn page raises from {!Explore.expect_uniform}, which [run]
   records as a final-state failure. *)
let expect_size got want =
  if Bytes.length got = want then None
  else Some (Printf.sprintf "size %d, want %d" (Bytes.length got) want)

(* Every thread overwrites its own 4 KiB row of one shared file: fully
   deterministic outcome, and the per-row write locks never collide. *)
let range_write_scenario ~threads =
  scenario ~config:Explore.ranged ~threads "range-write"
    ~check_final:(fun fs ->
      let got = Explore.read_file fs "/f" in
      for tid = 0 to (Bytes.length got / page) - 1 do
        Explore.expect_uniform got ~pos:(tid * page) ~len:page (fill tid)
          ~what:(Printf.sprintf "row %d" tid)
      done;
      expect_size got (threads * page))
    ~setup:(shared_file ~len:(threads * page) 'o')
    (fun ~tid ~site fs ctx ->
      site "pwrite";
      let fd = Fs.openf ~ctx fs Types.rdwr "/f" in
      ignore (Fs.pwrite ~ctx fs fd ~pos:(tid * page) (Bytes.make page (fill tid)));
      Fs.close ~ctx fs fd)

(* Writer overwrites the row a reader is reading: the row lock must
   make the read atomic — all old bytes or all new bytes, never a mix.
   (Thread 0 writes; every other thread reads.) *)
let range_overlap_scenario ~threads =
  scenario ~config:Explore.ranged ~threads "range-rw"
    ~check_final:(fun fs ->
      let got = Explore.read_file fs "/f" in
      Explore.expect_uniform got ~pos:0 ~len:(Bytes.length got) 'b'
        ~what:"writer's bytes";
      expect_size got page)
    ~setup:(shared_file ~len:page 'a')
    (fun ~tid ~site fs ctx ->
      let fd = Fs.openf ~ctx fs Types.rdwr "/f" in
      (if tid = 0 then begin
         site "pwrite";
         ignore (Fs.pwrite ~ctx fs fd ~pos:0 (Bytes.make page 'b'))
       end
       else begin
         site "pread";
         let got = Fs.pread ~ctx fs fd ~pos:0 ~len:page in
         Explore.expect_uniform got ~pos:0 ~len:page
           (if Bytes.get got 0 = 'a' then 'a' else 'b')
           ~what:"range-rw: torn read"
       end);
      Fs.close ~ctx fs fd)

(* Concurrent appends to one file: sizes reserved by fetch-and-add,
   published in order.  The final size is deterministic; the block
   order is whatever the reservation order was, so the content oracle
   accepts any permutation of uniform per-thread pages. *)
let range_append_scenario ~threads =
  scenario ~config:Explore.ranged ~threads "range-append"
    ~check_final:(fun fs ->
      let got = Explore.read_file fs "/f" in
      let pages = List.init (Bytes.length got / page) (fun k -> k * page) in
      List.iter
        (fun pos ->
          Explore.expect_uniform got ~pos ~len:page (Bytes.get got pos)
            ~what:(Printf.sprintf "page at %d" pos))
        pages;
      match expect_size got (threads * page) with
      | Some _ as bad -> bad
      | None ->
          let owners = List.sort compare (List.map (Bytes.get got) pages) in
          if owners = List.init threads fill then None
          else Some "pages are not a permutation of the appends")
    ~setup:(fun fs ->
      let fd = Fs.openf fs (Types.creat Types.wronly) "/f" in
      Fs.close fs fd)
    (fun ~tid ~site fs ctx ->
      site "append";
      let fd = Fs.openf ~ctx fs Types.rdwr "/f" in
      ignore (Fs.append ~ctx fs fd (Bytes.make page (fill tid)));
      Fs.close ~ctx fs fd)

(* An append of one page of 'b' to a one-page file of 'a', racing its
   truncation to zero by [truncate] ([otrunc = false]) or by an O_TRUNC
   open.  The file lock serializes them — both take it exclusive on
   either discipline — so the result is one of exactly two legal
   serializations: truncated after the append (empty file) or before it
   (just the appended page).  Not schedule-invariant by design. *)
let append_truncate_scenario ~config ~otrunc name =
  scenario ~config ~invariant:false ~threads:2 name
    ~check_final:(fun fs ->
      let got = Explore.read_file fs "/f" in
      match Bytes.length got with
      | 0 -> None
      | n when n = page ->
          Explore.expect_uniform got ~pos:0 ~len:page 'b' ~what:"surviving page";
          None
      | n -> Some (Printf.sprintf "size %d, want 0 or %d" n page))
    ~setup:(shared_file ~len:page 'a')
    (fun ~tid ~site fs ctx ->
      if tid = 0 then begin
        site "append";
        let fd = Fs.openf ~ctx fs Types.rdwr "/f" in
        ignore (Fs.append ~ctx fs fd (Bytes.make page 'b'));
        Fs.close ~ctx fs fd
      end
      else if otrunc then begin
        site "O_TRUNC";
        Fs.close ~ctx fs
          (Fs.openf ~ctx fs { Types.wronly with Types.trunc = true } "/f")
      end
      else begin
        site "truncate";
        Fs.truncate ~ctx fs "/f" 0
      end)

(** Append racing [truncate] and an O_TRUNC open, under byte-range
    locking and under whole-file locking. *)
let append_truncate_scenarios =
  List.concat_map
    (fun (config, prefix) ->
      [
        append_truncate_scenario ~config ~otrunc:false (prefix ^ "append-trunc");
        append_truncate_scenario ~config ~otrunc:true (prefix ^ "append-otrunc");
      ])
    [ (Explore.ranged, "range-"); (Explore.plain, "") ]

(** The gated scenarios ([make races] and [test_sched] run every one):
    the private-directory state machines; shared-directory create and
    rename traffic on the default and the scaled configuration;
    concurrent byte-level traffic on one shared file under
    [range_locks]; an append racing [truncate] and an O_TRUNC open on
    both data-path disciplines; and the renames on a 4-slot ring.  Each
    must be schedule-invariant
    (or pass its final-state oracle), fsck-clean and race-free. *)
let gated ~threads =
  [
    create_scenario ~threads;
    unlink_scenario ~threads;
    rename_scenario ~threads;
    rw_scenario ~threads;
  ]
  @ shared_dir_scenarios ~threads
  @ [
      range_write_scenario ~threads;
      range_overlap_scenario ~threads;
      range_append_scenario ~threads;
    ]
  @ append_truncate_scenarios
  @ [
      dir_rename_scenario ~config:(ring 4) ~threads "ring-rename";
      dir_xrename_scenario ~config:(ring 4) ~threads "ring-xrename";
    ]

(* --- parallel-recovery scenarios ---------------------------------------- *)

module Workpool = Simurgh_sim.Workpool

type recovery_stats = {
  rscenario : string;
  rschedules : int;  (** parallel recoveries executed (plus 1 seq reference) *)
  rdistinct : int;  (** distinct fiber interleavings among them *)
  ryields : int;  (** preemption points offered, summed over schedules *)
  rfailures : (string * string) list;
      (** digest / report divergence from the sequential reference,
          checker violations, or an exception during recovery *)
  rraces : Race.report list;  (** deduplicated race reports *)
}

(* A populated, genuinely crashed image for recovery to chew on: a
   durable tree (directories, files, a nested subdir, a symlink), then
   a dirty tail — two creates and a rename crashed at the fence of its
   log payload, so its shadow entry is durable and unprocessed — with
   every unpersisted line dropped.  [poison] additionally poisons one
   subdirectory's head-block line, so the parallel mark pass exercises
   the quarantine escalation under contention. *)
let build_crashed_image ~poison ~size =
  let region = Region.create ~mode:Region.Strict size in
  let fs = Fs.mkfs ~cores:4 ~euid:0 region in
  for d = 0 to 3 do
    let dir = Printf.sprintf "/d%d" d in
    Fs.mkdir fs dir;
    for i = 0 to 5 do
      Fs.create_file fs (Printf.sprintf "%s/f%d" dir i)
    done
  done;
  Fs.mkdir fs "/d0/sub";
  Fs.create_file fs "/d0/sub/leaf";
  Fs.symlink fs ~target:"/d0/f0" "/d0/link";
  Fs.unmount fs;
  Region.persist_all region;
  let fs = Explore.mount region in
  Fs.create_file fs "/d1/extra0";
  Fs.create_file fs "/d1/extra1";
  Explore.crash_at [| region |]
    (fun () _ -> Fs.rename fs "/d2/f0" "/d3/moved")
    (Explore.Fence 2);
  Region.crash_image region ~keep:(fun _ -> false);
  if poison then begin
    let layout = Layout.attach region in
    let root = Layout.root_fentry layout in
    let root_head = Fentry.dirblock region root in
    match Dirblock.find region ~head:root_head ~name:"d3" with
    | Some (_, _, _, p), _ -> Region.poison region (Fentry.dirblock region p) 64
    | None, _ -> failwith "build_crashed_image: /d3 vanished"
  end;
  region

(** [recovery_run ()] is the parallel-recovery twin of {!run}: one
    crashed image, one sequential {!Recovery.run} as the reference,
    then [budget] fiber-mode recoveries under seeded random schedules,
    each watched by the race detector.  Oracles, per schedule: the
    durable media digest and the recovery report (modulo virtual time)
    must equal the sequential reference — parallel recovery is
    schedule-independent — and {!Check.run} must be clean.  Zero race
    reports are required: mark/sweep tasks only write task-owned bytes;
    everything order-sensitive runs in the fenced sequential steps. *)
let recovery_run ?(seed = 23L) ?(budget = 24) ?(size = Explore.default_size)
    ?(workers = 3) ?(poison = false) () =
  let name = if poison then "recovery-poison" else "recovery" in
  let region = build_crashed_image ~poison ~size in
  let cp0 = Region.checkpoint region in

  (* sequential reference *)
  Fs.invalidate_shared region;
  let _, ref_report = Recovery.run region in
  Region.persist_all region;
  let ref_digest = Region.media_digest region in
  let failures = ref [] in
  (match Check.run region with
  | [] -> ()
  | viols ->
      failures :=
        ( name ^ "/seq",
          "fsck: "
          ^ String.concat "; " (List.map Check.violation_to_string viols) )
        :: !failures);

  let watched, races = race_log () in
  let hashes = Hashtbl.create (2 * budget) in
  let yields = ref 0 in
  let ref_norm = Recovery.untimed ref_report in

  for j = 0 to budget - 1 do
    let label = Printf.sprintf "%s/rnd%d" name j in
    Region.restore region cp0;
    Fs.invalidate_shared region;
    let race = Race.create ~threads:workers in
    let layout = Layout.attach region in
    Simurgh_alloc.Block_alloc.iter_lock_words layout.Layout.balloc
      (fun ~off ~len -> Race.exclude race ~off ~len);
    let outs = ref [] in
    let sched =
      Schedule.random (Int64.add seed (Int64.of_int ((j * 7919) + 13)))
    in
    (match
       watched region race (fun () ->
           Recovery.run
             ~par:
               (Recovery.Fibers
                  {
                    schedule = sched;
                    workers;
                    sink = (fun o -> outs := o :: !outs);
                  })
             region)
     with
    | _, report ->
        Region.persist_all region;
        if Region.media_digest region <> ref_digest then
          failures :=
            (label, "durable media diverged from sequential recovery")
            :: !failures;
        if Recovery.untimed report <> ref_norm then
          failures :=
            (label, "recovery report diverged from sequential recovery")
            :: !failures;
        (match Check.run region with
        | [] -> ()
        | viols ->
            failures :=
              ( label,
                "fsck: "
                ^ String.concat "; "
                    (List.map Check.violation_to_string viols) )
              :: !failures)
    | exception e ->
        failures :=
          (label, "recovery raised " ^ Printexc.to_string e) :: !failures);
    let outs = !outs in
    List.iter (fun (o : Engine.explore_outcome) ->
        yields := !yields + o.Engine.yields) outs;
    Hashtbl.replace hashes
      (Hashtbl.hash (List.map (fun (o : Engine.explore_outcome) ->
           o.Engine.trace_hash) outs))
      ()
  done;
  {
    rscenario = name;
    rschedules = budget + 1;
    rdistinct = Hashtbl.length hashes;
    ryields = !yields;
    rfailures = List.rev !failures;
    rraces = races ();
  }

(* --- negative control --------------------------------------------------- *)

(** Two fibers store to the same NVMM word with no lock: the detector
    must flag it under any schedule.  Returns the deduplicated reports
    (empty = the detector is broken). *)
let negative_control ?(seed = 3L) ?(schedules = 8) () =
  let region = Region.create 4096 in
  let watched, races = race_log () in
  for s = 0 to schedules - 1 do
    let race = Race.create ~threads:2 in
    let bodies =
      Array.init 2 (fun tid () ->
          Race.set_site race ~tid (Printf.sprintf "racer%d" tid);
          (* unsynchronized read-modify-write of the same word *)
          let v = Region.read_u62 region 512 in
          Region.write_u62 region 512 (v + tid + 1))
    in
    ignore
      (watched region race (fun () ->
           Engine.explore
             ~schedule:(Schedule.random (Int64.add seed (Int64.of_int (s * 31))))
             bodies))
  done;
  races ()

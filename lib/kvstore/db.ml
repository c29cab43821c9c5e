(** LevelDB-style LSM key-value store over any file system implementing
    {!Simurgh_fs_common.Fs_intf.S}.

    Writes append to a write-ahead log and land in the memtable; a full
    memtable flushes to a level-0 SSTable; when level 0 collects
    [l0_compaction_trigger] tables they merge into one level-1 table.
    This exercises the FS-call mix LevelDB generates under YCSB: appends
    (WAL), fsync, file create/delete (flush + compaction) and preads
    (lookups). *)

module type FS = Simurgh_fs_common.Fs_intf.S

type config = {
  dir : string;
  memtable_bytes : int;
  l0_compaction_trigger : int;
  sync_writes : bool;
}

let default_config =
  {
    dir = "/db";
    memtable_bytes = 256 * 1024;
    l0_compaction_trigger = 4;
    sync_writes = false;
  }

type stats = {
  mutable puts : int;
  mutable gets : int;
  mutable deletes : int;
  mutable flushes : int;
  mutable compactions : int;
  mutable wal_bytes : int;
}

module Make (F : FS) = struct
  module Sst = Sstable.Make (F)

  type t = {
    fs : F.t;
    cfg : config;
    mutable mem : Memtable.t;
    mutable wal_fd : F.fd;
    mutable wal_seq : int;
    mutable table_seq : int;
    mutable l0 : Sstable.meta list;  (** newest first *)
    mutable l1 : Sstable.meta list;  (** sorted, non-overlapping *)
    handles : (string, F.fd) Hashtbl.t;
        (** table cache: SSTables stay open (LevelDB's TableCache) *)
    write_lock : Simurgh_sim.Vlock.Mutex.t;
        (** LevelDB serializes writers; reads stay lock-free *)
    stats : stats;
  }

  (* LevelDB-side CPU work per operation (skiplist, arena, CRC32,
     comparator calls, MemTable encoding) — the "application" share of
     Table 1 / Fig. 10. *)
  let put_app_cycles = 2600.0
  let get_app_cycles = 1600.0

  let wal_path t seq = Printf.sprintf "%s/wal-%06d.log" t.cfg.dir seq
  let table_path t seq = Printf.sprintf "%s/sst-%06d.ldb" t.cfg.dir seq

  let open_wal ?ctx fs cfg seq =
    F.openf ?ctx fs
      (Simurgh_fs_common.Types.creat Simurgh_fs_common.Types.wronly)
      (Printf.sprintf "%s/wal-%06d.log" cfg.dir seq)

  let open_ ?ctx ?(cfg = default_config) fs =
    (if not (F.exists ?ctx fs cfg.dir) then F.mkdir ?ctx fs cfg.dir);
    let wal_fd = open_wal ?ctx fs cfg 0 in
    {
      fs;
      cfg;
      mem = Memtable.create ();
      wal_fd;
      wal_seq = 0;
      table_seq = 0;
      l0 = [];
      l1 = [];
      handles = Hashtbl.create 16;
      write_lock = Simurgh_sim.Vlock.Mutex.create ~site:"db-write" ();
      stats =
        {
          puts = 0;
          gets = 0;
          deletes = 0;
          flushes = 0;
          compactions = 0;
          wal_bytes = 0;
        };
    }

  (* table cache management *)
  let handle ?ctx t (meta : Sstable.meta) =
    match Hashtbl.find_opt t.handles meta.Sstable.path with
    | Some fd -> fd
    | None ->
        let fd =
          F.openf ?ctx t.fs Simurgh_fs_common.Types.rdonly meta.Sstable.path
        in
        Hashtbl.replace t.handles meta.Sstable.path fd;
        fd

  let drop_handle ?ctx t (meta : Sstable.meta) =
    match Hashtbl.find_opt t.handles meta.Sstable.path with
    | Some fd ->
        F.close ?ctx t.fs fd;
        Hashtbl.remove t.handles meta.Sstable.path
    | None -> ()

  let compact_l0 ?ctx t =
    t.stats.compactions <- t.stats.compactions + 1;
    let inputs = t.l0 @ t.l1 in
    t.table_seq <- t.table_seq + 1;
    let path = table_path t t.table_seq in
    (* oldest first, so a newer record of a key wins the merge *)
    let meta = Sst.compact ?ctx t.fs path (List.rev inputs) in
    (* the new table replaces every input *)
    t.l0 <- [];
    t.l1 <- [ meta ];
    List.iter
      (fun m ->
        drop_handle ?ctx t m;
        F.unlink ?ctx t.fs m.Sstable.path)
      inputs

  let flush_memtable ?ctx t =
    if not (Memtable.is_empty t.mem) then begin
      t.stats.flushes <- t.stats.flushes + 1;
      t.table_seq <- t.table_seq + 1;
      let path = table_path t t.table_seq in
      let meta = Sst.write ?ctx t.fs path (Memtable.bindings t.mem) in
      t.l0 <- meta :: t.l0;
      Memtable.clear t.mem;
      (* retire the WAL, start a fresh one *)
      F.close ?ctx t.fs t.wal_fd;
      F.unlink ?ctx t.fs (wal_path t t.wal_seq);
      t.wal_seq <- t.wal_seq + 1;
      t.wal_fd <- open_wal ?ctx t.fs t.cfg t.wal_seq;
      if List.length t.l0 >= t.cfg.l0_compaction_trigger then
        compact_l0 ?ctx t
    end

  let app_cpu ?ctx cycles =
    match ctx with
    | None -> ()
    | Some c -> Simurgh_sim.Machine.cpu c cycles

  let write_internal ?ctx t key value =
    let body () =
      (* WAL append *)
      let payload = Record.to_bytes key value in
      app_cpu ?ctx put_app_cycles;
      ignore (F.append ?ctx t.fs t.wal_fd payload);
      if t.cfg.sync_writes then F.fsync ?ctx t.fs t.wal_fd;
      t.stats.wal_bytes <- t.stats.wal_bytes + Bytes.length payload;
      Memtable.put t.mem key value;
      if Memtable.bytes t.mem >= t.cfg.memtable_bytes then
        flush_memtable ?ctx t
    in
    match ctx with
    | None -> body ()
    | Some c ->
        Simurgh_sim.Vlock.Mutex.acquire c t.write_lock;
        body ();
        Simurgh_sim.Vlock.Mutex.release c t.write_lock

  let put ?ctx t key value =
    t.stats.puts <- t.stats.puts + 1;
    write_internal ?ctx t key (Some value)

  let delete ?ctx t key =
    t.stats.deletes <- t.stats.deletes + 1;
    write_internal ?ctx t key None

  let get ?ctx t key =
    t.stats.gets <- t.stats.gets + 1;
    app_cpu ?ctx get_app_cycles;
    match Memtable.get t.mem key with
    | Some v -> v
    | None -> (
        let hash = Bloom.hash key in
        let rec search = function
          | [] -> None
          | meta :: rest -> (
              let fd = handle ?ctx t meta in
              match Sst.get_hashed ?ctx t.fs ~fd meta ~hash key with
              | Some _ as hit -> hit
              | None -> search rest)
        in
        (* newest first: level 0, then level 1 *)
        match search t.l0 with
        | Some v -> v
        | None -> Option.join (search t.l1))

  (** Read-modify-write (YCSB workload F). *)
  let read_modify_write ?ctx t key f =
    let v = get ?ctx t key in
    let v' = f v in
    put ?ctx t key v'

  (** Range scan of up to [count] keys starting at [start] (workload E).
      Served from a merged view; table reads are bounded by the scan
      length through the table cache. *)
  let scan ?ctx t ~start ~count =
    app_cpu ?ctx (float_of_int count *. 150.0);
    let out = ref [] in
    let n = ref 0 in
    (* memtable first *)
    List.iter
      (fun (k, v) ->
        if k >= start && !n < count then
          match v with
          | Some v ->
              out := (k, v) :: !out;
              incr n
          | None -> ())
      (Memtable.bindings t.mem);
    (* then tables, each read bounded to roughly the scan size *)
    let budget = count * 1200 in
    List.iter
      (fun meta ->
        if !n < count then begin
          let fd = handle ?ctx t meta in
          Sst.iter_from ?ctx t.fs ~fd meta ~start_key:start
            ~byte_budget:budget (fun k v ->
              if !n < count then
                match v with
                | Some v ->
                    out := (k, v) :: !out;
                    incr n
                | None -> ())
        end)
      (t.l0 @ t.l1);
    List.rev !out

  let close ?ctx t =
    flush_memtable ?ctx t;
    Hashtbl.iter (fun _ fd -> F.close ?ctx t.fs fd) t.handles;
    Hashtbl.reset t.handles;
    F.close ?ctx t.fs t.wal_fd

  let stats t = t.stats
  let table_count t = List.length t.l0 + List.length t.l1
end

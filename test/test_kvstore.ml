(* Tests for the LSM key-value store: memtable, bloom filter, SSTable
   format and the full database against a map model, running on Simurgh;
   and byte identity of everything the store writes against a reference
   encoder and merge. *)

module Mem = Simurgh_kvstore.Memtable
module Bloom = Simurgh_kvstore.Bloom
module Record = Simurgh_kvstore.Record
module Fs = Simurgh_core.Fs
module Db = Simurgh_kvstore.Db.Make (Fs)
module Sst = Simurgh_kvstore.Sstable.Make (Fs)

let fresh_fs () = Fs.mkfs ~euid:0 (Simurgh_nvmm.Region.create (128 * 1024 * 1024))

(* --- reference ----------------------------------------------------------- *)

(* The store's original Buffer-based encoder, Bloom filter and
   Hashtbl + sort merge.  The store builds table images and merges runs
   in place; everything it writes must equal what this writes, byte for
   byte. *)
module Ref = struct
  let put_u32 buf v =
    Buffer.add_char buf (Char.chr (v land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

  let encode buf key value =
    put_u32 buf (String.length key);
    (match value with
    | Some v -> put_u32 buf (String.length v)
    | None -> put_u32 buf Record.tombstone_len);
    Buffer.add_string buf key;
    match value with Some v -> Buffer.add_string buf v | None -> ()

  let record key value =
    let buf = Buffer.create 64 in
    encode buf key value;
    Buffer.to_bytes buf

  let hash64 (s : string) =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001b3L)
      s;
    !h

  let bloom_add bits nbits key =
    let h = hash64 key in
    let h1 = Int64.to_int (Int64.shift_right_logical h 33) in
    let h2 = Int64.to_int (Int64.logand h 0x7fffffffL) lor 1 in
    for k = 0 to 5 do
      let i = abs (h1 + (k * h2)) mod nbits in
      Bytes.set bits (i / 8)
        (Char.chr (Char.code (Bytes.get bits (i / 8)) lor (1 lsl (i mod 8))))
    done

  (* The table image of [bindings] (sorted, tombstones included). *)
  let table bindings =
    let buf = Buffer.create 4096 in
    let n = List.length bindings in
    let nbits = max 64 (max 1 n * 10) in
    let bits = Bytes.make ((nbits + 7) / 8) '\000' in
    let index = ref [] in
    (* a block ends after 16 records or before one that would take it
       past 4 KiB *)
    let block_start = ref 0 and in_block = ref 0 in
    List.iteri
      (fun i (k, v) ->
        let size = 8 + String.length k + Option.fold ~none:0 ~some:String.length v in
        if i = 0 || !in_block = 16 || Buffer.length buf - !block_start + size > 4096
        then begin
          index := (k, Buffer.length buf) :: !index;
          block_start := Buffer.length buf;
          in_block := 0
        end;
        incr in_block;
        bloom_add bits nbits k;
        encode buf k v)
      bindings;
    let records_len = Buffer.length buf in
    put_u32 buf nbits;
    Buffer.add_bytes buf bits;
    let index_buf = Buffer.create 256 in
    List.iter
      (fun (k, off) ->
        put_u32 index_buf (String.length k);
        Buffer.add_string index_buf k;
        put_u32 index_buf off)
      (List.rev !index);
    Buffer.add_buffer buf index_buf;
    put_u32 buf records_len;
    put_u32 buf (4 + Bytes.length bits);
    put_u32 buf (Buffer.length index_buf);
    put_u32 buf n;
    Buffer.to_bytes buf

  (* Newest first, like the store's levels; the newest binding of a key
     wins and tombstones are dropped. *)
  let merge tables =
    let merged = Hashtbl.create 4096 in
    let order = ref [] in
    List.iter
      (List.iter (fun (k, v) ->
           if not (Hashtbl.mem merged k) then order := k :: !order;
           Hashtbl.replace merged k v))
      (List.rev tables);
    let keys = List.sort_uniq compare !order in
    List.filter_map
      (fun k ->
        match Hashtbl.find_opt merged k with
        | Some (Some v) -> Some (k, Some v)
        | Some None | None -> None)
      keys
end

(* --- record ------------------------------------------------------------- *)

let test_record_roundtrip () =
  let b = Bytes.cat (Record.to_bytes "key1" (Some "value1")) (Record.to_bytes "key2" None) in
  Alcotest.(check string) "reference bytes"
    (Bytes.to_string (Bytes.cat (Ref.record "key1" (Some "value1")) (Ref.record "key2" None)))
    (Bytes.to_string b);
  let k1, v1, next = Record.decode b 0 in
  Alcotest.(check string) "k1" "key1" k1;
  Alcotest.(check (option string)) "v1" (Some "value1") v1;
  let k2, v2, _ = Record.decode b next in
  Alcotest.(check string) "k2" "key2" k2;
  Alcotest.(check (option string)) "tombstone" None v2

(* --- memtable ------------------------------------------------------------ *)

let test_memtable_basics () =
  let m = Mem.create () in
  Alcotest.(check bool) "empty" true (Mem.is_empty m);
  Mem.put m "b" (Some "2");
  Mem.put m "a" (Some "1");
  Mem.put m "c" None;
  Alcotest.(check int) "entries" 3 (Mem.entries m);
  Alcotest.(check (option (option string))) "get" (Some (Some "1")) (Mem.get m "a");
  Alcotest.(check (option (option string))) "tombstone" (Some None) (Mem.get m "c");
  Alcotest.(check (option (option string))) "miss" None (Mem.get m "zz");
  (* bindings sorted *)
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ]
    (List.map fst (Mem.bindings m));
  Mem.clear m;
  Alcotest.(check bool) "cleared" true (Mem.is_empty m)

(* --- bloom ---------------------------------------------------------------- *)

let test_bloom_no_false_negatives () =
  let b = Bloom.create 1000 in
  let keys = List.init 1000 (Printf.sprintf "key%d") in
  List.iter (Bloom.add b) keys;
  List.iter
    (fun k -> Alcotest.(check bool) ("member " ^ k) true (Bloom.mem b k))
    keys

let test_bloom_fpr_reasonable () =
  let b = Bloom.create 1000 in
  for i = 0 to 999 do
    Bloom.add b (Printf.sprintf "present%d" i)
  done;
  let fp = ref 0 in
  for i = 0 to 9999 do
    if Bloom.mem b (Printf.sprintf "absent%d" i) then incr fp
  done;
  (* 10 bits/key, 6 probes: expect well under 5% false positives *)
  Alcotest.(check bool) "fpr < 5%" true (!fp < 500)

let test_bloom_fnv_vectors () =
  Alcotest.(check int64) "empty" 0xcbf29ce484222325L (Bloom.hash64 "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (Bloom.hash64 "a");
  List.iter
    (fun k -> Alcotest.(check int64) k (Ref.hash64 k) (Bloom.hash64 k))
    [ "foobar"; "user00000000000000000042"; String.make 300 '\255' ]

let test_bloom_serialization () =
  let b = Bloom.create 100 in
  List.iter (Bloom.add b) [ "x"; "y"; "z" ];
  let b' = Bloom.of_bytes (Bloom.to_bytes b) in
  List.iter
    (fun k -> Alcotest.(check bool) k true (Bloom.mem b' k))
    [ "x"; "y"; "z" ]

(* --- sstable ---------------------------------------------------------------- *)

let test_sstable_roundtrip () =
  let fs = fresh_fs () in
  let bindings =
    List.init 200 (fun i ->
        (Printf.sprintf "key%04d" i, Some (Printf.sprintf "val%d" i)))
  in
  let meta = Sst.write fs "/table.ldb" bindings in
  Alcotest.(check int) "count" 200 meta.Simurgh_kvstore.Sstable.count;
  let fd = Fs.openf fs Simurgh_fs_common.Types.rdonly "/table.ldb" in
  (* every key readable *)
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option (option string))) k (Some v) (Sst.get fs ~fd meta k))
    bindings;
  (* absent keys *)
  Alcotest.(check (option (option string))) "absent" None
    (Sst.get fs ~fd meta "nokey");
  Fs.close fs fd

let test_sstable_reopen () =
  let fs = fresh_fs () in
  let bindings = List.init 50 (fun i -> (Printf.sprintf "k%03d" i, Some "v")) in
  let _ = Sst.write fs "/t.ldb" bindings in
  let meta = Sst.open_ fs "/t.ldb" in
  let fd = Fs.openf fs Simurgh_fs_common.Types.rdonly "/t.ldb" in
  Alcotest.(check (option (option string))) "k025 via reopened meta"
    (Some (Some "v"))
    (Sst.get fs ~fd meta "k025");
  Fs.close fs fd

(* Records of 1 KiB and 5 KiB: 16 of them, or even one, take more than
   4 KiB, so a point read must fetch its key's whole block. *)
let test_sstable_large_values () =
  let fs = fresh_fs () in
  let bindings =
    List.init 40 (fun i -> (Printf.sprintf "k%03d" i, Some (String.make 5120 (Char.chr (65 + (i mod 26))))))
  in
  let meta = Sst.write fs "/big.ldb" bindings in
  let fd = Fs.openf fs Simurgh_fs_common.Types.rdonly "/big.ldb" in
  let unreadable =
    List.filter (fun (k, v) -> Sst.get fs ~fd meta k <> Some v) bindings
  in
  Alcotest.(check int) "unreadable 5 KiB records" 0 (List.length unreadable);
  Fs.close fs fd

let test_db_large_values () =
  let fs = fresh_fs () in
  let db = Db.open_ fs in
  let n = 8000 in
  let value i = Printf.sprintf "%06d|%s" i (String.make 1017 'v') in
  for i = 0 to n - 1 do
    Db.put db (Printf.sprintf "user%08d" ((i * 7919) mod n)) (value ((i * 7919) mod n))
  done;
  let stats = Db.stats db in
  Alcotest.(check bool) "compacted" true (stats.Simurgh_kvstore.Db.compactions > 0);
  let unreadable = ref 0 in
  for i = 0 to n - 1 do
    if Db.get db (Printf.sprintf "user%08d" i) <> Some (value i) then incr unreadable
  done;
  Alcotest.(check int) "unreadable 1 KiB records" 0 !unreadable;
  Db.close db

let test_sstable_iter () =
  let fs = fresh_fs () in
  let bindings = List.init 64 (fun i -> (Printf.sprintf "k%03d" i, Some "v")) in
  let meta = Sst.write fs "/t.ldb" bindings in
  let n = ref 0 in
  Sst.iter fs meta (fun _ _ -> incr n);
  Alcotest.(check int) "streamed all" 64 !n

(* --- db ---------------------------------------------------------------------- *)

let test_db_put_get_delete () =
  let fs = fresh_fs () in
  let db = Db.open_ fs in
  Db.put db "alpha" "1";
  Db.put db "beta" "2";
  Alcotest.(check (option string)) "get" (Some "1") (Db.get db "alpha");
  Db.put db "alpha" "1'";
  Alcotest.(check (option string)) "overwrite" (Some "1'") (Db.get db "alpha");
  Db.delete db "alpha";
  Alcotest.(check (option string)) "deleted" None (Db.get db "alpha");
  Alcotest.(check (option string)) "other intact" (Some "2") (Db.get db "beta");
  Db.close db

let test_db_flush_and_compaction () =
  let fs = fresh_fs () in
  let cfg =
    { Simurgh_kvstore.Db.default_config with
      Simurgh_kvstore.Db.memtable_bytes = 4096 }
  in
  let db = Db.open_ ~cfg fs in
  for i = 0 to 499 do
    Db.put db (Printf.sprintf "key%04d" i) (String.make 64 'v')
  done;
  let stats = Db.stats db in
  Alcotest.(check bool) "flushed" true
    (stats.Simurgh_kvstore.Db.flushes > 0);
  Alcotest.(check bool) "compacted" true
    (stats.Simurgh_kvstore.Db.compactions > 0);
  (* all data readable through the levels *)
  for i = 0 to 499 do
    Alcotest.(check (option string))
      (Printf.sprintf "key%04d" i)
      (Some (String.make 64 'v'))
      (Db.get db (Printf.sprintf "key%04d" i))
  done;
  Db.close db

let test_db_scan () =
  let fs = fresh_fs () in
  let db = Db.open_ fs in
  for i = 0 to 99 do
    Db.put db (Printf.sprintf "k%03d" i) (string_of_int i)
  done;
  let out = Db.scan db ~start:"k050" ~count:10 in
  Alcotest.(check int) "scan length" 10 (List.length out);
  Alcotest.(check string) "first" "k050" (fst (List.hd out));
  Db.close db

let test_db_read_modify_write () =
  let fs = fresh_fs () in
  let db = Db.open_ fs in
  Db.put db "ctr" "5";
  Db.read_modify_write db "ctr" (function
    | Some v -> string_of_int (int_of_string v + 1)
    | None -> "0");
  Alcotest.(check (option string)) "rmw" (Some "6") (Db.get db "ctr");
  Db.close db

let prop_db_matches_map =
  QCheck.Test.make ~name:"db matches a map model through flush/compaction"
    ~count:15
    QCheck.(list_of_size (QCheck.Gen.int_range 50 300)
              (pair (int_range 0 40) (option (int_range 0 999))))
    (fun ops ->
      let fs = fresh_fs () in
      let cfg =
        { Simurgh_kvstore.Db.default_config with
          Simurgh_kvstore.Db.memtable_bytes = 2048 }
      in
      let db = Db.open_ ~cfg fs in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          let key = Printf.sprintf "key%02d" k in
          match v with
          | Some v ->
              let value = string_of_int v in
              Db.put db key value;
              Hashtbl.replace model key value
          | None ->
              Db.delete db key;
              Hashtbl.remove model key)
        ops;
      let ok = ref true in
      for k = 0 to 40 do
        let key = Printf.sprintf "key%02d" k in
        if Db.get db key <> Hashtbl.find_opt model key then ok := false
      done;
      Db.close db;
      !ok)

(* --- byte identity ------------------------------------------------------- *)

(* Simurgh, with every append logged under the path its fd was opened
   with. *)
module Rec_fs = struct
  include Fs

  let paths : (fd * string) list ref = ref []
  let appends : (string * string) list ref = ref []  (** newest first *)

  let openf ?ctx fs flags path =
    let fd = Fs.openf ?ctx fs flags path in
    paths := (fd, path) :: !paths;
    fd

  let append ?ctx fs fd b =
    appends := (List.assoc fd !paths, Bytes.to_string b) :: !appends;
    Fs.append ?ctx fs fd b
end

module Rec_db = Simurgh_kvstore.Db.Make (Rec_fs)

module Smap = Map.Make (String)

(* Replays the op stream on the store and on a model of its levels.
   After every op, the WAL record and the SSTable images the op wrote
   must equal the reference encoding of the memtable it flushed and the
   reference merge of the tables it compacted. *)
let store_writes_reference_images ~memtable_bytes ops =
  Rec_fs.paths := [];
  Rec_fs.appends := [];
  let db =
    Rec_db.open_
      ~cfg:{ Simurgh_kvstore.Db.default_config with Simurgh_kvstore.Db.memtable_bytes }
      (Fs.mkfs ~euid:0 (Simurgh_nvmm.Region.create (8 * 1024 * 1024)))
  in
  let mem = ref Smap.empty and l0 = ref [] and l1 = ref [] in
  let check what expected got =
    if expected <> got then QCheck.Test.fail_reportf "%s differs from the reference" what
  in
  let step f =
    let st = Rec_db.stats db in
    let flushes = st.Simurgh_kvstore.Db.flushes and compactions = st.Simurgh_kvstore.Db.compactions in
    Rec_fs.appends := [];
    f ();
    let written = List.rev !Rec_fs.appends in
    let tables = List.filter (fun (p, _) -> Filename.check_suffix p ".ldb") written in
    let wal = List.filter (fun (p, _) -> Filename.check_suffix p ".log") written in
    let expected = ref [] in
    if st.Simurgh_kvstore.Db.flushes > flushes then begin
      let b = Smap.bindings !mem in
      expected := [ Ref.table b ];
      mem := Smap.empty;
      l0 := b :: !l0
    end;
    if st.Simurgh_kvstore.Db.compactions > compactions then begin
      let merged = Ref.merge (!l0 @ !l1) in
      expected := !expected @ [ Ref.table merged ];
      l0 := [];
      l1 := [ merged ]
    end;
    check "sstable images" (List.map Bytes.to_string !expected) (List.map snd tables);
    List.map snd wal
  in
  List.iter
    (fun (k, v) ->
      let key = Printf.sprintf "key%02d" k in
      let value = Option.map (fun n -> String.make n (Char.chr (97 + (n mod 26)))) v in
      (* the store's memtable takes the op before the flush it may trigger *)
      mem := Smap.add key value !mem;
      let wal =
        step (fun () ->
            match value with
            | Some v -> Rec_db.put db key v
            | None -> Rec_db.delete db key)
      in
      check "wal record" [ Bytes.to_string (Ref.record key value) ] wal)
    ops;
  ignore (step (fun () -> Rec_db.close db));
  true

let prop_byte_identity ~name ~count ~max_value ~memtable_bytes =
  QCheck.Test.make ~name ~count
    QCheck.(list_of_size (QCheck.Gen.int_range 50 600)
              (pair (int_range 0 60) (option (int_range 0 max_value))))
    (store_writes_reference_images ~memtable_bytes)

(* small records: many flushes and compactions per stream *)
let prop_byte_identity_small =
  prop_byte_identity ~name:"sstable images equal the reference encoder and merge"
    ~count:40 ~max_value:48 ~memtable_bytes:384

(* records up to 2 KiB: blocks end at 4 KiB before 16 records *)
let prop_byte_identity_blocks =
  prop_byte_identity ~name:"4 KiB blocks equal the reference encoder and merge"
    ~count:10 ~max_value:2048 ~memtable_bytes:24576

let () =
  Alcotest.run "kvstore"
    [
      ( "record+memtable",
        [
          Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "memtable" `Quick test_memtable_basics;
        ] );
      ( "bloom",
        [
          Alcotest.test_case "no false negatives" `Quick
            test_bloom_no_false_negatives;
          Alcotest.test_case "fpr" `Quick test_bloom_fpr_reasonable;
          Alcotest.test_case "serialization" `Quick test_bloom_serialization;
          Alcotest.test_case "fnv-1a vectors" `Quick test_bloom_fnv_vectors;
        ] );
      ( "sstable",
        [
          Alcotest.test_case "roundtrip" `Quick test_sstable_roundtrip;
          Alcotest.test_case "reopen" `Quick test_sstable_reopen;
          Alcotest.test_case "iter" `Quick test_sstable_iter;
          Alcotest.test_case "5 KiB values" `Quick test_sstable_large_values;
        ] );
      ( "db",
        [
          Alcotest.test_case "put/get/delete" `Quick test_db_put_get_delete;
          Alcotest.test_case "flush+compaction" `Quick
            test_db_flush_and_compaction;
          Alcotest.test_case "scan" `Quick test_db_scan;
          Alcotest.test_case "1 KiB values" `Quick test_db_large_values;
          Alcotest.test_case "read-modify-write" `Quick
            test_db_read_modify_write;
          QCheck_alcotest.to_alcotest prop_db_matches_map;
          QCheck_alcotest.to_alcotest prop_byte_identity_small;
          QCheck_alcotest.to_alcotest prop_byte_identity_blocks;
        ] );
    ]

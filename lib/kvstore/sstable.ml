(** Immutable sorted string table stored as one file on the underlying
    file system.

    On-file layout:
    {v
      [records ...]                 length-prefixed, key-sorted
      [bloom filter]
      [sparse index]                first key of each block: (key, file offset)
      footer: records_len u32, bloom_len u32, index_len u32, count u32
    v}

    The records fall into blocks, as in LevelDB: a block ends after 16
    records, or before a record that would take it past 4 KiB.  Point
    reads probe the bloom filter, binary-search the sparse index (both
    cached in DRAM after the table is opened, as LevelDB caches index
    and filter blocks) and then read the key's block with one [pread]:
    at least 4 KiB, so a block of one record larger than that is read
    whole.

    A table image is built in one exact-size buffer, and compaction
    copies each winning record's bytes from its input unchanged, so the
    host cost follows the bytes moved (DESIGN.md, "LSM store host
    path"). *)

module type FS = Simurgh_fs_common.Fs_intf.S

type meta = {
  path : string;
  count : int;
  bloom : Bloom.t;
  index : (string * int) array;  (** first key of each block -> its offset *)
  records_len : int;
}

let index_stride = 16
let block_size = 4096
let footer_size = 16

(* The records of a table being built: [size i] is record [i]'s encoded
   size, [key i] its key (asked only of the records the index names),
   and [emit i b off] writes the record at [off] in [b]. *)
type source = {
  n : int;
  size : int -> int;
  key : int -> string;
  emit : int -> Bytes.t -> int -> unit;
}

let of_bindings bindings =
  let a = Array.of_list bindings in
  {
    n = Array.length a;
    size = (fun i -> let k, v = a.(i) in Record.encoded_size k v);
    key = (fun i -> fst a.(i));
    emit = (fun i b off -> let k, v = a.(i) in ignore (Record.encode_into b off k v));
  }

(* The sorted runs [data] (record sections of [counts] records each,
   oldest first) merged: for each key the newest run's record wins,
   tombstones are dropped, and every winning record is copied byte for
   byte. *)
let merge data counts =
  let nr = Array.length data in
  let pos = Array.make nr 0 and left = Array.copy counts in
  let advance r =
    let len = Record.size_at data.(r) pos.(r) in
    pos.(r) <- pos.(r) + len;
    left.(r) <- left.(r) - 1;
    len
  in
  let key_cmp r o = Record.compare_keys data.(r) pos.(r) data.(o) pos.(o) in
  (* The unfinished runs, ordered by their current key; on a tie the
     newer run (higher index) comes first.  One run usually holds most
     records, so it mostly stays in front and a step costs two key
     comparisons. *)
  let order = Array.make nr 0 and live = ref 0 in
  let insert r =
    if left.(r) > 0 && pos.(r) < Bytes.length data.(r) then begin
      let j = ref 0 in
      while
        !j < !live
        && let c = key_cmp r order.(!j) in
           c > 0 || (c = 0 && r < order.(!j))
      do
        incr j
      done;
      for i = !live downto !j + 1 do
        order.(i) <- order.(i - 1)
      done;
      order.(!j) <- r;
      incr live
    end
  in
  let pop () =
    let r = order.(0) in
    decr live;
    for i = 0 to !live - 1 do
      order.(i) <- order.(i + 1)
    done;
    r
  in
  let total = Array.fold_left ( + ) 0 counts in
  let out_run = Array.make total 0 in
  let out_off = Array.make total 0 and out_len = Array.make total 0 in
  let n = ref 0 in
  for r = 0 to nr - 1 do
    insert r
  done;
  while !live > 0 do
    let b = pop () in
    (* older runs on the same key lose *)
    while !live > 0 && key_cmp order.(0) b = 0 do
      let r = pop () in
      ignore (advance r);
      insert r
    done;
    let tomb = Record.is_tombstone data.(b) pos.(b) in
    out_run.(!n) <- b;
    out_off.(!n) <- pos.(b);
    out_len.(!n) <- advance b;
    if not tomb then incr n;
    insert b
  done;
  let rec_data i = data.(out_run.(i)) in
  {
    n = !n;
    size = (fun i -> out_len.(i));
    key =
      (fun i ->
        let d = rec_data i and o = out_off.(i) in
        Bytes.sub_string d (o + Record.header_size) (Record.key_len d o));
    emit = (fun i b off -> Bytes.blit (rec_data i) out_off.(i) b off out_len.(i));
  }

(* The whole table image in one exact-size buffer, and its meta. *)
let build path src =
  (* pass 1: the index entries and every section's size *)
  let entries = ref [] and records_len = ref 0 and index_len = ref 0 in
  let block_start = ref 0 and in_block = ref 0 in
  for i = 0 to src.n - 1 do
    let size = src.size i in
    if i = 0 || !in_block = index_stride || !records_len - !block_start + size > block_size
    then begin
      let k = src.key i in
      entries := (k, !records_len) :: !entries;
      index_len := !index_len + 8 + String.length k;
      block_start := !records_len;
      in_block := 0
    end;
    incr in_block;
    records_len := !records_len + size
  done;
  let records_len = !records_len and index_len = !index_len in
  let index = Array.of_list (List.rev !entries) in
  let bloom = Bloom.create (max 1 src.n) in
  let bloom_len = Bloom.serialized_size bloom in
  let img = Bytes.create (records_len + bloom_len + index_len + footer_size) in
  (* pass 2: the records, each key hashed where it lands *)
  let off = ref 0 in
  for i = 0 to src.n - 1 do
    src.emit i img !off;
    Bloom.add_hash bloom
      (Bloom.hash_sub img (!off + Record.header_size) (Record.key_len img !off));
    off := !off + src.size i
  done;
  Bloom.write_into bloom img records_len;
  let off = ref (records_len + bloom_len) in
  Array.iter
    (fun (k, roff) ->
      let klen = String.length k in
      Record.set_u32 img !off klen;
      Bytes.blit_string k 0 img (!off + 4) klen;
      Record.set_u32 img (!off + 4 + klen) roff;
      off := !off + 8 + klen)
    index;
  Record.set_u32 img !off records_len;
  Record.set_u32 img (!off + 4) bloom_len;
  Record.set_u32 img (!off + 8) index_len;
  Record.set_u32 img (!off + 12) src.n;
  (img, { path; count = src.n; bloom; index; records_len })

module Make (F : FS) = struct
  let write_image ?ctx fs path src =
    let img, meta = build path src in
    let fd = F.openf ?ctx fs (Simurgh_fs_common.Types.creat Simurgh_fs_common.Types.wronly) path in
    ignore (F.append ?ctx fs fd img);
    F.fsync ?ctx fs fd;
    F.close ?ctx fs fd;
    meta

  (** Write [bindings] (sorted, tombstones included) to [path]. *)
  let write ?ctx fs path bindings = write_image ?ctx fs path (of_bindings bindings)

  (* The record section of a table, read whole through a fresh handle. *)
  let read_records ?ctx fs meta =
    let fd = F.openf ?ctx fs Simurgh_fs_common.Types.rdonly meta.path in
    let data = F.pread ?ctx fs fd ~pos:0 ~len:meta.records_len in
    F.close ?ctx fs fd;
    data

  (** Merge [inputs] (oldest first) into a new table at [path] (see
      {!merge}).  The inputs are read in order, each through its own
      open/pread/close. *)
  let compact ?ctx fs path inputs =
    let inputs = Array.of_list inputs in
    let data = Array.map (read_records ?ctx fs) inputs in
    write_image ?ctx fs path (merge data (Array.map (fun m -> m.count) inputs))

  (** Re-open an existing table: read footer, bloom and index. *)
  let open_ ?ctx fs path =
    let st = F.stat ?ctx fs path in
    let size = st.Simurgh_fs_common.Types.size in
    let fd = F.openf ?ctx fs Simurgh_fs_common.Types.rdonly path in
    let footer = F.pread ?ctx fs fd ~pos:(size - footer_size) ~len:footer_size in
    let records_len = Record.get_u32 footer 0 in
    let bloom_len = Record.get_u32 footer 4 in
    let index_len = Record.get_u32 footer 8 in
    let count = Record.get_u32 footer 12 in
    let bloom_bytes = F.pread ?ctx fs fd ~pos:records_len ~len:bloom_len in
    let index_bytes =
      F.pread ?ctx fs fd ~pos:(records_len + bloom_len) ~len:index_len
    in
    F.close ?ctx fs fd;
    let index = ref [] in
    let off = ref 0 in
    while !off < index_len do
      let klen = Record.get_u32 index_bytes !off in
      let k = Bytes.sub_string index_bytes (!off + 4) klen in
      let recoff = Record.get_u32 index_bytes (!off + 4 + klen) in
      index := (k, recoff) :: !index;
      off := !off + 8 + klen
    done;
    {
      path;
      count;
      bloom = Bloom.of_bytes bloom_bytes;
      index = Array.of_list (List.rev !index);
      records_len;
    }

  (* Slot of the largest index entry with key <= [key]. *)
  let index_floor meta key =
    let lo = ref 0 and hi = ref (Array.length meta.index - 1) in
    if !hi < 0 || fst meta.index.(0) > key then None
    else begin
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if fst meta.index.(mid) <= key then lo := mid else hi := mid - 1
      done;
      Some !lo
    end

  (* Byte range [start, stop) of the block at index slot [j]. *)
  let block meta j =
    let start = snd meta.index.(j) in
    let next =
      if j + 1 < Array.length meta.index then snd meta.index.(j + 1) else meta.records_len
    in
    (start, min meta.records_len (start + max block_size (next - start)))

  (** [get] with the key's Bloom hash already computed, so one hash
      serves every table a lookup probes. *)
  let get_hashed ?ctx fs ~fd meta ~hash key =
    if not (Bloom.mem_hash meta.bloom hash) then None
    else
      match index_floor meta key with
      | None -> None
      | Some j ->
          (* the key's block holds it if present *)
          let start, stop = block meta j in
          let chunk = F.pread ?ctx fs fd ~pos:start ~len:(stop - start) in
          let len = Bytes.length chunk in
          (* keys compared in place; a record cut off at the window's edge
             ends the search unread *)
          let rec scan off =
            if off + Record.header_size > len then None
            else
              let kend = off + Record.header_size + Record.key_len chunk off in
              let tomb = Record.is_tombstone chunk off in
              let next = if tomb then kend else kend + Record.get_u32 chunk (off + 4) in
              if next > len then None
              else
                let c = Record.compare_key chunk off key in
                if c = 0 then
                  Some (if tomb then None else Some (Bytes.sub_string chunk kend (next - kend)))
                else if c > 0 then None
                else scan next
          in
          scan 0

  (** Point lookup through an already-open table handle (the database
      keeps a table cache, like LevelDB).  Returns [None] if the key is
      certainly absent, [Some None] for a tombstone, [Some (Some v)] for
      a live value. *)
  let get ?ctx fs ~fd meta key = get_hashed ?ctx fs ~fd meta ~hash:(Bloom.hash key) key

  (** Stream every record. *)
  let iter ?ctx fs meta f =
    let data = read_records ?ctx fs meta in
    let off = ref 0 in
    let remaining = ref meta.count in
    while !remaining > 0 && !off < Bytes.length data do
      let k, v, next = Record.decode data !off in
      f k v;
      off := next;
      decr remaining
    done

  (** Stream records starting near [start_key], reading at most
      [byte_budget] bytes through the open handle (range scans). *)
  let iter_from ?ctx fs ~fd meta ~start_key ~byte_budget f =
    let start = match index_floor meta start_key with
      | Some j -> snd meta.index.(j)
      | None -> 0
    in
    let stop = min meta.records_len (start + byte_budget) in
    if stop > start then begin
      let data = F.pread ?ctx fs fd ~pos:start ~len:(stop - start) in
      let off = ref 0 in
      (try
         while !off + 8 <= Bytes.length data do
           let k, v, next = Record.decode data !off in
           if k >= start_key then f k v;
           off := next
         done
       with Invalid_argument _ -> ())
    end
end

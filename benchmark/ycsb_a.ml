(** [ycsb-a]: YCSB workload A over the LSM store, closed loop, 4 clients
    (the Fig. 9 setting).

    Requests are 50% get and 50% update over a scrambled Zipf (0.99).
    The store is preloaded with 36,000 records of 232 bytes (a 24-byte
    key, a 200-byte value), 32 times the 256 KiB memtable, so most gets
    read SSTables through [pread].  Values are 200 bytes, not YCSB's
    1 KiB, because an SSTable point read scans one 4 KiB window per
    16-record index stride: with 1 KiB values most preloaded keys are
    unreadable, and the oracle below rejects the run.  This
    is the application path of Figs. 9 and 10: kvstore, the FS data path
    (WAL [append], SSTable [pread], create and unlink on flush and
    compaction) and the block allocator.  Compaction stalls under the
    store's writer lock show only in the tail.  After the timed phase the
    power is cut and the store's image recovered. *)

open Common

type size = { records : int; clients : int; per : int; region_mb : int }

let full = { records = 36000; clients = 4; per = 6000; region_mb = 64 }
let small = { records = 2000; clients = 4; per = 300; region_mb = 16 }
let value_size = 200
let key_size = 24

type inputs = {
  size : size;
  keys : string array;  (** key of record [i] *)
  get : bool array;  (** per request, client-major *)
  target : int array;  (** record each request reads or updates *)
}

let prepare ~seed size =
  let n = size.clients * size.per in
  let z = Gen.zipf size.records in
  let r = Gen.rng ~seed 1 in
  let get = Array.make n false and target = Array.make n 0 in
  for i = 0 to n - 1 do
    get.(i) <- Gen.int r 2 = 0;
    target.(i) <- Gen.zipf_scrambled z r
  done;
  { size; keys = Array.init size.records (Printf.sprintf "user%020d"); get; target }

(* A value is its tag, a separator and filler; the oracle reads the tag
   back. *)
let value tag =
  let b = Bytes.make value_size '.' in
  Bytes.blit_string tag 0 b 0 (String.length tag);
  Bytes.set b (String.length tag) '|';
  Bytes.unsafe_to_string b

let has_tag v tag =
  let n = String.length tag in
  String.length v = value_size && v.[n] = '|' && String.sub v 0 n = tag

module Make (F : Probe.FS with type t = Fs.t and type fd = Fs.fd) = struct
  module Db = Simurgh_kvstore.Db.Make (F)

  let trial inp =
    let sz = inp.size in
    let latest = Array.init sz.records (Printf.sprintf "load.%d") in
    let heap0 = heap_words () in
    let (fs, db), setup_s =
      timed (fun () ->
          let fs = Fs.mkfs ~euid:0 (Region.create (sz.region_mb * 1024 * 1024)) in
          let db = Db.open_ fs in
          Array.iteri (fun i k -> Db.put db k (value latest.(i))) inp.keys;
          (fs, db))
    in
    let machine = Machine.create () in
    let cm = machine.Machine.cm in
    let used, space_check = space_probe fs in
    let live = fi (sz.records * (key_size + value_size)) in
    let space = ref 0.0 and samples = ref 0 in
    let bad = ref [] in
    let puts = ref 0 in
    let st0 = Db.stats db in
    let flushes0 = st0.Simurgh_kvstore.Db.flushes and compactions0 = st0.Simurgh_kvstore.Db.compactions in
    let before = snap fs in
    Trace.reset ();
    let run, cost =
      measure (fun () ->
          closed_loop machine ~clients:sz.clients ~per:sz.per (fun ctx c k ->
              let id = (c * sz.per) + k in
              let r = inp.target.(id) in
              if inp.get.(id) then begin
                match F.span "kvstore.get" ctx (fun () -> Db.get ~ctx db inp.keys.(r)) with
                | Some v when has_tag v latest.(r) -> ()
                | _ -> if List.length !bad < 5 then bad := Printf.sprintf "get %s: not its latest put %s" inp.keys.(r) latest.(r) :: !bad
              end
              else begin
                let tag = Printf.sprintf "c%d.%d" c k in
                F.span "kvstore.put" ctx (fun () -> Db.put ~ctx db inp.keys.(r) (value tag));
                (* engine order is execution order: each request runs whole *)
                latest.(r) <- tag;
                incr puts
              end;
              if id land 63 = 0 then begin
                space := !space +. used ();
                incr samples
              end))
    in
    let heap_mb = heap_mb heap0 in
    let after = snap fs in
    let n = sz.clients * sz.per in
    let sum_lat = sum run.lat in
    let st = Db.stats db in
    let violations = List.rev !bad @ space_check () in
    let rc = recover_clean (Fs.region fs) in
    let layers =
      layer_metrics machine ~before ~after ~requests:n ~sum_lat ~makespan:run.makespan
        ~user_bytes:(fi (!puts * (key_size + value_size)))
      @ trace_metrics cm ~requests:n ~sum_lat ~wall_s:cost.wall_s
      @ [
          ("kvstore.flushes", fi (st.Simurgh_kvstore.Db.flushes - flushes0));
          ("kvstore.compactions", fi (st.Simurgh_kvstore.Db.compactions - compactions0));
          ( "kvstore.fs_bytes_per_put",
            per (Trace.sum "fs." (fun s -> fi s.Trace.bytes)) (fi !puts) );
        ]
      @ rc.rlayers
    in
    {
      setup_s = [ setup_s ];
      scored_s = cost.host_s;
      scored = n;
      cost;
      requests = n;
      failed = run.failures;
      virt =
        {
          lat = run.lat;
          kind = Bytes.init n (fun i -> if inp.get.(i) then '\001' else '\000');
          completed = n;
          makespan = run.makespan;
          space_used = !space;
          space_live = live *. fi !samples;
          recovery_cycles = rc.cycles;
        };
      layers;
      heap_mb;
      notes = [];
      violations = violations @ rc.rbad;
    }
end

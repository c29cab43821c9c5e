(* Tests for the simulated NVMM region: accessors, persistence semantics
   (clwb/sfence/ntstore/crash) and persistent pointers. *)

open Simurgh_nvmm

let mk ?mode () = Region.create ?mode (1 lsl 20)

(* --- accessors ----------------------------------------------------------- *)

let test_scalar_roundtrips () =
  let r = mk () in
  Region.write_u8 r 0 0xab;
  Alcotest.(check int) "u8" 0xab (Region.read_u8 r 0);
  Region.write_u16 r 10 0xbeef;
  Alcotest.(check int) "u16" 0xbeef (Region.read_u16 r 10);
  Region.write_u32 r 20 0xdeadbeef;
  Alcotest.(check int) "u32" 0xdeadbeef (Region.read_u32 r 20);
  Region.write_u62 r 30 0x1234_5678_9abc;
  Alcotest.(check int) "u62" 0x1234_5678_9abc (Region.read_u62 r 30)

let test_bytes_roundtrip () =
  let r = mk () in
  Region.write_string r 100 "simurgh";
  Alcotest.(check string) "bytes" "simurgh"
    (Bytes.to_string (Region.read_bytes r 100 7))

let test_zero () =
  let r = mk () in
  Region.write_string r 0 "xxxxxxxx";
  Region.zero r 0 8;
  Alcotest.(check string) "zeroed" (String.make 8 '\000')
    (Bytes.to_string (Region.read_bytes r 0 8))

let test_bounds_check () =
  let r = mk () in
  Alcotest.check_raises "oob"
    (Invalid_argument
       "Region: access [1048576, 1048577) outside region of 1048576 bytes")
    (fun () -> ignore (Region.read_u8 r (1 lsl 20)))

let prop_u62_roundtrip =
  QCheck.Test.make ~name:"u62 roundtrip" ~count:500
    QCheck.(pair (int_range 0 1000) (int_bound ((1 lsl 40) - 1)))
    (fun (off, v) ->
      let r = mk () in
      Region.write_u62 r (off * 8) v;
      Region.read_u62 r (off * 8) = v)

(* --- persistence (strict mode) ------------------------------------------- *)

let test_unflushed_lost_on_crash () =
  let r = mk ~mode:Region.Strict () in
  Region.write_string r 0 "volatile";
  Alcotest.(check string) "visible before crash" "volatile"
    (Bytes.to_string (Region.read_bytes r 0 8));
  Region.crash r;
  Alcotest.(check string) "lost after crash" (String.make 8 '\000')
    (Bytes.to_string (Region.read_bytes r 0 8))

let test_clwb_alone_not_durable () =
  let r = mk ~mode:Region.Strict () in
  Region.write_string r 0 "pending!";
  Region.clwb r 0 8;
  Region.crash r;
  (* clwb without sfence gives no guarantee *)
  Alcotest.(check string) "lost" (String.make 8 '\000')
    (Bytes.to_string (Region.read_bytes r 0 8))

let test_clwb_sfence_durable () =
  let r = mk ~mode:Region.Strict () in
  Region.write_string r 0 "durable!";
  Region.clwb r 0 8;
  Region.sfence r;
  Region.crash r;
  Alcotest.(check string) "survived" "durable!"
    (Bytes.to_string (Region.read_bytes r 0 8))

let test_ntstore_needs_fence () =
  let r = mk ~mode:Region.Strict () in
  Region.ntstore r 0 (Bytes.of_string "ntstore!");
  Region.crash r;
  Alcotest.(check string) "wc buffer lost" (String.make 8 '\000')
    (Bytes.to_string (Region.read_bytes r 0 8));
  Region.ntstore r 0 (Bytes.of_string "ntstore!");
  Region.sfence r;
  Region.crash r;
  Alcotest.(check string) "fenced survives" "ntstore!"
    (Bytes.to_string (Region.read_bytes r 0 8))

let test_partial_flush () =
  let r = mk ~mode:Region.Strict () in
  (* two distinct cache lines; only the first is persisted *)
  Region.write_string r 0 "first";
  Region.write_string r 128 "second";
  Region.persist r 0 5;
  Region.crash r;
  Alcotest.(check string) "first survived" "first"
    (Bytes.to_string (Region.read_bytes r 0 5));
  Alcotest.(check string) "second lost" (String.make 6 '\000')
    (Bytes.to_string (Region.read_bytes r 128 6))

let test_unpersisted_lines_counter () =
  let r = mk ~mode:Region.Strict () in
  Alcotest.(check int) "clean" 0 (Region.unpersisted_lines r);
  Region.write_u8 r 0 1;
  Region.write_u8 r 200 1;
  Alcotest.(check int) "two dirty lines" 2 (Region.unpersisted_lines r);
  Region.persist r 0 256;
  Alcotest.(check int) "flushed" 0 (Region.unpersisted_lines r)

let test_crash_image_subsets () =
  let r = mk ~mode:Region.Strict () in
  (* three dirty lines; the adversary evicts only the middle one early *)
  Region.write_string r 0 "line0";
  Region.write_string r 128 "line1";
  Region.write_string r 256 "line2";
  Region.crash_image r ~keep:(fun ln -> ln = 2);
  Alcotest.(check string) "dropped line lost" (String.make 5 '\000')
    (Bytes.to_string (Region.read_bytes r 0 5));
  Alcotest.(check string) "evicted line survived" "line1"
    (Bytes.to_string (Region.read_bytes r 128 5));
  Alcotest.(check string) "other dropped line lost" (String.make 5 '\000')
    (Bytes.to_string (Region.read_bytes r 256 5));
  Alcotest.(check int) "overlay drained" 0 (Region.unpersisted_lines r)

let test_pending_lines_and_persist_all () =
  let r = mk ~mode:Region.Strict () in
  Region.write_u8 r 0 1;
  Region.write_u8 r 130 1;
  Region.write_u8 r 300 1;
  Alcotest.(check (list int)) "pending sorted" [ 0; 2; 4 ]
    (Region.pending_lines r);
  Region.persist_all r;
  Alcotest.(check (list int)) "drained" [] (Region.pending_lines r);
  Region.crash r;
  Alcotest.(check int) "persist_all made data durable" 1 (Region.read_u8 r 300)

let test_poison_scrub () =
  let r = mk () in
  Region.write_string r 0 "healthy";
  Region.poison r 64 1;
  Alcotest.(check bool) "range_poisoned sees it" true
    (Region.range_poisoned r 0 256);
  Alcotest.(check bool) "disjoint range clean" false
    (Region.range_poisoned r 256 64);
  Alcotest.(check int) "one poisoned line" 1 (Region.poisoned_lines r);
  (* loads fault on the poisoned line only *)
  Alcotest.check_raises "load faults" (Region.Media_error 64) (fun () ->
      ignore (Region.read_u8 r 70));
  Alcotest.check_raises "wide load crossing the line faults"
    (Region.Media_error 64) (fun () -> ignore (Region.read_bytes r 0 128));
  Alcotest.(check string) "load off the poisoned line fine" "healthy"
    (Bytes.to_string (Region.read_bytes r 0 7));
  (* stores fault too: the line is unusable until scrubbed *)
  Alcotest.check_raises "store faults" (Region.Media_error 64) (fun () ->
      Region.write_u62 r 64 42);
  Region.scrub r 64 1;
  Region.write_u62 r 64 42;
  Alcotest.(check int) "scrubbed line usable again" 42 (Region.read_u62 r 64);
  Alcotest.(check bool) "media errors counted" true
    ((Region.stats r).Region.media_errors >= 3)

let test_checkpoint_restore () =
  let r = mk ~mode:Region.Strict () in
  Region.write_string r 0 "durable!";
  Region.persist r 0 8;
  Region.write_string r 128 "volatile";
  let cp = Region.checkpoint r in
  (* diverge: persist the volatile line, overwrite the durable one *)
  Region.persist r 128 8;
  Region.write_string r 0 "clobber!";
  Region.persist r 0 8;
  Region.restore r cp;
  Alcotest.(check string) "image restored" "durable!"
    (Bytes.to_string (Region.read_bytes r 0 8));
  Alcotest.(check string) "overlay restored" "volatile"
    (Bytes.to_string (Region.read_bytes r 128 8));
  Region.crash r;
  Alcotest.(check string) "restored overlay still volatile"
    (String.make 8 '\000')
    (Bytes.to_string (Region.read_bytes r 128 8))

(* Checkpoints and restores cost the pages that changed: the
   [page_copies] count moves by exactly the pages copied or filled. *)
let test_checkpoint_page_costs () =
  let page = 4096 in
  (* [f ()], checking that it copied or filled [want] pages of [r] *)
  let ck_on r name want f =
    let c0 = (Region.stats r).Region.page_copies in
    let v = f () in
    Alcotest.(check int) name want ((Region.stats r).Region.page_copies - c0);
    v
  in
  let r = Region.create ((8 * page) + 100) in
  let ck name want f = ck_on r name want f in
  let blank = ck "fresh region: nothing to copy" 0 (fun () -> Region.checkpoint r) in
  (* k = 4 distinct pages: 0, 2 (twice), 5 and the partial tail page *)
  Region.write_u62 r 0 1;
  Region.write_string r (2 * page) "two";
  Region.write_u8 r ((2 * page) + 99) 2;
  Region.zero r ((5 * page) + 8) 16;
  Region.write_u32 r ((8 * page) + 90) 3;
  let cp1 = ck "checkpoint copies the k written pages" 4 (fun () -> Region.checkpoint r) in
  let cp2 = ck "no stores since: nothing to copy" 0 (fun () -> Region.checkpoint r) in
  (* j = 3 pages touched: page 0, and pages 6 and 7 by one store *)
  Region.write_u62 r 0 9;
  ck "restore rewinds the j touched pages" 3 (fun () ->
      Region.write_string r ((7 * page) - 2) "abcd";
      Region.restore r cp2);
  Alcotest.(check int) "page 0 rewound" 1 (Region.read_u62 r 0);
  Alcotest.(check string) "straddled pages rewound" "\000\000\000\000"
    (Bytes.to_string (Region.read_bytes r ((7 * page) - 2) 4));
  (* a restore stamps the pages it rewinds, so the next restore
     rewinds them again even though their contents match *)
  ck "restore right after a restore" 3 (fun () -> Region.restore r cp1);
  (* the 4 pages written before cp1 and pages 0, 6, 7: zero-filled *)
  ck "older checkpoint: pages changed since it" 6 (fun () -> Region.restore r blank);
  Alcotest.(check string) "blank again" (String.make 8 '\000')
    (Bytes.to_string (Region.read_bytes r (2 * page) 8));
  (* the rewound pages count as changed for the next checkpoint, and a
     newer checkpoint still restores over them *)
  ck "checkpoint after a restore" 6 (fun () -> ignore (Region.checkpoint r));
  ck "newer checkpoint after an older restore" 6 (fun () -> Region.restore r cp1);
  Alcotest.(check string) "cp1 contents" "two"
    (Bytes.to_string (Region.read_bytes r (2 * page) 3));
  (* Strict: a store stays in the overlay until the fence commits it *)
  let s = Region.create ~mode:Region.Strict (4 * page) in
  ignore (Region.checkpoint s);
  Region.write_u62 s page 7;
  ck_on s "overlay store: no page changed" 0 (fun () -> ignore (Region.checkpoint s));
  Region.persist s page 8;
  ck_on s "fence commits one page" 1 (fun () -> ignore (Region.checkpoint s))

(* The image is sparse: a page is allocated by the first store of a
   non-zero byte, and only then.  Loads, [zero] and zero-valued stores
   leave absent pages absent; checkpoints and restores neither allocate
   nor free; a saved image loads back with its all-zero pages absent. *)
let test_sparse_pages () =
  let page = Region.page_size in
  let resident r = (Region.stats r).Region.resident_pages in
  let r = Region.create ((8 * page) + 100) in
  let ck_resident name want = Alcotest.(check int) name want (resident r) in
  (* never-written pages read zeros through every accessor *)
  Alcotest.(check int) "u8" 0 (Region.read_u8 r 5);
  Alcotest.(check int) "u16 across pages" 0 (Region.read_u16 r (page - 1));
  Alcotest.(check int) "u32 across pages" 0 (Region.read_u32 r ((2 * page) - 2));
  Alcotest.(check int) "u62 across pages" 0 (Region.read_u62 r ((3 * page) - 4));
  Alcotest.(check (pair int int)) "u62 pair across pages" (0, 0)
    (Region.read_u62_pair r ((4 * page) - 8));
  Alcotest.(check string) "bytes over four pages" (String.make (3 * page) '\000')
    (Bytes.to_string (Region.read_bytes r (page / 2) (3 * page)));
  Alcotest.(check bool) "equal_string over three pages" true
    (Region.equal_string r 100 (String.make (2 * page) '\000'));
  ck_resident "loads allocate nothing" 0;
  Region.zero r 0 (8 * page);
  Region.write_u62 r 64 0;
  Region.write_u62_pair r ((2 * page) - 8) 0 0;
  Region.write_bytes r page (Bytes.make (2 * page) '\000');
  ck_resident "zero and zero-valued stores allocate nothing" 0;
  (* a straddling word allocates the pages its non-zero bytes reach *)
  Region.write_u16 r ((5 * page) - 1) 0x0100;
  ck_resident "only the page of the non-zero byte" 1;
  Alcotest.(check int) "straddler reads back" 0x0100
    (Region.read_u16 r ((5 * page) - 1));
  Region.write_u62 r ((2 * page) - 4) 0x1234_5678_9abc;
  ck_resident "both pages of a non-zero straddler" 3;
  let cp = Region.checkpoint r in
  Region.write_string r ((7 * page) + 10) "tail";
  Region.zero r ((2 * page) - 4) 8;
  ck_resident "zero keeps a page allocated" 4;
  Region.restore r cp;
  ck_resident "restore frees nothing" 4;
  Alcotest.(check int) "restored straddler" 0x1234_5678_9abc
    (Region.read_u62 r ((2 * page) - 4));
  Alcotest.(check string) "page allocated since the checkpoint is zero again"
    "\000\000\000\000"
    (Bytes.to_string (Region.read_bytes r ((7 * page) + 10) 4));
  let path = Filename.temp_file "simurgh" ".img" in
  Region.save_to_file r path;
  let loaded = Region.load_from_file path in
  Sys.remove path;
  Alcotest.(check int) "saved size" (Region.size r) (Region.size loaded);
  Alcotest.(check int) "all-zero pages load absent" 3 (resident loaded);
  Alcotest.(check bool) "loaded image equal" true
    (Region.media_digest loaded = Region.media_digest r)

let test_foreign_checkpoint_rejected () =
  let a = Region.create 8192 and b = Region.create 8192 in
  let cp = Region.checkpoint a in
  Alcotest.check_raises "another region's checkpoint"
    (Invalid_argument "Region.restore: checkpoint of another region")
    (fun () -> Region.restore b cp);
  Region.restore a cp

let prop_strict_persist_roundtrip =
  QCheck.Test.make ~name:"strict: persisted writes survive crash" ~count:100
    QCheck.(pair (int_range 0 4000) (string_of_size (Gen.int_range 1 64)))
    (fun (off, s) ->
      let r = mk ~mode:Region.Strict () in
      Region.write_string r off s;
      Region.persist r off (String.length s);
      Region.crash r;
      Bytes.to_string (Region.read_bytes r off (String.length s)) = s)

let test_fast_mode_crash_rejected () =
  let r = mk () in
  Region.write_string r 0 "keep";
  (* Fast mode has no volatile state: a "crash test" would vacuously
     pass, so crash/crash_image refuse to run instead of no-oping. *)
  Alcotest.check_raises "crash raises in fast mode"
    (Invalid_argument "Region.crash_image: region is in Fast mode")
    (fun () -> Region.crash r);
  Alcotest.check_raises "crash_image raises in fast mode"
    (Invalid_argument "Region.crash_image: region is in Fast mode")
    (fun () -> Region.crash_image r ~keep:(fun _ -> true))

let test_save_load_roundtrip () =
  let r = mk () in
  Region.write_string r 1000 "on disk";
  let path = Filename.temp_file "simurgh" ".img" in
  Region.save_to_file r path;
  let r2 = Region.load_from_file path in
  Sys.remove path;
  Alcotest.(check int) "size" (Region.size r) (Region.size r2);
  Alcotest.(check string) "contents" "on disk"
    (Bytes.to_string (Region.read_bytes r2 1000 7))

let test_save_excludes_unflushed () =
  let r = mk ~mode:Region.Strict () in
  Region.write_string r 0 "flushed!";
  Region.persist r 0 8;
  Region.write_string r 100 "volatile";
  let path = Filename.temp_file "simurgh" ".img" in
  Region.save_to_file r path;
  let r2 = Region.load_from_file path in
  Sys.remove path;
  Alcotest.(check string) "persisted part saved" "flushed!"
    (Bytes.to_string (Region.read_bytes r2 0 8));
  Alcotest.(check string) "unflushed part absent" (String.make 8 '\000')
    (Bytes.to_string (Region.read_bytes r2 100 8))

(* --- differential: wide accessors vs byte-at-a-time reference ------------- *)

(* An independent transcription of the original byte-at-a-time region
   (per-byte overlay access, full-table-scan sfence) over a flat image.
   The word/line granular paged implementation must be bit-identical to
   it, in both modes, including crash-drop behaviour.  [resident] marks
   every page a non-zero byte ever reached in the persistent image: the
   pages the region must have allocated, and the only ones.  Residency
   never goes back, so every copy shares one array. *)
module Ref = struct
  let line_size = 64
  let page_size = 4096

  type t = {
    image : Bytes.t;
    size : int;
    strict : bool;
    overlay : (int, Bytes.t * bool ref) Hashtbl.t;
        (** line -> contents * flushing? *)
    resident : bool array;
  }

  let create ~strict size =
    {
      image = Bytes.make size '\000';
      size;
      strict;
      overlay = Hashtbl.create 64;
      resident = Array.make ((size + page_size - 1) / page_size) false;
    }

  (* store [c] at [off] of the persistent image *)
  let set_image t off c =
    Bytes.set t.image off c;
    if c <> '\000' then t.resident.(off / page_size) <- true

  let resident_pages t =
    Array.fold_left (fun n r -> if r then n + 1 else n) 0 t.resident

  (* pages of the persistent image holding a non-zero byte *)
  let nonzero_pages t =
    let n = ref 0 in
    Array.iteri
      (fun p _ ->
        let base = p * page_size in
        let len = min page_size (t.size - base) in
        if Bytes.exists (fun c -> c <> '\000') (Bytes.sub t.image base len) then
          incr n)
      t.resident;
    !n

  let overlay_line t ln =
    match Hashtbl.find_opt t.overlay ln with
    | Some cell -> cell
    | None ->
        let buf = Bytes.create line_size in
        let base = ln * line_size in
        Bytes.blit t.image base buf 0 (min line_size (t.size - base));
        let cell = (buf, ref false) in
        Hashtbl.replace t.overlay ln cell;
        cell

  let read_byte t off =
    if not t.strict then Char.code (Bytes.get t.image off)
    else
      let ln = off / line_size in
      match Hashtbl.find_opt t.overlay ln with
      | Some (buf, _) -> Char.code (Bytes.get buf (off - (ln * line_size)))
      | None -> Char.code (Bytes.get t.image off)

  let write_byte t off v =
    if not t.strict then set_image t off (Char.chr (v land 0xff))
    else begin
      let ln = off / line_size in
      let buf, fl = overlay_line t ln in
      fl := false;
      Bytes.set buf (off - (ln * line_size)) (Char.chr (v land 0xff))
    end

  let read_u16 t off = read_byte t off lor (read_byte t (off + 1) lsl 8)

  let write_u16 t off v =
    write_byte t off (v land 0xff);
    write_byte t (off + 1) ((v lsr 8) land 0xff)

  let read_u32 t off = read_u16 t off lor (read_u16 t (off + 2) lsl 16)

  let write_u32 t off v =
    write_u16 t off (v land 0xffff);
    write_u16 t (off + 2) ((v lsr 16) land 0xffff)

  let read_u62 t off = read_u32 t off lor (read_u32 t (off + 4) lsl 32)

  let write_u62 t off v =
    write_u32 t off (v land 0xffffffff);
    write_u32 t (off + 4) ((v lsr 32) land 0x3fffffff)

  let read_bytes t off len =
    Bytes.init len (fun i -> Char.chr (read_byte t (off + i)))

  let write_bytes t off src =
    Bytes.iteri (fun i c -> write_byte t (off + i) (Char.code c)) src

  let zero t off len =
    for i = 0 to len - 1 do
      write_byte t (off + i) 0
    done

  let clwb t off len =
    if t.strict then begin
      let first = off / line_size and last = (off + max (len - 1) 0) / line_size in
      for ln = first to last do
        match Hashtbl.find_opt t.overlay ln with
        | Some (_, fl) -> fl := true
        | None -> ()
      done
    end

  let ntstore t off src =
    write_bytes t off src;
    clwb t off (Bytes.length src)

  let sfence t =
    if t.strict then begin
      let committed = ref [] in
      Hashtbl.iter
        (fun ln (buf, fl) ->
          if !fl then begin
            let base = ln * line_size in
            for i = 0 to min line_size (t.size - base) - 1 do
              set_image t (base + i) (Bytes.get buf i)
            done;
            committed := ln :: !committed
          end)
        t.overlay;
      List.iter (Hashtbl.remove t.overlay) !committed
    end

  let persist t off len =
    clwb t off len;
    sfence t

  let crash t = if t.strict then Hashtbl.reset t.overlay

  let unpersisted_lines t = Hashtbl.length t.overlay

  let copy t =
    let overlay = Hashtbl.create 64 in
    Hashtbl.iter
      (fun ln (buf, fl) -> Hashtbl.replace overlay ln (Bytes.copy buf, ref !fl))
      t.overlay;
    { t with image = Bytes.copy t.image; overlay }
end

(* Every op runs on [r] and on [twin], a region of the same mode that a
   no-op access hook keeps on the checked path; [r] takes the fast path
   whenever it is plain.  Return values, exceptions, statistics, guard
   calls and media must agree after every op, and the byte reference
   [m] tracks every op that did not raise.  An op may raise only where
   it must: out of range, or over a poisoned line.  Guard toggles,
   poison, scrub, checkpoint/restore and out-of-range accesses move [r]
   on and off the fast path.  The region spans six 4 KiB pages and a
   partial tail line, a quarter of the accesses (paired words included)
   sit on a page boundary, one bulk access in ten spans three to five
   pages, and the last three checkpoints can each be restored, so older
   ones are restored after newer ones and checkpoints follow restores.
   The pages the region allocates are exactly those a non-zero byte
   reached, and a saved image loads back with its all-zero pages
   absent. *)
let differential_run ~strict ~seed ~ops =
  let page = 4096 in
  let size = (6 * page) + 40 (* partial tail cache line *) in
  let rng = Simurgh_sim.Rng.create (Int64.of_int seed) in
  let rand n = Simurgh_sim.Rng.int rng n in
  let mode = if strict then Region.Strict else Region.Fast in
  let r = Region.create ~mode size in
  let twin = Region.create ~mode size in
  Region.set_access_hook twin (fun ~off:_ ~len:_ ~write:_ -> ());
  let m = ref (Ref.create ~strict size) in
  let guard_calls = (ref 0, ref 0) and guarded = ref false in
  let saved = ref [] in
  let ck name i cond =
    if not cond then
      Alcotest.failf "%s diverged (strict=%b seed=%d op %d)" name strict seed i
  in
  let outcome f region =
    match f region with
    | v -> Ok v
    | exception ((Invalid_argument _ | Region.Media_error _) as e) -> Error e
  in
  (* [f] on both regions ([g] on the twin when given): equal outcomes
     and statistics, and the outcome [expect] allows; [Some v] unless
     it raised *)
  let both ?g ?(expect = `Value) i name f =
    let a = outcome f r in
    let b = outcome (Option.value g ~default:f) twin in
    ck (name ^ " outcome") i (a = b);
    ck (name ^ " stats") i (Region.stats r = Region.stats twin);
    (match (expect, a) with
    | `Value, Error e ->
        Alcotest.failf "%s raised %s (strict=%b seed=%d op %d)" name
          (Printexc.to_string e) strict seed i
    | `Raise, Ok _ ->
        Alcotest.failf "%s did not raise (strict=%b seed=%d op %d)" name strict
          seed i
    | (`Value | `Raise | `Either), _ -> ());
    Result.to_option a
  in
  (* an in-range access of [len] bytes at [off] raises iff it touches a
     poisoned line; like the accessors, a 0-byte access touches the line
     at [off] ([size] is not a multiple of the line size, so [off = size]
     lies on the last line) *)
  let expect_at off len =
    if Region.range_poisoned r (min off (size - 1)) (max len 1) then `Raise
    else `Value
  in
  let store ?expect i name f g = Option.iter g (both ?expect i name f) in
  let load ?g ?expect i name f expect_v =
    Option.iter (fun v -> ck name i (v = expect_v ())) (both ?g ?expect i name f)
  in
  (* [~durable] also reads the persistent image back through a file *)
  let compare_all ?(durable = true) i =
    ck "visible image" i
      (Region.media_digest r = Digest.bytes (Ref.read_bytes !m 0 size));
    if strict then
      ck "unpersisted lines" i
        (Region.unpersisted_lines r = Ref.unpersisted_lines !m);
    if durable then begin
      let path = Filename.temp_file "simurgh_diff" ".img" in
      Region.save_to_file r path;
      let persisted = Region.load_from_file path in
      Sys.remove path;
      ck "persistent image" i
        (Bytes.equal (Region.read_bytes persisted 0 size) !m.Ref.image);
      ck "loaded pages" i
        ((Region.stats persisted).Region.resident_pages = Ref.nonzero_pages !m)
    end
  in
  let boundary () = page * (1 + rand 6) in
  let rand_off len =
    if rand 4 = 0 then max 0 (min (size - len) (boundary () - rand (len + 1)))
    else rand (size - len + 1)
  in
  let rand_len () =
    if rand 10 = 0 then (2 * page) + 1 + rand (2 * page) else rand 300
  in
  (* one value and one payload in eight is zero: a store that must not
     allocate an absent page *)
  let rand_v bound = if rand 8 = 0 then 0 else rand bound in
  let rand_payload len =
    if rand 8 = 0 then Bytes.make len '\000'
    else Bytes.init len (fun _ -> Char.chr (rand 256))
  in
  let read_u8_loop off s region =
    let rec go k =
      k >= String.length s
      || (Region.read_u8 region (off + k) = Char.code s.[k] && go (k + 1))
    in
    go 0
  in
  (* out-of-range: an accessor of [width] bytes just below 0, just
     past the end, or where [off + width] overflows *)
  let out_of_range i =
    let kind = rand 16 in
    let width =
      match kind with
      | 0 | 1 -> 1
      | 2 | 3 -> 2
      | 4 | 5 -> 4
      | 6 | 7 -> 8
      | 8 | 9 -> 16
      | _ -> 1 + rand 20
    in
    let off =
      match rand 5 with
      | 0 -> -1
      | 1 -> -width
      | 2 -> size - width + 1
      | 3 -> max_int - rand width
      | _ -> size + rand 9
    in
    let s = String.make width 'x' in
    let buf = Bytes.create width in
    let oob name f = ignore (both ~expect:`Raise i name f) in
    match kind with
    | 0 -> oob "oob read_u8" (fun r -> Region.read_u8 r off)
    | 1 -> oob "oob write_u8" (fun r -> Region.write_u8 r off 7)
    | 2 -> oob "oob read_u16" (fun r -> Region.read_u16 r off)
    | 3 -> oob "oob write_u16" (fun r -> Region.write_u16 r off 7)
    | 4 -> oob "oob read_u32" (fun r -> Region.read_u32 r off)
    | 5 -> oob "oob write_u32" (fun r -> Region.write_u32 r off 7)
    | 6 -> oob "oob read_u62" (fun r -> Region.read_u62 r off)
    | 7 -> oob "oob write_u62" (fun r -> Region.write_u62 r off 7)
    | 8 -> oob "oob read_u62_pair" (fun r -> Region.read_u62_pair r off)
    | 9 -> oob "oob write_u62_pair" (fun r -> Region.write_u62_pair r off 1 2)
    | 10 -> oob "oob read_bytes" (fun r -> Region.read_bytes r off width)
    | 11 -> oob "oob write_string" (fun r -> Region.write_string r off s)
    | 12 -> oob "oob zero" (fun r -> Region.zero r off width)
    | 13 ->
        (* in range, but the destination/source window is not *)
        let off = rand_off width in
        oob "bad dst read_bytes_into" (fun r ->
            Region.read_bytes_into r off buf ~pos:1 ~len:width);
        oob "bad src write_bytes_from" (fun r ->
            Region.write_bytes_from r off buf ~pos:(-1) ~len:width)
    | _ ->
        (* like the loop it replaces, a mismatch inside the region
           returns false before the first out-of-range byte *)
        ignore
          (both ~expect:`Either i "oob equal_string"
             (fun r -> Region.equal_string r off s)
             ~g:(read_u8_loop off s))
  in
  (* [equal_string] on [r] against the [read_u8] loop on the twin *)
  let equal_string_case i =
    let len = if rand 8 = 0 then (2 * page) + 1 + rand page else 1 + rand 70 in
    let off = rand_off len in
    let cur = Bytes.to_string (Ref.read_bytes !m off len) in
    let flip k =
      String.mapi (fun j c -> if j = k then Char.chr (Char.code c lxor 1) else c) cur
    in
    let kind = rand 5 in
    let s =
      match kind with
      | 0 -> flip 0
      | 1 -> flip (len - 1)
      | 2 | 4 -> cur
      | _ -> ""
    in
    (* kind 4: a poisoned line under the compared bytes *)
    let bad = off + rand len in
    let fresh = kind = 4 && not (Region.range_poisoned r bad 1) in
    if fresh then (Region.poison r bad 1; Region.poison twin bad 1);
    (* the loop reads up to and including the first mismatch *)
    let read = match kind with 0 -> 1 | 3 -> 0 | _ -> len in
    load i "equal_string"
      (fun r -> Region.equal_string r off s)
      ~g:(read_u8_loop off s)
      ~expect:(if read = 0 then `Value else expect_at off read)
      (fun () -> String.equal (String.sub cur 0 (String.length s)) s);
    if fresh then (Region.scrub r bad 1; Region.scrub twin bad 1)
  in
  let save () =
    let cp = (Region.checkpoint r, Region.checkpoint twin, Ref.copy !m) in
    saved := List.filteri (fun k _ -> k < 3) (cp :: !saved)
  in
  for i = 1 to ops do
    (match rand 24 with
    | 0 ->
        let off = rand_off 1 and v = rand_v 256 in
        store i "write_u8" ~expect:(expect_at off 1) (fun r -> Region.write_u8 r off v) (fun () ->
            Ref.write_byte !m off v)
    | 1 ->
        let off = rand_off 2 and v = rand_v 65536 in
        store i "write_u16" ~expect:(expect_at off 2) (fun r -> Region.write_u16 r off v) (fun () ->
            Ref.write_u16 !m off v)
    | 2 ->
        let off = rand_off 4 and v = rand_v max_int in
        store i "write_u32" ~expect:(expect_at off 4) (fun r -> Region.write_u32 r off v) (fun () ->
            Ref.write_u32 !m off v)
    | 3 ->
        let off = rand_off 8 and v = rand_v max_int in
        store i "write_u62" ~expect:(expect_at off 8) (fun r -> Region.write_u62 r off v) (fun () ->
            Ref.write_u62 !m off v)
    | 4 ->
        let off = rand_off 8 in
        load i "read_u8" ~expect:(expect_at off 1) (fun r -> Region.read_u8 r off) (fun () ->
            Ref.read_byte !m off);
        load i "read_u16" ~expect:(expect_at off 2) (fun r -> Region.read_u16 r off) (fun () ->
            Ref.read_u16 !m off);
        load i "read_u32" ~expect:(expect_at off 4) (fun r -> Region.read_u32 r off) (fun () ->
            Ref.read_u32 !m off);
        load i "read_u62" ~expect:(expect_at off 8) (fun r -> Region.read_u62 r off) (fun () ->
            Ref.read_u62 !m off)
    | 5 ->
        let len = rand_len () in
        let off = rand_off len in
        load i "read_bytes" ~expect:(expect_at off len) (fun r -> Region.read_bytes r off len) (fun () ->
            Ref.read_bytes !m off len)
    | 6 ->
        let len = rand_len () in
        let off = rand_off len in
        let src = rand_payload len in
        store i "write_bytes" ~expect:(expect_at off len) (fun r -> Region.write_bytes r off src) (fun () ->
            Ref.write_bytes !m off src)
    | 7 ->
        let len = rand_len () in
        let off = rand_off len in
        let src = rand_payload len in
        store i "write_string" ~expect:(expect_at off len)
          (fun r -> Region.write_string r off (Bytes.to_string src))
          (fun () -> Ref.write_bytes !m off src)
    | 8 ->
        let len = rand_len () in
        let off = rand_off len in
        store i "zero" ~expect:(expect_at off len) (fun r -> Region.zero r off len) (fun () ->
            Ref.zero !m off len)
    | 9 ->
        let len = rand_len () in
        let off = rand_off len in
        let src = rand_payload len in
        store i "ntstore" ~expect:(expect_at off len) (fun r -> Region.ntstore r off src) (fun () ->
            Ref.ntstore !m off src)
    | 10 | 11 ->
        let len = rand_len () in
        let off = rand_off len in
        store i "clwb" (fun r -> Region.clwb r off len) (fun () ->
            Ref.clwb !m off len)
    | 12 | 13 ->
        store i "sfence" Region.sfence (fun () -> Ref.sfence !m)
    | 14 ->
        let len = rand_len () in
        let off = rand_off len in
        store i "persist" (fun r -> Region.persist r off len) (fun () ->
            Ref.persist !m off len)
    | 15 ->
        (* paired-word path (block-allocator node access) *)
        let off =
          if rand 4 = 0 then boundary () - 1 - rand 15
          else 8 * rand (((size - 16) / 8) + 1)
        in
        let v0 = rand_v max_int and v1 = rand_v max_int in
        store i "write_u62_pair" ~expect:(expect_at off 16)
          (fun r -> Region.write_u62_pair r off v0 v1)
          (fun () ->
            Ref.write_u62 !m off v0;
            Ref.write_u62 !m (off + 8) v1);
        load i "read_u62_pair" ~expect:(expect_at off 16) (fun r -> Region.read_u62_pair r off) (fun () ->
            (Ref.read_u62 !m off, Ref.read_u62 !m (off + 8)))
    | 16 ->
        (* power failure at a random point (Strict only: crash raises in
           Fast mode, where there is nothing volatile to lose) *)
        if strict then begin
          Region.crash r;
          Region.crash twin;
          Ref.crash !m
        end
    | 17 ->
        let gr, gt = guard_calls in
        if !guarded then (Region.clear_guard r; Region.clear_guard twin)
        else begin
          Region.set_guard r (fun ~write:_ -> incr gr);
          Region.set_guard twin (fun ~write:_ -> incr gt)
        end;
        guarded := not !guarded
    | 18 ->
        let off = rand_off 1 in
        Region.poison r off 1;
        Region.poison twin off 1
    | 19 ->
        Region.scrub r 0 size;
        Region.scrub twin 0 size
    | 20 -> save ()
    | 21 ->
        if !saved <> [] then begin
          let a, b, c = List.nth !saved (rand (List.length !saved)) in
          store i "restore"
            (fun r -> Region.restore r (if r == twin then b else a))
            (fun () -> m := Ref.copy c);
          compare_all ~durable:false i;
          if rand 2 = 0 then save ()
        end
    | 22 -> out_of_range i
    | _ -> equal_string_case i);
    ck "guard calls" i (!(fst guard_calls) = !(snd guard_calls));
    ck "media" i (Region.media_digest r = Region.media_digest twin);
    ck "resident pages" i
      ((Region.stats r).Region.resident_pages = Ref.resident_pages !m);
    if i mod 100 = 0 then compare_all i
  done;
  compare_all ops;
  if strict then begin
    Region.crash r;
    Region.crash twin;
    Ref.crash !m
  end;
  compare_all (ops + 1)

let test_differential_fast () =
  List.iter (fun seed -> differential_run ~strict:false ~seed ~ops:3000) [ 1; 2; 3 ]

let test_differential_strict () =
  List.iter (fun seed -> differential_run ~strict:true ~seed ~ops:3000) [ 1; 2; 3; 4; 5 ]

(* --- guard ----------------------------------------------------------------- *)

exception Guarded

let test_guard_intercepts () =
  let r = mk () in
  Region.set_guard r (fun ~write:_ -> raise Guarded);
  Alcotest.check_raises "read guarded" Guarded (fun () ->
      ignore (Region.read_u8 r 0));
  Alcotest.check_raises "write guarded" Guarded (fun () ->
      Region.write_u8 r 0 1);
  Region.clear_guard r;
  ignore (Region.read_u8 r 0)

let test_stats_counters () =
  let r = mk () in
  let s0 = Region.stats r in
  Region.write_u8 r 0 1;
  ignore (Region.read_u8 r 0);
  Region.clwb r 0 1;
  Region.sfence r;
  let s1 = Region.stats r in
  Alcotest.(check bool) "counters move" true
    (s1.Region.stores > s0.Region.stores
    && s1.Region.loads > s0.Region.loads
    && s1.Region.flushes > s0.Region.flushes
    && s1.Region.fences > s0.Region.fences)

(* --- pptr ----------------------------------------------------------------- *)

let test_pptr_basics () =
  Alcotest.(check bool) "null" true (Pptr.is_null Pptr.null);
  let p : unit Pptr.t = Pptr.of_offset 4096 in
  Alcotest.(check int) "offset" 4096 (Pptr.offset p);
  Alcotest.(check bool) "eq" true (Pptr.equal p (Pptr.of_offset 4096));
  Alcotest.check_raises "negative"
    (Invalid_argument "Pptr.of_offset: negative offset") (fun () ->
      ignore (Pptr.of_offset (-1)))

let prop_pptr_store_load =
  QCheck.Test.make ~name:"pptr store/load roundtrip" ~count:200
    QCheck.(pair (int_range 0 1000) (int_range 0 ((1 lsl 40) - 1)))
    (fun (slot, off) ->
      let r = mk () in
      let p : unit Pptr.t = Pptr.of_offset off in
      Pptr.store r (slot * 8) p;
      Pptr.equal (Pptr.load r (slot * 8)) p)

let () =
  Alcotest.run "nvmm"
    [
      ( "region",
        [
          Alcotest.test_case "scalar roundtrips" `Quick test_scalar_roundtrips;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "zero" `Quick test_zero;
          Alcotest.test_case "bounds" `Quick test_bounds_check;
          QCheck_alcotest.to_alcotest prop_u62_roundtrip;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "unflushed lost" `Quick
            test_unflushed_lost_on_crash;
          Alcotest.test_case "clwb alone insufficient" `Quick
            test_clwb_alone_not_durable;
          Alcotest.test_case "clwb+sfence durable" `Quick
            test_clwb_sfence_durable;
          Alcotest.test_case "ntstore semantics" `Quick test_ntstore_needs_fence;
          Alcotest.test_case "partial flush" `Quick test_partial_flush;
          Alcotest.test_case "unpersisted counter" `Quick
            test_unpersisted_lines_counter;
          Alcotest.test_case "crash-image eviction subsets" `Quick
            test_crash_image_subsets;
          Alcotest.test_case "pending lines + persist_all" `Quick
            test_pending_lines_and_persist_all;
          Alcotest.test_case "poison/scrub media plane" `Quick
            test_poison_scrub;
          Alcotest.test_case "checkpoint/restore" `Quick
            test_checkpoint_restore;
          Alcotest.test_case "checkpoint/restore page costs" `Quick
            test_checkpoint_page_costs;
          Alcotest.test_case "sparse pages" `Quick test_sparse_pages;
          Alcotest.test_case "foreign checkpoint rejected" `Quick
            test_foreign_checkpoint_rejected;
          Alcotest.test_case "fast-mode crash rejected" `Quick
            test_fast_mode_crash_rejected;
          Alcotest.test_case "save/load roundtrip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "save excludes unflushed" `Quick
            test_save_excludes_unflushed;
          QCheck_alcotest.to_alcotest prop_strict_persist_roundtrip;
        ] );
      ( "differential",
        [
          Alcotest.test_case "wide accessors vs byte reference (fast)" `Quick
            test_differential_fast;
          Alcotest.test_case "wide accessors vs byte reference (strict)" `Quick
            test_differential_strict;
        ] );
      ( "guard+stats",
        [
          Alcotest.test_case "guard intercepts" `Quick test_guard_intercepts;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
        ] );
      ( "pptr",
        [
          Alcotest.test_case "basics" `Quick test_pptr_basics;
          QCheck_alcotest.to_alcotest prop_pptr_store_load;
        ] );
    ]

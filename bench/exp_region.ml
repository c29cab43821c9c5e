(** Run id [region]: wall-clock microbenchmark of the NVMM region data
    path (the substrate every other experiment runs on).

    Reports ns/op and ops/s for u62 load/store, 4 KB blits (page-aligned
    and straddling two pages), the first store into a page and
    Strict-mode persist-barrier cycles, each against a byte-at-a-time
    reference that decomposes the access exactly like the seed
    implementation did (one guard/bounds/stats round per byte).  The
    report table also carries the seed implementation's numbers measured
    on the same machine before the word/line-granular rewrite, for the
    rows it had. *)

open Simurgh_nvmm
module Report = Simurgh_obs.Report

(* Seed-implementation wall-clock numbers (commit cdceb37, byte-at-a-time
   region), measured with the same loops on the machine this reproduction
   is developed on.  Kept as the fixed "before" of the rewrite. *)
let seed_ns =
  [
    ("u62_store_fast", 39.5);
    ("u62_load_fast", 38.6);
    ("blit_4k_write_fast", 106.0);
    ("strict_4k_write_persist", 99393.0);
    ("strict_u62_persist_barrier", 1677.1);
    ("strict_4k_read", 46286.1);
  ]

let time_ns_per_op iters f =
  let t0 = Unix.gettimeofday () in
  f iters;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int iters

(* --- byte-at-a-time reference (the seed decomposition) ----------------- *)

let ref_read_u62 r off =
  let b i = Region.read_u8 r (off + i) in
  let u16 i = b i lor (b (i + 1) lsl 8) in
  let u32 i = u16 i lor (u16 (i + 2) lsl 16) in
  u32 0 lor (u32 4 lsl 32)

let ref_write_u62 r off v =
  let wb i x = Region.write_u8 r (off + i) (x land 0xff) in
  let w16 i x =
    wb i x;
    wb (i + 1) (x lsr 8)
  in
  let w32 i x =
    w16 i x;
    w16 (i + 2) (x lsr 16)
  in
  w32 0 (v land 0xffffffff);
  w32 4 ((v lsr 32) land 0x3fffffff)

let ref_write_bytes r off src =
  for i = 0 to Bytes.length src - 1 do
    Region.write_u8 r (off + i) (Char.code (Bytes.get src i))
  done

let ref_read_bytes r off len =
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set out i (Char.chr (Region.read_u8 r (off + i)))
  done;
  out

(* --- benchmark definitions --------------------------------------------- *)

let run ~scale =
  let title = "region: NVMM data-path microbenchmark (host wall-clock)" in
  Util.header title;
  Report.table ~title
    ~columns:[ "ns_per_op"; "byte_ref_ns_per_op"; "seed_ns_per_op" ];
  Report.note
    "ns_per_op: current word/line-granular implementation; \
     byte_ref_ns_per_op: byte-at-a-time decomposition through the same \
     region (the seed access pattern); seed_ns_per_op: the actual seed \
     implementation measured before the rewrite (commit cdceb37), null \
     for rows added since";
  let bench name ~iters ~main ~reference =
    let iters = max 200 (int_of_float (float_of_int iters *. scale)) in
    (* warm up, then measure *)
    main (min iters 1000);
    let ns = time_ns_per_op iters main in
    reference (min iters 1000);
    let ref_ns = time_ns_per_op iters reference in
    Printf.printf "%-28s %9.1f ns/op  %11.0f ops/s   byte-ref %9.1f ns/op  (%.1fx)\n"
      name ns (1e9 /. ns) ref_ns (ref_ns /. ns);
    Report.row name
      [ ns; ref_ns; Option.value (List.assoc_opt name seed_ns) ~default:nan ]
  in
  let mask = (1 lsl 16) - 1 in
  let fast = Region.create (1 lsl 22) in
  bench "u62_store_fast" ~iters:2_000_000
    ~main:(fun n ->
      for i = 1 to n do
        Region.write_u62 fast ((i land mask) * 8) i
      done)
    ~reference:(fun n ->
      for i = 1 to n do
        ref_write_u62 fast ((i land mask) * 8) i
      done);
  bench "u62_load_fast" ~iters:2_000_000
    ~main:(fun n ->
      let acc = ref 0 in
      for i = 1 to n do
        acc := !acc + Region.read_u62 fast ((i land mask) * 8)
      done;
      Sys.opaque_identity !acc |> ignore)
    ~reference:(fun n ->
      let acc = ref 0 in
      for i = 1 to n do
        acc := !acc + ref_read_u62 fast ((i land mask) * 8)
      done;
      Sys.opaque_identity !acc |> ignore);
  let page = Bytes.make 4096 'x' in
  bench "blit_4k_write_fast" ~iters:100_000
    ~main:(fun n ->
      for i = 1 to n do
        Region.write_bytes fast ((i land 0xff) * 4096) page
      done)
    ~reference:(fun n ->
      for i = 1 to n do
        ref_write_bytes fast ((i land 0xff) * 4096) page
      done);
  (* the same blit, starting mid-page: two pages, the checked path *)
  bench "blit_4k_straddle_fast" ~iters:100_000
    ~main:(fun n ->
      for i = 1 to n do
        Region.write_bytes fast (((i land 0xfe) * 4096) + 2048) page
      done)
    ~reference:(fun n ->
      for i = 1 to n do
        ref_write_bytes fast (((i land 0xfe) * 4096) + 2048) page
      done);
  (* a u62 store into a page never written: each allocates its page, in
     a region made for the loop *)
  let first_touch store n =
    let r = Region.create (n * Region.page_size) in
    for i = 0 to n - 1 do
      store r (i * Region.page_size) (i + 1)
    done
  in
  bench "u62_first_touch_fast" ~iters:20_000
    ~main:(first_touch Region.write_u62)
    ~reference:(first_touch ref_write_u62);
  let strict () = Region.create ~mode:Region.Strict (1 lsl 22) in
  let s1 = strict () and s2 = strict () in
  bench "strict_4k_write_persist" ~iters:4_000
    ~main:(fun n ->
      for i = 1 to n do
        let off = (i land 0xff) * 4096 in
        Region.ntstore s1 off page;
        Region.sfence s1
      done)
    ~reference:(fun n ->
      for i = 1 to n do
        let off = (i land 0xff) * 4096 in
        ref_write_bytes s2 off page;
        Region.clwb s2 off 4096;
        Region.sfence s2
      done);
  let s3 = strict () and s4 = strict () in
  bench "strict_u62_persist_barrier" ~iters:40_000
    ~main:(fun n ->
      for i = 1 to n do
        let off = (i land mask) * 8 in
        Region.write_u62 s3 off i;
        Region.clwb s3 off 8;
        Region.sfence s3
      done)
    ~reference:(fun n ->
      for i = 1 to n do
        let off = (i land mask) * 8 in
        ref_write_u62 s4 off i;
        Region.clwb s4 off 8;
        Region.sfence s4
      done);
  (* dirty the overlay so reads actually merge lines *)
  let s5 = strict () and s6 = strict () in
  Region.write_bytes s5 0 (Bytes.make (1 lsl 20) 'y');
  Region.write_bytes s6 0 (Bytes.make (1 lsl 20) 'y');
  bench "strict_4k_read" ~iters:4_000
    ~main:(fun n ->
      for i = 1 to n do
        Sys.opaque_identity (Region.read_bytes s5 ((i land 0xff) * 4096) 4096)
        |> ignore
      done)
    ~reference:(fun n ->
      for i = 1 to n do
        Sys.opaque_identity (ref_read_bytes s6 ((i land 0xff) * 4096) 4096)
        |> ignore
      done)

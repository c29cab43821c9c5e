(* Tests for the segmented block allocator and the slab metadata-object
   allocator. *)

open Simurgh_nvmm
module B = Simurgh_alloc.Block_alloc
module S = Simurgh_alloc.Slab_alloc

let mk_balloc ?(segments = 4) ?(blocks = 1024) () =
  let region = Region.create (1 lsl 21) in
  let off = 0 in
  let base = 4096 in
  (region, B.format region ~off ~base ~blocks ~block_size:256 ~segments)

let mk_ctx tid =
  let m = Simurgh_sim.Machine.create () in
  Simurgh_sim.Machine.ctx m (Simurgh_sim.Sthread.create tid)

let check_inv b =
  match B.check_invariants b with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("invariant: " ^ e)

(* --- block allocator ------------------------------------------------------ *)

let test_balloc_basic () =
  let _, b = mk_balloc () in
  Alcotest.(check int) "all free" 1024 (B.free_blocks b);
  let a1 = Option.get (B.alloc b 10) in
  let a2 = Option.get (B.alloc b 10) in
  Alcotest.(check bool) "disjoint" true (abs (a1 - a2) >= 10 * 256);
  Alcotest.(check int) "free count" 1004 (B.free_blocks b);
  B.free b ~addr:a1 10;
  B.free b ~addr:a2 10;
  Alcotest.(check int) "restored" 1024 (B.free_blocks b);
  check_inv b

let test_balloc_exhaustion () =
  let _, b = mk_balloc ~segments:2 ~blocks:64 () in
  (* each segment holds 32 blocks; a 33-block request cannot be satisfied *)
  Alcotest.(check bool) "too big" true (B.alloc b 33 = None);
  Alcotest.(check bool) "fits" true (B.alloc b 32 <> None);
  Alcotest.(check bool) "second segment" true (B.alloc b 32 <> None);
  Alcotest.(check bool) "exhausted" true (B.alloc b 1 = None)

let test_balloc_coalescing () =
  let _, b = mk_balloc ~segments:1 ~blocks:100 () in
  let a = Option.get (B.alloc b 100) in
  Alcotest.(check int) "empty" 0 (B.free_blocks b);
  (* free in shuffled chunks; coalescing must rebuild one range *)
  let chunks = [ 30; 0; 60; 10; 40; 80; 20; 50; 90; 70 ] in
  List.iter (fun c -> B.free b ~addr:(a + (c * 256)) 10) chunks;
  Alcotest.(check int) "all back" 100 (B.free_blocks b);
  check_inv b;
  (* a full-size allocation proves the ranges merged *)
  Alcotest.(check bool) "coalesced" true (B.alloc b 100 <> None)

let test_balloc_hint_spreads () =
  let _, b = mk_balloc ~segments:4 ~blocks:1024 () in
  let seg_of addr = (addr - 4096) / 256 / ((1024 + 3) / 4) in
  let segs =
    List.init 16 (fun i -> seg_of (Option.get (B.alloc ~hint:(i * 977) b 1)))
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "multiple segments used" true (List.length segs > 1)

(* The free lists are DRAM state: a second attach sees them only
   through a checkpoint, and an attach that loads none refuses to
   allocate. *)
let test_balloc_attach () =
  let region, b = mk_balloc () in
  let a = Option.get (B.alloc b 5) in
  B.checkpoint b;
  let b2 = B.attach ~load:true region ~off:0 in
  Alcotest.(check int) "checkpoint reloaded" (B.free_blocks b) (B.free_blocks b2);
  B.free b2 ~addr:a 5;
  Alcotest.(check int) "free through reattach" 1024 (B.free_blocks b2);
  let b3 = B.attach ~load:false region ~off:0 in
  Alcotest.check_raises "no lists, no alloc"
    (Invalid_argument
       "Block_alloc.alloc: free lists not loaded (a crash image before \
        recovery's rebuild)")
    (fun () -> ignore (B.alloc b3 1))

let test_balloc_stuck_segment_recovery () =
  let region, b = mk_balloc ~segments:1 ~blocks:64 () in
  (* simulate a crash while holding the segment lock: flag set, stale *)
  Region.write_u8 region 32 1;
  (* without a ctx, segment_is_stuck treats the flag as stale *)
  Alcotest.(check bool) "alloc recovers the lock" true (B.alloc b 1 <> None)

let test_balloc_rebuild () =
  let _, b = mk_balloc ~segments:2 ~blocks:100 () in
  let keep = Option.get (B.alloc b 7) in
  let _lose = Option.get (B.alloc b 5) in
  let first_block = (keep - 4096) / 256 in
  let in_use blk = blk >= first_block && blk < first_block + 7 in
  B.rebuild_free_lists b ~in_use;
  Alcotest.(check int) "only kept range in use" 93 (B.free_blocks b);
  check_inv b

let prop_balloc_random_ops =
  QCheck.Test.make ~name:"block allocator: random alloc/free keeps invariants"
    ~count:60
    QCheck.(list (int_range 1 12))
    (fun sizes ->
      let _, b = mk_balloc ~segments:3 ~blocks:256 () in
      let live = ref [] in
      let total = B.free_blocks b in
      List.iteri
        (fun i n ->
          (match B.alloc ~hint:i b n with
          | Some a ->
              (* no overlap with live ranges *)
              List.iter
                (fun (a', n') ->
                  if a < a' + (n' * 256) && a' < a + (n * 256) then
                    QCheck.Test.fail_report "overlap")
                !live;
              live := (a, n) :: !live
          | None -> ());
          (* free every other allocation *)
          if i mod 2 = 1 then
            match !live with
            | (a, n) :: rest ->
                B.free b ~addr:a n;
                live := rest
            | [] -> ())
        sizes;
      List.iter (fun (a, n) -> B.free b ~addr:a n) !live;
      B.free_blocks b = total
      && match B.check_invariants b with Ok () -> true | Error _ -> false)

(* The media-list allocator the DRAM lists replaced, kept as the
   reference: each segment's list is threaded through the free blocks
   (a [next, count] node at the head of each range, a head word per
   segment), frees insert at the head, a first-fit walk splits the
   tail of the first fitting range, and a walk past the budget (or one
   that fails) coalesces the segment and retries once. *)
module Ref = struct
  let bs = 256
  let base = 4096
  let walk_budget = 48

  type t = { r : Region.t; segs : int; blocks : int }

  let per t = (t.blocks + t.segs - 1) / t.segs
  let head i = 8 * i
  let node t = Region.read_u62_pair t.r

  let create ~segs ~blocks =
    let t = { r = Region.create (1 lsl 21); segs; blocks } in
    for i = 0 to segs - 1 do
      let first = i * per t in
      let count = min (per t) (blocks - first) in
      if count > 0 then begin
        let a = base + (first * bs) in
        Region.write_u62_pair t.r a 0 count;
        Region.write_u62 t.r (head i) a
      end
    done;
    t

  let coalesce t i =
    let rec collect a acc =
      if a = 0 then acc
      else
        let next, c = node t a in
        collect next ((a, c) :: acc)
    in
    let merged =
      List.fold_left
        (fun acc (a, c) ->
          match acc with
          | (pa, pc) :: rest when pa + (pc * bs) = a -> (pa, pc + c) :: rest
          | _ -> (a, c) :: acc)
        []
        (List.sort compare (collect (Region.read_u62 t.r (head i)) []))
    in
    let h =
      List.fold_left
        (fun next (a, c) ->
          Region.write_u62_pair t.r a next c;
          a)
        0 merged
    in
    Region.write_u62 t.r (head i) h

  let rec alloc_in t i n ~may_coalesce =
    let rec walk prev a hops =
      if a = 0 then
        if may_coalesce && hops > 0 then begin
          coalesce t i;
          alloc_in t i n ~may_coalesce:false
        end
        else None
      else if hops > walk_budget && may_coalesce then begin
        coalesce t i;
        alloc_in t i n ~may_coalesce:false
      end
      else
        let next, c = node t a in
        if c >= n then begin
          if c = n then
            Region.write_u62 t.r
              (match prev with None -> head i | Some p -> p)
              next
          else Region.write_u62_pair t.r a next (c - n);
          Some (a + ((c - n) * bs))
        end
        else walk (Some a) next (hops + 1)
    in
    walk None (Region.read_u62 t.r (head i)) 0

  let alloc t ~hint n =
    let start = abs (hint * 0x9e3779b1) mod t.segs in
    let rec sweep k ~again =
      if k >= t.segs then if again then sweep 0 ~again:false else None
      else
        match alloc_in t ((start + k) mod t.segs) n ~may_coalesce:true with
        | Some a -> Some a
        | None -> sweep (k + 1) ~again
    in
    sweep 0 ~again:(t.segs > 1)

  let free t ~addr n =
    let i = min ((addr - base) / bs / per t) (t.segs - 1) in
    Region.write_u62_pair t.r addr (Region.read_u62 t.r (head i)) n;
    Region.write_u62 t.r (head i) addr

  let ranges t =
    List.concat
      (List.init t.segs (fun i ->
           let rec walk a =
             if a = 0 then []
             else
               let next, c = node t a in
               (a, c) :: walk next
           in
           walk (Region.read_u62 t.r (head i))))
end

let ranges b =
  let l = ref [] in
  B.iter_free_ranges b (fun a c -> l := (a, c) :: !l);
  List.rev !l

(* The DRAM lists against the reference: the same calls return the same
   addresses and leave the same ranges in the same list order, and a
   checkpoint reloads them unchanged. *)
let prop_balloc_matches_reference =
  QCheck.Test.make ~name:"block allocator: DRAM lists equal the media lists"
    ~count:200
    QCheck.(
      pair (int_range 1 3)
        (list_of_size
           Gen.(int_range 0 400)
           (make
              Gen.(
                frequency
                  [
                    (* many small allocations and frees grow the lists
                       past the walk budget; large requests then walk
                       them and coalesce *)
                    (4, map2 (fun k n -> (true, k, n)) small_nat (int_range 1 2));
                    (4, map (fun k -> (false, k, 0)) small_nat);
                    (1, map2 (fun k n -> (true, k, n)) small_nat (int_range 8 40));
                  ]))))
    (fun (segs, ops) ->
      let blocks = 250 in
      let region, b = mk_balloc ~segments:segs ~blocks () in
      let r = Ref.create ~segs ~blocks in
      let live = ref [] in
      List.iter
        (fun (is_alloc, k, n) ->
          if is_alloc then begin
            let got = B.alloc ~hint:k b n and want = Ref.alloc r ~hint:k n in
            if got <> want then
              QCheck.Test.fail_reportf "alloc %d blocks: %s, reference %s" n
                (Option.fold ~none:"none" ~some:string_of_int got)
                (Option.fold ~none:"none" ~some:string_of_int want);
            Option.iter (fun a -> live := (a, n) :: !live) got
          end
          else
            match !live with
            | [] -> ()
            | l ->
                let a, n = List.nth l (k mod List.length l) in
                live := List.filter (fun x -> x <> (a, n)) l;
                B.free b ~addr:a n;
                Ref.free r ~addr:a n;
          if ranges b <> Ref.ranges r then
            QCheck.Test.fail_report "free ranges differ from the reference")
        ops;
      B.checkpoint b;
      ranges (B.attach ~load:true region ~off:0) = ranges b)

(* The walk budget's boundary, against the reference: a fit at the 49th
   node is taken without a coalesce. *)
let test_balloc_walk_budget () =
  let _, b = mk_balloc ~segments:1 ~blocks:250 () in
  let r = Ref.create ~segs:1 ~blocks:250 in
  let alloc n =
    let got = B.alloc b n in
    Alcotest.(check (option int)) "reference address" (Ref.alloc r ~hint:0 n) got;
    Option.get got
  in
  let free a n =
    B.free b ~addr:a n;
    Ref.free r ~addr:a n
  in
  let pair = alloc 2 in
  let singles = List.init 95 (fun _ -> alloc 1) in
  free pair 2;
  (* 48 non-adjacent single blocks go on top of the pair *)
  List.iteri (fun i a -> if i mod 2 = 0 then free a 1) singles;
  Alcotest.(check int) "the pair, at the 49th node" pair (alloc 2);
  Alcotest.(check (list (pair int int))) "same lists" (Ref.ranges r) (ranges b)

(* Allocation and free under a ctx touch NVMM only in the segment lock
   words: per segment locked, the busy flag and stamp (two stores, one
   fence) and the release (one store, one fence). *)
let test_balloc_lock_words_only () =
  let region, b = mk_balloc ~segments:4 ~blocks:1024 () in
  let ctx = mk_ctx 0 in
  let words = ref [] in
  B.iter_lock_words b (fun ~off ~len -> words := (off, len) :: !words);
  let stray = ref 0 and locks = ref 0 in
  Region.set_access_hook region (fun ~off ~len ~write ->
      if write then begin
        if not (List.exists (fun (o, l) -> off >= o && off + len <= o + l) !words)
        then incr stray;
        if len = 8 then incr locks
      end);
  let s0 = Region.stats region in
  let live = ref [] in
  for i = 0 to 199 do
    match B.alloc ~ctx ~hint:i b (1 + (i mod 7)) with
    | Some a ->
        live := (a, 1 + (i mod 7)) :: !live;
        if i mod 3 = 0 then begin
          let a, n = List.hd !live in
          live := List.tl !live;
          B.free ~ctx b ~addr:a n
        end
    | None -> ()
  done;
  List.iter (fun (a, n) -> B.free ~ctx b ~addr:a n) !live;
  let s1 = Region.stats region in
  Region.clear_access_hook region;
  Alcotest.(check int) "no store outside a lock word" 0 !stray;
  Alcotest.(check bool) "segments were locked" true (!locks > 0);
  Alcotest.(check int) "three lock-word stores per lock" (3 * !locks)
    (s1.Region.stores - s0.Region.stores);
  Alcotest.(check int) "two fences per lock" (2 * !locks)
    (s1.Region.fences - s0.Region.fences);
  Alcotest.(check int) "all free again" 1024 (B.free_blocks b)

(* --- slab allocator ------------------------------------------------------- *)

let mk_slab ?(obj_size = 64) () =
  let region = Region.create (1 lsl 21) in
  let balloc =
    B.format region ~off:0 ~base:8192 ~blocks:4096 ~block_size:256 ~segments:2
  in
  (region, S.format region ~off:4096 ~obj_size ~block_alloc:balloc ~objs_per_seg:16)

let test_slab_alloc_commit_free () =
  let _, s = mk_slab () in
  let p = Option.get (S.alloc s) in
  Alcotest.(check bool) "unprocessed after alloc" true (S.is_unprocessed s p);
  S.commit s p;
  Alcotest.(check bool) "live after commit" true (S.is_live s p);
  Alcotest.(check int) "one live" 1 (S.live_objects s);
  S.free s p;
  Alcotest.(check int) "flags cleared" 0 (S.obj_flags s p);
  Alcotest.(check int) "none live" 0 (S.live_objects s)

let test_slab_free_zeroes () =
  let region, s = mk_slab () in
  let p = Option.get (S.alloc s) in
  Region.write_string region p "garbage!";
  S.commit s p;
  S.free s p;
  Alcotest.(check string) "payload zeroed" (String.make 8 '\000')
    (Bytes.to_string (Region.read_bytes region p 8))

let test_slab_two_phase_free () =
  let _, s = mk_slab () in
  let p = Option.get (S.alloc s) in
  S.commit s p;
  S.begin_free s p;
  (* state 01: mid-deallocation *)
  Alcotest.(check int) "dirty only" 2 (S.obj_flags s p);
  S.finish_free s p;
  Alcotest.(check int) "free" 0 (S.obj_flags s p)

let test_slab_no_double_alloc () =
  let _, s = mk_slab () in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 64 do
    match S.alloc s with
    | Some p ->
        Alcotest.(check bool) "fresh address" false (Hashtbl.mem seen p);
        Hashtbl.replace seen p ()
    | None -> ()
  done

let test_slab_grows_on_demand () =
  let _, s = mk_slab () in
  (* objs_per_seg = 16; allocating 40 needs three segments *)
  let ps = List.init 40 (fun _ -> S.alloc s) in
  Alcotest.(check bool) "all served" true (List.for_all Option.is_some ps);
  let segs = ref 0 in
  S.iter_segments s (fun _ -> incr segs);
  Alcotest.(check bool) "grew" true (!segs >= 3)

let test_slab_rebuild_reclaims () =
  let _, s = mk_slab () in
  let keep = Option.get (S.alloc s) in
  S.commit s keep;
  let lost = Option.get (S.alloc s) in
  (* crash: [lost] stays in state 11 *)
  ignore lost;
  S.rebuild_cache ~reclaim:true s;
  Alcotest.(check int) "unprocessed reclaimed" 0 (S.obj_flags s lost);
  Alcotest.(check bool) "live object kept" true (S.is_live s keep);
  Alcotest.(check int) "one live" 1 (S.live_objects s)

let test_slab_reuse_after_free () =
  let _, s = mk_slab () in
  let p = Option.get (S.alloc s) in
  S.commit s p;
  S.free s p;
  (* the freed slot eventually comes back *)
  let reused = ref false in
  for _ = 1 to 32 do
    match S.alloc s with
    | Some q when q = p -> reused := true
    | Some q -> S.commit s q
    | None -> ()
  done;
  Alcotest.(check bool) "slot recycled" true !reused

let prop_slab_states =
  QCheck.Test.make ~name:"slab: live count tracks alloc/free" ~count:100
    QCheck.(list bool)
    (fun ops ->
      let _, s = mk_slab () in
      let live = ref [] in
      List.iter
        (fun alloc_op ->
          if alloc_op then (
            match S.alloc s with
            | Some p ->
                S.commit s p;
                live := p :: !live
            | None -> ())
          else
            match !live with
            | p :: rest ->
                S.free s p;
                live := rest
            | [] -> ())
        ops;
      S.live_objects s = List.length !live)

(* --- per-thread caches (scaled configuration) ----------------------------- *)

(* With thread affinity on, a thread keeps allocating from the segment
   its last allocation succeeded in (initially tid mod segments), and
   moves on only when that segment runs dry. *)
let test_balloc_thread_affinity () =
  let _, b = mk_balloc ~segments:4 ~blocks:1024 () in
  B.set_thread_segments b true;
  let seg_of addr = (addr - 4096) / 256 / (1024 / 4) in
  let c1 = mk_ctx 1 and c3 = mk_ctx 3 in
  let a1 = Option.get (B.alloc ~ctx:c1 b 4) in
  let a1' = Option.get (B.alloc ~ctx:c1 b 4) in
  let a3 = Option.get (B.alloc ~ctx:c3 b 4) in
  Alcotest.(check int) "tid 1 starts in segment 1" 1 (seg_of a1);
  Alcotest.(check int) "tid 1 stays in segment 1" 1 (seg_of a1');
  Alcotest.(check int) "tid 3 starts in segment 3" 3 (seg_of a3);
  (* drain segment 1: the thread must fall over to another segment and
     re-home there *)
  let rec drain () =
    match B.alloc ~ctx:c1 b 4 with
    | Some a when seg_of a = 1 -> drain ()
    | Some a -> a
    | None -> Alcotest.fail "allocator exhausted prematurely"
  in
  let moved = drain () in
  let next = Option.get (B.alloc ~ctx:c1 b 4) in
  Alcotest.(check int) "re-homed" (seg_of moved) (seg_of next);
  (* ctx-less callers still use the hint path *)
  Alcotest.(check bool) "no ctx still works" true (B.alloc b 4 <> None);
  check_inv b

let test_slab_tcache () =
  let _, s = mk_slab () in
  S.set_thread_caches s true;
  let c0 = mk_ctx 0 and c1 = mk_ctx 1 in
  (* interleaved allocs from two threads: all distinct, all live *)
  let take ctx n =
    List.init n (fun _ ->
        let p = Option.get (S.alloc ~ctx s) in
        S.commit ~ctx s p;
        p)
  in
  let p0 = take c0 40 and p1 = take c1 40 in
  let all = p0 @ p1 in
  let uniq = List.sort_uniq compare all in
  Alcotest.(check int) "no double handout" (List.length all)
    (List.length uniq);
  Alcotest.(check int) "live" 80 (S.live_objects s);
  (* free far more than we allocate from one thread: the spill path must
     return objects to the shared cache, where the other thread can get
     them again *)
  List.iter (fun p -> S.free ~ctx:c0 s p) all;
  Alcotest.(check int) "all freed" 0 (S.live_objects s);
  let again = take c1 80 in
  Alcotest.(check int) "recirculated" 80 (List.length (List.sort_uniq compare again));
  Alcotest.(check int) "live again" 80 (S.live_objects s)

(* rebuild_cache must also clear the per-thread caches: a stale cached
   address re-handed after recovery would double-allocate *)
let test_slab_tcache_rebuild () =
  let _, s = mk_slab () in
  S.set_thread_caches s true;
  let c0 = mk_ctx 0 in
  let p = Option.get (S.alloc ~ctx:c0 s) in
  S.commit ~ctx:c0 s p;
  S.free ~ctx:c0 s p;
  (* p now sits in tid 0's private cache *)
  S.rebuild_cache s;
  let n = 32 in
  let ps =
    List.init n (fun _ ->
        let q = Option.get (S.alloc ~ctx:c0 s) in
        S.commit ~ctx:c0 s q;
        q)
  in
  Alcotest.(check int) "no duplicates after rebuild" n
    (List.length (List.sort_uniq compare ps));
  Alcotest.(check int) "live tracked" n (S.live_objects s)

let () =
  Alcotest.run "alloc"
    [
      ( "block",
        [
          Alcotest.test_case "basic" `Quick test_balloc_basic;
          Alcotest.test_case "exhaustion" `Quick test_balloc_exhaustion;
          Alcotest.test_case "coalescing" `Quick test_balloc_coalescing;
          Alcotest.test_case "hint spreads" `Quick test_balloc_hint_spreads;
          Alcotest.test_case "attach" `Quick test_balloc_attach;
          Alcotest.test_case "stuck segment recovery" `Quick
            test_balloc_stuck_segment_recovery;
          Alcotest.test_case "rebuild" `Quick test_balloc_rebuild;
          QCheck_alcotest.to_alcotest prop_balloc_random_ops;
          QCheck_alcotest.to_alcotest prop_balloc_matches_reference;
          Alcotest.test_case "walk budget" `Quick test_balloc_walk_budget;
          Alcotest.test_case "lock words only" `Quick
            test_balloc_lock_words_only;
        ] );
      ( "slab",
        [
          Alcotest.test_case "alloc/commit/free" `Quick
            test_slab_alloc_commit_free;
          Alcotest.test_case "free zeroes" `Quick test_slab_free_zeroes;
          Alcotest.test_case "two-phase free" `Quick test_slab_two_phase_free;
          Alcotest.test_case "no double alloc" `Quick test_slab_no_double_alloc;
          Alcotest.test_case "grows" `Quick test_slab_grows_on_demand;
          Alcotest.test_case "rebuild reclaims" `Quick
            test_slab_rebuild_reclaims;
          Alcotest.test_case "reuse after free" `Quick
            test_slab_reuse_after_free;
          QCheck_alcotest.to_alcotest prop_slab_states;
        ] );
      ( "thread-caches",
        [
          Alcotest.test_case "block segment affinity" `Quick
            test_balloc_thread_affinity;
          Alcotest.test_case "slab tcache" `Quick test_slab_tcache;
          Alcotest.test_case "slab tcache rebuild" `Quick
            test_slab_tcache_rebuild;
        ] );
    ]

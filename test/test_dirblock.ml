(* Tests for the hash-map directory blocks: map semantics, chain growth,
   busy flags and the rename log. *)

open Simurgh_nvmm
open Simurgh_core

(* A standalone directory chain backed by a raw region + a bump allocator
   for blocks and file entries. *)
type harness = {
  region : Region.t;
  mutable cursor : int;
  head : int;
}

let mk ?(ring = 0) () =
  let region = Region.create (16 * 1024 * 1024) in
  let h = { region; cursor = 4096; head = 4096 } in
  let size = Dirblock.size_for_rows ~ring Dirblock.first_rows in
  Dirblock.init region h.head ~rows:Dirblock.first_rows ~ring ();
  h.cursor <- h.cursor + size + 64;
  h

let alloc_block h rows =
  let b = h.cursor in
  h.cursor <- h.cursor + Dirblock.size_for_rows rows + 64;
  Dirblock.init h.region b ~rows ();
  b

let alloc_fentry h name =
  let e = h.cursor in
  h.cursor <- h.cursor + Fentry.payload_size + 200;
  Fentry.init h.region e ~name ~dir:false ~symlink:false ~target:1
    ~alloc_spill:(fun n ->
      let s = h.cursor in
      h.cursor <- h.cursor + n + 8;
      s);
  e

(* Insert mimicking Fs.insert_entry's growth rule. *)
let insert h name =
  let e = alloc_fentry h name in
  let p = Dirblock.probe h.region ~head:h.head ~name in
  (if p.Dirblock.blk <> 0 then
     Dirblock.set_slot h.region p.Dirblock.blk p.Dirblock.row p.Dirblock.slot e
   else
     let last = p.Dirblock.last in
     let rows = min Dirblock.max_rows (2 * Dirblock.rows h.region last) in
     let nb = alloc_block h rows in
     Dirblock.set_next h.region last nb;
     Dirblock.set_slot h.region nb (Name_hash.hash name mod rows) 0 e);
  e

let find h name =
  match Dirblock.find h.region ~head:h.head ~name with
  | Some (_, _, _, e), _ -> Some e
  | None, _ -> None

let remove h name =
  match Dirblock.find h.region ~head:h.head ~name with
  | Some (b, row, s, _), _ ->
      Dirblock.set_slot h.region b row s 0;
      true
  | None, _ -> false

(* --- tests ----------------------------------------------------------------- *)

let test_insert_find () =
  let h = mk () in
  let e = insert h "hello.txt" in
  Alcotest.(check (option int)) "found" (Some e) (find h "hello.txt");
  Alcotest.(check (option int)) "absent" None (find h "other.txt")

let test_name_readback () =
  let h = mk () in
  let e = insert h "some_name.c" in
  Alcotest.(check string) "name" "some_name.c" (Fentry.name h.region e);
  Alcotest.(check bool) "equals" true
    (Fentry.name_equals h.region e "some_name.c");
  Alcotest.(check bool) "differs" false
    (Fentry.name_equals h.region e "some_name.d")

let test_long_names_spill () =
  let h = mk () in
  let name = String.make 120 'n' in
  let e = insert h name in
  Alcotest.(check string) "long name" name (Fentry.name h.region e);
  Alcotest.(check bool) "spill recorded" true (Fentry.spill h.region e <> None);
  Alcotest.(check (option int)) "findable" (Some e) (find h name)

let test_chain_grows_geometrically () =
  let h = mk () in
  (* overfill: first block holds 64x8 = 512 slots *)
  for i = 0 to 1999 do
    ignore (insert h (Printf.sprintf "file%04d" i))
  done;
  let rows = ref [] in
  Dirblock.iter_chain h.region h.head (fun _ b ->
      rows := Dirblock.rows h.region b :: !rows);
  let rows = List.rev !rows in
  Alcotest.(check bool) "chain short" true (List.length rows <= 4);
  (* rows double along the chain *)
  let rec check_doubling = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check int) "doubles" (2 * a) b;
        check_doubling rest
    | _ -> ()
  in
  check_doubling rows;
  Alcotest.(check int) "all present" 2000
    (Dirblock.count_entries h.region h.head);
  (* every file is findable *)
  for i = 0 to 1999 do
    Alcotest.(check bool)
      (Printf.sprintf "find file%04d" i)
      true
      (find h (Printf.sprintf "file%04d" i) <> None)
  done

let test_remove_and_reuse () =
  let h = mk () in
  for i = 0 to 99 do
    ignore (insert h (Printf.sprintf "f%d" i))
  done;
  Alcotest.(check bool) "removed" true (remove h "f42");
  Alcotest.(check (option int)) "gone" None (find h "f42");
  Alcotest.(check int) "count" 99 (Dirblock.count_entries h.region h.head);
  (* the freed slot is reused *)
  let len_before = Dirblock.chain_length h.region h.head in
  ignore (insert h "f42bis");
  Alcotest.(check int) "no growth needed" len_before
    (Dirblock.chain_length h.region h.head)

let test_busy_flags () =
  let h = mk () in
  let row = Dirblock.lock_row_of_name "x" in
  Alcotest.(check bool) "clear" false (Dirblock.busy h.region h.head row);
  Dirblock.set_busy h.region h.head row true;
  Alcotest.(check bool) "set" true (Dirblock.busy h.region h.head row);
  Dirblock.set_busy h.region h.head row false;
  Alcotest.(check bool) "cleared" false (Dirblock.busy h.region h.head row)

let test_log_roundtrip () =
  let h = mk () in
  Alcotest.(check int) "legacy nslots" 1 (Dirblock.Log.nslots h.region h.head);
  Alcotest.(check bool) "idle" false
    (Dirblock.Log.pending h.region h.head ~slot:0);
  Dirblock.Log.write h.region h.head ~slot:0 ~epoch:0 ~src:111 ~dst:222
    ~fentry:333 ~new_entry:444;
  Alcotest.(check bool) "pending" true
    (Dirblock.Log.pending h.region h.head ~slot:0);
  let s, d, f, n = Dirblock.Log.read h.region h.head ~slot:0 in
  Alcotest.(check (list int)) "payload" [ 111; 222; 333; 444 ] [ s; d; f; n ];
  Dirblock.Log.clear h.region h.head ~slot:0;
  Alcotest.(check bool) "cleared" false
    (Dirblock.Log.pending h.region h.head ~slot:0)

(* The log ring: slots are independent, epochs round-trip, and
   [pending_slots] reports exactly the pending subset. *)
let test_log_ring_roundtrip () =
  let ring = 4 in
  let h = mk ~ring () in
  Alcotest.(check int) "ring size" ring (Dirblock.ring h.region h.head);
  Alcotest.(check int) "nslots" ring (Dirblock.Log.nslots h.region h.head);
  Alcotest.(check bool) "fresh ring empty" false
    (Dirblock.Log.any_pending h.region h.head);
  (* write slots 1 and 3, leave 0 and 2 clear *)
  Dirblock.Log.write h.region h.head ~slot:1 ~epoch:7 ~src:11 ~dst:22
    ~fentry:33 ~new_entry:44;
  Dirblock.Log.write h.region h.head ~slot:3 ~epoch:5 ~src:55 ~dst:66
    ~fentry:77 ~new_entry:88;
  Alcotest.(check bool) "some pending" true
    (Dirblock.Log.any_pending h.region h.head);
  Alcotest.(check bool) "slot 0 clear" false
    (Dirblock.Log.pending h.region h.head ~slot:0);
  Alcotest.(check (list (pair int int)))
    "pending slots with epochs"
    [ (1, 7); (3, 5) ]
    (Dirblock.Log.pending_slots h.region h.head);
  let s, d, f, n = Dirblock.Log.read h.region h.head ~slot:3 in
  Alcotest.(check (list int)) "slot 3 payload" [ 55; 66; 77; 88 ]
    [ s; d; f; n ];
  Alcotest.(check int) "slot 3 epoch" 5
    (Dirblock.Log.epoch h.region h.head ~slot:3);
  (* clearing one slot leaves the other *)
  Dirblock.Log.clear h.region h.head ~slot:1;
  Alcotest.(check (list (pair int int)))
    "slot 3 survives"
    [ (3, 5) ]
    (Dirblock.Log.pending_slots h.region h.head);
  Dirblock.Log.clear h.region h.head ~slot:3;
  Alcotest.(check bool) "ring empty again" false
    (Dirblock.Log.any_pending h.region h.head)

(* A ring block still behaves as a map (slot area shifted by the ring). *)
let test_ring_block_map () =
  let h = mk ~ring:8 () in
  let e = insert h "hello.txt" in
  Alcotest.(check (option int)) "found" (Some e) (find h "hello.txt");
  Alcotest.(check (option int)) "absent" None (find h "other.txt");
  Alcotest.(check bool) "removed" true (remove h "hello.txt");
  Alcotest.(check int) "count" 0 (Dirblock.count_entries h.region h.head);
  Alcotest.(check int) "size accounts for ring"
    (Dirblock.size_for_rows ~ring:8 Dirblock.first_rows)
    (Dirblock.size_of h.region h.head)

let test_block_empty () =
  let h = mk () in
  Alcotest.(check bool) "fresh empty" true (Dirblock.block_empty h.region h.head);
  ignore (insert h "f");
  Alcotest.(check bool) "not empty" false
    (Dirblock.block_empty h.region h.head);
  ignore (remove h "f");
  Alcotest.(check bool) "empty again" true
    (Dirblock.block_empty h.region h.head)

let test_hash_deterministic () =
  (* literal FNV-1a values: persistent rows depend on these bits *)
  List.iter
    (fun (name, h) ->
      Alcotest.(check int) ("hash " ^ name) h (Name_hash.hash name))
    [
      ("linux-5.6.14", 2548741454560399613);
      ("", 3673995259836664009);
      ("a", 3159546800138910499);
    ];
  Alcotest.(check bool) "row in range" true
    (let r = Name_hash.row "x" ~rows:64 in
     r >= 0 && r < 64)

(* Model-based: the chain behaves as a string-keyed map. *)
let prop_map_semantics =
  let op_gen =
    QCheck.Gen.(
      pair (int_range 0 2) (int_range 0 40)
      |> map (fun (op, k) -> (op, Printf.sprintf "key%02d" k)))
  in
  QCheck.Test.make ~name:"dirblock behaves as a map" ~count:80
    (QCheck.make QCheck.Gen.(list_size (int_range 1 200) op_gen))
    (fun ops ->
      let h = mk () in
      let model = Hashtbl.create 64 in
      List.for_all
        (fun (op, key) ->
          match op with
          | 0 ->
              (* insert if absent *)
              if not (Hashtbl.mem model key) then begin
                let e = insert h key in
                Hashtbl.replace model key e
              end;
              true
          | 1 ->
              let removed = remove h key in
              let expected = Hashtbl.mem model key in
              Hashtbl.remove model key;
              removed = expected
          | _ ->
              let found = find h key in
              let expected = Hashtbl.find_opt model key in
              found = expected)
        ops
      && Dirblock.count_entries h.region h.head = Hashtbl.length model)

(* --- probe ------------------------------------------------------------------ *)

(* [probe] is the two walks it replaced, fused: over random chains of
   1-4 blocks whose query rows are full or partly free and may hold the
   query name, it returns what [find] returns on a hit and, on a miss,
   [find_free_slot]'s slot (and its last block when the row is full
   everywhere) after visiting every block. *)
let prop_probe_is_find_and_free_slot =
  let block_gen =
    QCheck.Gen.(pair bool (list_repeat Dirblock.slots_per_row (int_range 0 9)))
  in
  QCheck.Test.make ~name:"probe = find + find_free_slot" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 4) block_gen))
    (fun blocks ->
      let h = mk () in
      let q = "query" in
      let hash = Name_hash.hash q in
      let others = ref 0 in
      let prev = ref 0 in
      List.iteri
        (fun i (full, slots) ->
          let b =
            if i = 0 then h.head
            else alloc_block h (Dirblock.first_rows lsl i)
          in
          if !prev <> 0 then Dirblock.set_next h.region !prev b;
          prev := b;
          let row = hash mod Dirblock.rows h.region b in
          List.iteri
            (fun s k ->
              (* 0-2 free (unless the row is full), 9 the query name *)
              if k = 9 then
                Dirblock.set_slot h.region b row s (alloc_fentry h q)
              else if k > 2 || full then begin
                incr others;
                Dirblock.set_slot h.region b row s
                  (alloc_fentry h (Printf.sprintf "other%d" !others))
              end)
            slots)
        blocks;
      let p = Dirblock.probe h.region ~head:h.head ~name:q in
      match Dirblock.find h.region ~head:h.head ~name:q with
      | Some (b, row, s, e), hops ->
          p.Dirblock.found = e
          && (p.Dirblock.blk, p.Dirblock.row, p.Dirblock.slot) = (b, row, s)
          && p.Dirblock.hops = hops
      | None, _ -> (
          p.Dirblock.found = 0
          && p.Dirblock.hops = Dirblock.chain_length h.region h.head
          &&
          match Dirblock.find_free_slot h.region ~head:h.head ~hash with
          | Some slot, _, _ ->
              (p.Dirblock.blk, p.Dirblock.row, p.Dirblock.slot) = slot
          | None, _, last -> p.Dirblock.blk = 0 && p.Dirblock.last = last))

(* One walk per create: in a directory with a 3-block chain, a create,
   an O_CREAT|O_EXCL open and a rename to an absent name each load the
   target name's row of every chain block exactly once. *)
let test_one_walk_per_create () =
  let module Fs = Simurgh_core.Fs in
  let module Types = Simurgh_fs_common.Types in
  let region = Region.create (32 * 1024 * 1024) in
  let fs = Fs.mkfs ~euid:0 region in
  Fs.mkdir fs "/d";
  let names_where pred =
    Seq.ints 0
    |> Seq.map (Printf.sprintf "n%d")
    |> Seq.filter (fun n -> pred (Name_hash.hash n))
  in
  (* 17 names of one 128-row: 8 fill the head row, 8 the second block's
     row, the 17th grows a third block *)
  Seq.take 17 (names_where (fun h -> h mod 128 = 5))
  |> Seq.iter (fun n -> Fs.create_file fs ("/d/" ^ n));
  let head = Fentry.dirblock region (snd (Fs.resolve fs "/d")) in
  Alcotest.(check int) "three chain blocks" 3
    (Dirblock.chain_length region head);
  (* targets and the rename source in distinct lock rows *)
  let in_row r =
    Option.get (Seq.uncons (names_where (fun h -> h mod 64 = r))) |> fst
  in
  Fs.create_file fs ("/d/" ^ in_row 20);
  let walks name op =
    let hash = Name_hash.hash name in
    let lines = ref [] in
    Dirblock.iter_chain region head (fun _ b ->
        let row = hash mod Dirblock.rows region b in
        lines := Dirblock.f_slot region b row 0 :: !lines);
    let lines = Array.of_list (List.rev !lines) in
    let loads = Array.make (Array.length lines) 0 in
    Region.set_access_hook region (fun ~off ~len ~write ->
        if not write then
          Array.iteri
            (fun i l ->
              if off < l + Dirblock.row_bytes && l < off + len then
                loads.(i) <- loads.(i) + 1)
            lines);
    Fun.protect ~finally:(fun () -> Region.clear_access_hook region) op;
    Alcotest.(check (array int))
      (name ^ ": each chain row loaded once")
      (Array.make (Array.length lines) 1)
      loads
  in
  let a = in_row 9 and b = in_row 10 and c = in_row 11 in
  walks a (fun () -> Fs.create_file fs ("/d/" ^ a));
  walks b (fun () ->
      Fs.close fs
        (Fs.openf fs { (Types.creat Types.wronly) with Types.excl = true }
           ("/d/" ^ b)));
  walks c (fun () -> Fs.rename fs ("/d/" ^ in_row 20) ("/d/" ^ c))

let () =
  Alcotest.run "dirblock"
    [
      ( "map",
        [
          Alcotest.test_case "insert/find" `Quick test_insert_find;
          Alcotest.test_case "name readback" `Quick test_name_readback;
          Alcotest.test_case "long names" `Quick test_long_names_spill;
          Alcotest.test_case "geometric growth" `Quick
            test_chain_grows_geometrically;
          Alcotest.test_case "remove and reuse" `Quick test_remove_and_reuse;
          Alcotest.test_case "hash deterministic" `Quick test_hash_deterministic;
          QCheck_alcotest.to_alcotest prop_map_semantics;
        ] );
      ( "flags",
        [
          Alcotest.test_case "busy flags" `Quick test_busy_flags;
          Alcotest.test_case "log roundtrip" `Quick test_log_roundtrip;
          Alcotest.test_case "log ring roundtrip" `Quick test_log_ring_roundtrip;
          Alcotest.test_case "ring block as map" `Quick test_ring_block_map;
          Alcotest.test_case "block empty" `Quick test_block_empty;
        ] );
      ( "probe",
        [
          QCheck_alcotest.to_alcotest prop_probe_is_find_and_free_slot;
          Alcotest.test_case "one walk per create" `Quick
            test_one_walk_per_create;
        ] );
    ]

(** [meta-churn]: a mail-server namespace mix, closed loop, 16 clients
    (the Table 2 varmail setting).

    Eight shared directories each hold 2,000 pre-created names.  Each
    client delivers new files (create, append 4 KiB, fsync, close),
    deletes its oldest own file, moves own files to a random directory
    (7 in 8 cross-directory, the Fig. 5 rename log), stats pre-created
    names and opens and closes them.  This is the decentralized
    metadata path — entry gate, resolve, directory rows and busy flags,
    rename log, slab allocator, persist fences — with almost no data
    copy.  Clients only mutate their own files, so no request can fail
    whatever the interleaving.  After the timed phase the power is cut
    and the namespace recovered. *)

open Common
module Types = Simurgh_fs_common.Types

type size = { dirs : int; names : int; clients : int; stock : int; per : int; region_mb : int }

let full = { dirs = 8; names = 2000; clients = 16; stock = 48; per = 3000; region_mb = 96 }
let small = { dirs = 4; names = 100; clients = 4; stock = 12; per = 200; region_mb = 16 }
let payload = Bytes.make 4096 'm'
let drift = 8

type op =
  | Deliver of string
  | Delete of string
  | Move of string * string
  | Stat of string
  | Open_close of string

type inputs = {
  size : size;
  stock : string list array;  (** each client's files at start *)
  ops : op array;  (** client-major *)
  final : (int, string list) Hashtbl.t;  (** own names per directory at the end *)
}

let dir d = Printf.sprintf "/d%d" d
let dir_of path = int_of_string (String.sub path 2 (String.index_from path 1 '/' - 2))
let base path = String.sub path (String.rindex path '/' + 1) (String.length path - String.rindex path '/' - 1)
let precreated d i = Printf.sprintf "/d%d/n%04d" d i

(* The op stream is planned against a model of each client's own files
   (oldest first), so every delete and move names a file that exists
   (a client never holds fewer than [stock - drift] files). *)
let prepare ~seed size =
  let ops = Array.make (size.clients * size.per) (Stat "") in
  let final = Hashtbl.create 8 in
  let stock =
    Array.init size.clients (fun c ->
        let r = Gen.rng ~seed (100 + c) in
        let fresh = ref 0 in
        let name d =
          incr fresh;
          Printf.sprintf "/d%d/c%02d-%06d" d c !fresh
        in
        let own = Queue.create () in
        for _ = 1 to size.stock do
          Queue.push (ref (name (Gen.int r size.dirs))) own
        done;
        let stock = Queue.fold (fun acc p -> !p :: acc) [] own |> List.rev in
        for k = 0 to size.per - 1 do
          let u = Gen.int r 100 in
          (* a client's file count stays within [drift] of its stock,
             so live bytes (space_amp's base) do not random-walk *)
          let u =
            let n = Queue.length own in
            if u < 25 && n >= size.stock + drift then 25
            else if u >= 25 && u < 50 && n <= size.stock - drift then 0
            else u
          in
          ops.((c * size.per) + k) <-
            (if u < 25 then begin
               let p = name (Gen.int r size.dirs) in
               Queue.push (ref p) own;
               Deliver p
             end
             else if u < 50 then Delete !(Queue.pop own)
             else if u < 70 then begin
               let i = Gen.int r (Queue.length own) in
               let cell = Seq.fold_lefti (fun acc j x -> if j = i then Some x else acc) None (Queue.to_seq own) |> Option.get in
               let src = !cell in
               cell := name (Gen.int r size.dirs);
               Move (src, !cell)
             end
             else if u < 90 then Stat (precreated (Gen.int r size.dirs) (Gen.int r size.names))
             else Open_close (precreated (Gen.int r size.dirs) (Gen.int r size.names)))
        done;
        Queue.iter
          (fun p ->
            let d = dir_of !p in
            Hashtbl.replace final d (base !p :: Option.value ~default:[] (Hashtbl.find_opt final d)))
          own;
        stock)
  in
  { size; stock; ops; final }

let wr_excl = { (Types.creat Types.wronly) with Types.excl = true }

module Make (F : Probe.FS with type t = Fs.t and type fd = Fs.fd) = struct
  let write_file ?ctx fs p =
    let fd = F.openf ?ctx fs wr_excl p in
    ignore (F.append ?ctx fs fd payload);
    F.fsync ?ctx fs fd;
    F.close ?ctx fs fd

  let trial inp =
    let sz = inp.size in
    let heap0 = heap_words () in
    let fs, setup_s =
      timed (fun () ->
          let fs = Fs.mkfs ~euid:0 (Region.create (sz.region_mb * 1024 * 1024)) in
          for d = 0 to sz.dirs - 1 do
            F.mkdir fs (dir d);
            for i = 0 to sz.names - 1 do
              F.create_file fs (precreated d i)
            done
          done;
          Array.iter (List.iter (write_file fs)) inp.stock;
          fs)
    in
    let machine = Machine.create () in
    let cm = machine.Machine.cm in
    let used, space_check = space_probe fs in
    let live = ref (sz.clients * sz.stock) in
    let space = ref 0.0 and live_sum = ref 0.0 in
    let bad = ref [] in
    let delivered = ref 0 in
    let before = snap fs in
    Trace.reset ();
    let run, cost =
      measure (fun () ->
          closed_loop machine ~clients:sz.clients ~per:sz.per (fun ctx c k ->
              let id = (c * sz.per) + k in
              (match inp.ops.(id) with
              | Deliver p ->
                  write_file ~ctx fs p;
                  incr live;
                  incr delivered
              | Delete p ->
                  F.unlink ~ctx fs p;
                  decr live
              | Move (a, b) -> F.rename ~ctx fs a b
              | Stat p ->
                  let s = F.stat ~ctx fs p in
                  if s.Types.kind <> Types.File || s.Types.size <> 0 then
                    bad := Printf.sprintf "stat %s: not an empty file" p :: !bad
              | Open_close p -> F.close ~ctx fs (F.openf ~ctx fs Types.rdonly p));
              if id land 63 = 0 then begin
                space := !space +. used ();
                live_sum := !live_sum +. fi (!live * Bytes.length payload)
              end))
    in
    let heap_mb = heap_mb heap0 in
    let after = snap fs in
    let n = sz.clients * sz.per in
    let sum_lat = sum run.lat in
    let kind =
      Bytes.init n (fun i ->
          Char.chr (match inp.ops.(i) with Deliver _ -> 0 | Delete _ -> 1 | Move _ -> 2 | Stat _ -> 3 | Open_close _ -> 4))
    in
    (* the namespace model, directory by directory *)
    for d = 0 to sz.dirs - 1 do
      let want =
        List.init sz.names (fun i -> base (precreated d i))
        @ Option.value ~default:[] (Hashtbl.find_opt inp.final d)
        |> List.sort compare
      in
      if List.sort compare (F.readdir fs (dir d)) <> want then
        bad := Printf.sprintf "readdir %s differs from the namespace model" (dir d) :: !bad
    done;
    let violations = List.rev !bad @ space_check () in
    let rc = recover_clean (Fs.region fs) in
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
          kind;
          completed = n;
          makespan = run.makespan;
          space_used = !space;
          space_live = !live_sum;
          recovery_cycles = rc.cycles;
        };
      heap_mb;
      layers =
        layer_metrics machine ~before ~after ~requests:n ~sum_lat ~makespan:run.makespan
          ~user_bytes:(fi (!delivered * Bytes.length payload))
        @ trace_metrics cm ~requests:n ~sum_lat ~wall_s:cost.wall_s
        @ rc.rlayers;
      notes = [];
      violations = violations @ rc.rbad;
    }
end

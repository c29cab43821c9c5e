(** [recovery]: crash recovery of a populated namespace (paper
    Section 5.5), then the interrupted work resumed on it.

    Set-up creates empty files in directories of 32 to 64 files (48 on
    average, the size drawn from the seed), then cuts power inside 32
    creates (at [create:fentry]) and 4 cross-directory renames (at
    [xrename:log], each in its own pair of directories) through the
    crash hook.  The first timed phase is [Recovery.run] under the
    virtual-time driver with 4 workers: mark-and-sweep, log resolution
    and the region scans, none of the runtime paths.  The second, on the
    remounted file system, is 4 closed-loop clients resuming the work:
    they redo the interrupted creates and renames and go on creating
    files in directories drawn from the seed.  Those are the workload's
    requests: a recovered file system must take new work at once. *)

open Common
module Types = Simurgh_fs_common.Types

type size = { files : int; creates : int; renames : int; clients : int; per : int }

let full = { files = 100_000; creates = 32; renames = 4; clients = 16; per = 1000 }
let small = { files = 3000; creates = 8; renames = 2; clients = 4; per = 100 }

type op = Create of string | Rename of string * string

type inputs = {
  size : size;
  dirs : int;
  files_in : int array;  (** files of each directory *)
  creates : string array;  (** paths of the interrupted creates *)
  renames : (int * int * int) array;  (** source dir, file index, destination dir *)
  resume : op array;  (** client-major *)
}

let dir d = Printf.sprintf "/d%d" d
let file d i = Printf.sprintf "/d%d/f%d" d i
let moved d i = Printf.sprintf "/d%d/moved%d" d i

let prepare ~seed size =
  let r = Gen.rng ~seed 300 in
  let rec split left acc =
    if left = 0 then Array.of_list (List.rev acc)
    else
      let n = min left (32 + Gen.int r 33) in
      split (left - n) (n :: acc)
  in
  let files_in = split size.files [] in
  let dirs = Array.length files_in in
  (* 2 * renames distinct directories, a source and a destination each *)
  let used = Hashtbl.create 8 in
  let rec fresh () =
    let d = Gen.int r dirs in
    if Hashtbl.mem used d then fresh () else (Hashtbl.replace used d (); d)
  in
  let renames =
    Array.init size.renames (fun _ ->
        let s = fresh () in
        let t = fresh () in
        (s, Gen.int r files_in.(s), t))
  in
  let creates = Array.init size.creates (fun i -> Printf.sprintf "/d%d/new%d" (Gen.int r dirs) i) in
  (* no op depends on another, so any order and interleaving succeeds;
     new files go where the interrupted creates were going *)
  let busy = Array.map (fun p -> String.sub p 0 (String.rindex p '/')) creates in
  let redo =
    Array.append (Array.map (fun p -> Create p) creates) (Array.map (fun (s, i, t) -> Rename (file s i, moved t i)) renames)
  in
  let resume =
    Array.init (size.clients * size.per) (fun i ->
        if i < Array.length redo then redo.(i) else Create (Printf.sprintf "%s/r%d" busy.(Gen.int r size.creates) i))
  in
  Gen.shuffle r resume;
  { size; dirs; files_in; creates; renames; resume }

exception Power_cut

(* Cut power at the first firing of [label] inside [f]. *)
let crash_at fs label f =
  Fs.set_crash_hook fs (fun l -> if l = label then raise Power_cut);
  (try f () with Power_cut -> ());
  Fs.set_crash_hook fs ignore

module Make (F : Probe.FS with type t = Fs.t and type fd = Fs.fd) = struct
  let trial inp =
    let sz = inp.size in
    let heap0 = heap_words () in
    let (region, used_before), setup_s =
      timed (fun () ->
          let region = Region.create ((8 * 1024 * 1024) + ((sz.files + (sz.clients * sz.per)) * 400)) in
          let fs = Fs.mkfs ~euid:0 region in
          for d = 0 to inp.dirs - 1 do
            F.mkdir fs (dir d);
            for i = 0 to inp.files_in.(d) - 1 do
              F.create_file fs (file d i)
            done
          done;
          let used_before = (Fs.statfs fs).Fs.used_blocks in
          Array.iter (fun p -> crash_at fs "create:fentry" (fun () -> F.create_file fs p)) inp.creates;
          Array.iter
            (fun (s, i, t) -> crash_at fs "xrename:log" (fun () -> F.rename fs (file s i) (moved t i)))
            inp.renames;
          (region, used_before))
    in
    let rc = recover region in
    let rep = rc.report in
    let fs = Fs.mount ~euid:0 region in
    let bad = ref [] in
    let complain s = if List.length !bad < 5 then bad := s :: !bad in
    if rep.Recovery.files <> sz.files then complain (Printf.sprintf "recovered %d files, want %d" rep.Recovery.files sz.files);
    Array.iter (fun p -> if F.exists fs p then complain (Printf.sprintf "interrupted create %s survived" p)) inp.creates;
    Array.iter
      (fun (s, i, t) ->
        if F.exists fs (file s i) = F.exists fs (moved t i) then
          complain (Printf.sprintf "interrupted rename of %s: not under exactly one name" (file s i)))
      inp.renames;
    let used_after = (Fs.statfs fs).Fs.used_blocks in
    let machine = Machine.create () in
    let cm = machine.Machine.cm in
    let n = sz.clients * sz.per in
    let before = snap fs in
    Trace.reset ();
    let run, cost =
      measure (fun () ->
          closed_loop machine ~clients:sz.clients ~per:sz.per (fun ctx c k ->
              match inp.resume.((c * sz.per) + k) with
              | Create p -> F.create_file ~ctx fs p
              | Rename (a, b) -> F.rename ~ctx fs a b))
    in
    let heap_mb = heap_mb heap0 in
    let after = snap fs in
    (* every acknowledged name, and every resumed one, directory by
       directory *)
    let want = Array.make inp.dirs [] in
    let add p =
      let d = int_of_string (String.sub p 2 (String.index_from p 1 '/' - 2)) in
      want.(d) <- String.sub p (String.rindex p '/' + 1) (String.length p - String.rindex p '/' - 1) :: want.(d)
    in
    Array.iteri (fun d c -> for i = 0 to c - 1 do add (file d i) done) inp.files_in;
    Array.iter (function Create p -> add p | Rename (_, b) -> add b) inp.resume;
    Array.iter (fun (s, i, _) -> want.(s) <- List.filter (( <> ) (Printf.sprintf "f%d" i)) want.(s)) inp.renames;
    Array.iteri
      (fun d names ->
        if List.sort compare (F.readdir fs (dir d)) <> List.sort compare names then
          complain (Printf.sprintf "readdir %s differs from the namespace model" (dir d)))
      want;
    let objects = rep.Recovery.files + rep.Recovery.dirs + rep.Recovery.symlinks in
    let sum_lat = sum run.lat in
    {
      setup_s = [ setup_s ];
      scored_s = rc.rcost.host_s;
      scored = objects;
      cost;
      requests = n;
      failed = run.failures;
      virt =
        {
          lat = run.lat;
          kind = Bytes.init n (fun i -> match inp.resume.(i) with Create _ -> '\000' | Rename _ -> '\001');
          completed = n;
          makespan = run.makespan;
          (* blocks in use after recovery over before the interrupted
             operations: above 1 only if they left blocks behind *)
          space_used = fi used_after;
          space_live = fi used_before;
          recovery_cycles = rc.cycles;
        };
      heap_mb;
      layers =
        layer_metrics machine ~before ~after ~requests:n ~sum_lat ~makespan:run.makespan ~user_bytes:0.0
        @ trace_metrics cm ~requests:n ~sum_lat ~wall_s:cost.wall_s
        @ rc.rlayers;
      notes =
        [
          Printf.sprintf "%d objects in %d directories (first trial); %d + %d objects reclaimed, %d renames rolled back, %d completed"
            objects inp.dirs rep.Recovery.reclaimed_inodes rep.Recovery.reclaimed_fentries
            rep.Recovery.rolled_back_renames rep.Recovery.completed_renames;
        ];
      violations = List.rev !bad @ rc.rbad;
    }
end

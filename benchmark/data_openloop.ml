(** [data-openloop]: the file data path, 16 clients, under open-loop
    Poisson load and closed-loop saturation.

    Set-up writes 64 files of 256 KiB and opens them for every client,
    and writes 0 to 2 more that no request touches: their number is drawn
    from the seed only so that the image a trial leaves for recovery
    differs between trials.  Each request picks one of the 64 files by
    Zipf (0.99) and a uniform 4 KiB block;
    half are [pread], half [pwrite] tagged with the request.  This is the
    only workload that queues: file rwlock waits and the NVMM bandwidth
    servers' backlog, with no namespace or allocator work at all (the
    fds are open and writes overwrite in place).

    A trial runs the request stream twice, each time on a fresh file
    system: closed loop, every client issuing back to back, for the
    throughput (the data path's capacity), and open loop at a fixed
    nominal rate for the latency.  Then the power is cut and the image
    recovered. *)

open Common
module Types = Simurgh_fs_common.Types

(* The closed-loop pass runs the first [closed_per] requests of each
   client: its throughput settles on far fewer requests than the
   open-loop tail does. *)
type size = { files : int; blocks : int; clients : int; per : int; closed_per : int }

let full = { files = 64; blocks = 64; clients = 16; per = 15000; closed_per = 4000 }
let small = { files = 8; blocks = 16; clients = 4; per = 300; closed_per = 100 }
let io = 4096
let nominal_kops = 2000.0

type inputs = {
  size : size;
  idle : int;  (** files no request touches *)
  file : int array;  (** client-major *)
  block : int array;
  read : bool array;
  arrival : float array;  (** cumulative unit-mean exponential gaps per client *)
}

let prepare ~seed size =
  let n = size.clients * size.per in
  let z = Gen.zipf size.files in
  let file = Array.make n 0 and block = Array.make n 0 and read = Array.make n false in
  let arrival = Array.make n 0.0 in
  for c = 0 to size.clients - 1 do
    let r = Gen.rng ~seed (200 + c) in
    let t = ref 0.0 in
    for k = 0 to size.per - 1 do
      let id = (c * size.per) + k in
      t := !t +. Gen.exp1 r;
      arrival.(id) <- !t;
      file.(id) <- Gen.zipf_rank z r;
      block.(id) <- Gen.int r size.blocks;
      read.(id) <- Gen.int r 2 = 0
    done
  done;
  { size; idle = Gen.int (Gen.rng ~seed 199) 3; file; block; read; arrival }

(* Every point formats the same region, zeroed from a blank checkpoint.
   A fresh allocation per point costs a varying number of page faults,
   depending on the memory allocator's history, and made set-up time
   jump between two values from run to run. *)
let blank =
  lazy
    (let r = Region.create (32 * 1048576) in
     (r, Region.checkpoint r))

module Make (F : Probe.FS with type t = Fs.t and type fd = Fs.fd) = struct
  type point = { fs : Fs.t; machine : Machine.t; run : run; cost : cost; setup_s : float; before : snap; bad : string list }

  (* One pass of the request stream over a fresh file system: open loop
     when [due] gives each request's due time, closed loop otherwise.
     Blocks carry the tag of their last writer in their first 8 bytes:
     0 from set-up, request id + 1 after a pwrite; every read, and at the
     end a read-back of every written block, checks the tag. *)
  let point inp ~per due =
    let sz = inp.size in
    let (fs, fds), setup_s =
      timed (fun () ->
          let region, zeroed = Lazy.force blank in
          Region.restore region zeroed;
          let fs = Fs.mkfs ~euid:0 region in
          F.mkdir fs "/z";
          let chunk = Bytes.make (sz.blocks * io) 'x' in
          for b = 0 to sz.blocks - 1 do
            Bytes.set_int64_le chunk (b * io) 0L
          done;
          let path f = Printf.sprintf "/z/f%02d" f in
          for f = 0 to sz.files + inp.idle - 1 do
            let fd = F.openf fs (Types.creat Types.rdwr) (path f) in
            ignore (F.pwrite fs fd ~pos:0 chunk);
            F.close fs fd
          done;
          (fs, Array.init sz.clients (fun _ -> Array.init sz.files (fun f -> F.openf fs Types.rdwr (path f)))))
    in
    let machine = Machine.create () in
    let last = Array.make (sz.files * sz.blocks) 0L in
    let bufs = Array.init sz.clients (fun _ -> Bytes.make io 'w') in
    let bad = ref [] in
    let before = snap fs in
    Trace.reset ();
    let run, cost =
      measure (fun () ->
          drive machine ~clients:sz.clients ~per ~due (fun ctx c k ->
              let id = (c * sz.per) + k in
              let f = inp.file.(id) and b = inp.block.(id) in
              let fd = fds.(c).(f) in
              if inp.read.(id) then begin
                let got = Bytes.get_int64_le (F.pread ~ctx fs fd ~pos:(b * io) ~len:io) 0 in
                if got <> last.((f * sz.blocks) + b) && List.length !bad < 5 then
                  bad := Printf.sprintf "pread f%02d block %d: tag %Ld, last write %Ld" f b got last.((f * sz.blocks) + b) :: !bad
              end
              else begin
                let tag = Int64.of_int (id + 1) in
                Bytes.set_int64_le bufs.(c) 0 tag;
                ignore (F.pwrite ~ctx fs fd ~pos:(b * io) bufs.(c));
                last.((f * sz.blocks) + b) <- tag
              end))
    in
    Array.iteri
      (fun i tag ->
        if tag <> 0L then begin
          let got = Bytes.get_int64_le (F.pread fs fds.(0).(i / sz.blocks) ~pos:(i mod sz.blocks * io) ~len:io) 0 in
          if got <> tag && List.length !bad < 10 then
            bad := Printf.sprintf "read-back f%02d block %d: tag %Ld, want %Ld" (i / sz.blocks) (i mod sz.blocks) got tag :: !bad
        end)
      last;
    { fs; machine; run; cost; setup_s; before; bad = List.rev !bad }

  (* The open-loop point runs last, so a traced trial's spans are its. *)
  let trial inp =
    let sz = inp.size in
    let n = sz.clients * sz.per and n_closed = sz.clients * sz.closed_per in
    ignore (Lazy.force blank);
    let heap0 = heap_words () in
    let closed = point inp ~per:sz.closed_per None in
    let cm = closed.machine.Machine.cm in
    let mean_gap = Cost_model.cycles_of_seconds cm (fi sz.clients /. (nominal_kops *. 1e3)) in
    let due = Array.map (fun a -> a *. mean_gap) inp.arrival in
    let nominal = point inp ~per:sz.per (Some due) in
    let heap_mb = heap_mb heap0 in
    let after = snap nominal.fs in
    let sum_lat = sum nominal.run.lat in
    let layers =
      layer_metrics nominal.machine ~before:nominal.before ~after ~requests:n ~sum_lat ~makespan:nominal.run.makespan
        ~user_bytes:(fi (Array.fold_left (fun a r -> if r then a else a + io) 0 inp.read))
      @ trace_metrics cm ~requests:n ~sum_lat ~wall_s:nominal.cost.wall_s
    in
    let used = fi ((Fs.statfs nominal.fs).Fs.used_blocks * (Fs.statfs nominal.fs).Fs.block_size) in
    let rc = recover_clean (Fs.region nominal.fs) in
    let achieved = fi n /. Cost_model.seconds cm nominal.run.makespan /. 1e3 in
    {
      setup_s = [ closed.setup_s; nominal.setup_s ];
      scored_s = closed.cost.host_s +. nominal.cost.host_s;
      scored = n_closed + n;
      cost = add_cost closed.cost nominal.cost;
      requests = n_closed + n;
      failed = closed.run.failures + nominal.run.failures;
      virt =
        {
          lat = nominal.run.lat;
          kind = Bytes.init n (fun i -> if inp.read.(i) then '\001' else '\000');
          completed = n_closed;
          makespan = closed.run.makespan;
          space_used = used;
          space_live = fi ((sz.files + inp.idle) * sz.blocks * io);
          recovery_cycles = rc.cycles;
        };
      layers = layers @ rc.rlayers;
      heap_mb;
      notes =
        [
          Printf.sprintf "open loop: %.0f Kops/s offered, %.1f achieved (first trial); the generator is never late"
            nominal_kops achieved;
        ];
      violations = closed.bad @ nominal.bad @ rc.rbad;
    }
end

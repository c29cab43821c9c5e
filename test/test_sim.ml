(* Tests for the virtual-time simulation substrate. *)

open Simurgh_sim

let check_float = Alcotest.(check (float 1e-6))

(* --- rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_streams_differ () =
  let base = Rng.create 42L in
  let a = Rng.split base 0 and b = Rng.split base 1 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 5)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create (Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float stays in [0, 1)" ~count:200
    QCheck.small_int (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.float rng in
        if v < 0.0 || v >= 1.0 then ok := false
      done;
      !ok)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 7L in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

(* --- zipf --------------------------------------------------------------- *)

let test_zipf_skew () =
  let z = Zipf.create 10000 in
  let rng = Rng.create 3L in
  let top = ref 0 and n = 20000 in
  for _ = 1 to n do
    if Zipf.sample z rng < 100 then incr top
  done;
  (* with theta=0.99 the top-1% of items receive far more than 1% *)
  Alcotest.(check bool) "top items hot"
    true
    (float_of_int !top /. float_of_int n > 0.3)

let prop_zipf_in_range =
  QCheck.Test.make ~name:"Zipf samples in [0, items)" ~count:100
    QCheck.(int_range 1 5000)
    (fun items ->
      let z = Zipf.create items in
      let rng = Rng.create 11L in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Zipf.sample z rng in
        let s = Zipf.sample_scrambled z rng in
        let l = Zipf.sample_latest z rng in
        if v < 0 || v >= items || s < 0 || s >= items || l < 0 || l >= items
        then ok := false
      done;
      !ok)

(* The empirical frequency of the hottest rank must match the analytic
   mass [Zipf.rank_mass] across seeds and skews — this pins the sampler
   to the distribution BENCH_data claims to offer. *)
let prop_zipf_rank_mass =
  QCheck.Test.make ~name:"Zipf rank-0 frequency matches rank_mass" ~count:25
    QCheck.(pair small_nat (float_range 0.6 1.2))
    (fun (seed, theta) ->
      let z = Zipf.create ~theta 200 in
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let n = 20_000 in
      let hits = ref 0 in
      for _ = 1 to n do
        if Zipf.sample z rng = 0 then incr hits
      done;
      let expected = Zipf.rank_mass z 0 in
      let got = float_of_int !hits /. float_of_int n in
      abs_float (got -. expected) < 0.03 +. (0.15 *. expected))

let test_zipf_rank_order () =
  let z = Zipf.create 1000 in
  let rng = Rng.create 5L in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50000 do
    let v = Zipf.sample z rng in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true
    (counts.(0) > counts.(10) && counts.(10) > counts.(500))

(* --- resource (leaky-bucket server) -------------------------------------- *)

let test_resource_idle_no_wait () =
  let r = Resource.create () in
  (* well-spaced requests see only their own duration *)
  check_float "t=0" 10.0 (Resource.serve r ~now:0.0 ~dur:10.0);
  check_float "t=100" 110.0 (Resource.serve r ~now:100.0 ~dur:10.0);
  check_float "t=200" 210.0 (Resource.serve r ~now:200.0 ~dur:10.0)

let test_resource_saturation () =
  let r = Resource.create () in
  (* back-to-back requests at the same instant queue up *)
  check_float "1st" 10.0 (Resource.serve r ~now:0.0 ~dur:10.0);
  check_float "2nd" 20.0 (Resource.serve r ~now:0.0 ~dur:10.0);
  check_float "3rd" 30.0 (Resource.serve r ~now:0.0 ~dur:10.0)

let test_resource_out_of_order_bounded () =
  let r = Resource.create () in
  ignore (Resource.serve r ~now:1000.0 ~dur:5.0);
  (* an earlier-timestamped request queues behind backlog (5), not behind
     the other thread's wall-clock position (1000) *)
  let done_at = Resource.serve r ~now:10.0 ~dur:5.0 in
  Alcotest.(check bool) "no timestamp jump" true (done_at < 100.0)

let test_resource_drain () =
  let r = Resource.create () in
  ignore (Resource.serve r ~now:0.0 ~dur:100.0);
  (* after enough idle time the debt is gone *)
  check_float "drained" 1010.0 (Resource.serve r ~now:1000.0 ~dur:10.0)

let resource_trace =
  (* (gap to next arrival, request duration) pairs *)
  QCheck.(
    list_of_size
      Gen.(int_range 1 30)
      (pair (float_bound_exclusive 1000.0) (float_bound_exclusive 500.0)))

let prop_resource_pending_nonneg_drains =
  QCheck.Test.make
    ~name:"Resource.pending non-negative and monotone-draining" ~count:300
    resource_trace (fun ops ->
      let r = Resource.create () in
      let now = ref 0.0 in
      let ok = ref true in
      List.iter
        (fun (gap, dur) ->
          now := !now +. gap;
          ignore (Resource.serve r ~now:!now ~dur);
          let p0 = Resource.pending r ~now:!now in
          if p0 < 0.0 then ok := false;
          (* between arrivals the backlog only drains, never grows *)
          let p1 = Resource.pending r ~now:(!now +. 1.0) in
          let p2 = Resource.pending r ~now:(!now +. 50.0) in
          if p1 > p0 +. 1e-9 || p2 > p1 +. 1e-9 || p2 < 0.0 then ok := false)
        ops;
      !ok)

let prop_resource_serve_push_agree =
  QCheck.Test.make ~name:"serve and push_work agree on queued debt"
    ~count:300 resource_trace (fun ops ->
      let a = Resource.create () and b = Resource.create () in
      let now = ref 0.0 in
      let ok = ref true in
      List.iter
        (fun (gap, dur) ->
          now := !now +. gap;
          let done_at = Resource.serve a ~now:!now ~dur in
          Resource.push_work b ~now:!now ~dur;
          let pa = Resource.pending a ~now:!now
          and pb = Resource.pending b ~now:!now in
          (* the waiting and non-waiting paths must leave the same debt,
             and serve's completion time is exactly now + that debt *)
          if abs_float (pa -. pb) > 1e-6 then ok := false;
          if abs_float (done_at -. (!now +. pa)) > 1e-6 then ok := false)
        ops;
      !ok)

(* --- locks ---------------------------------------------------------------- *)

let mk_ctx () =
  let m = Machine.create () in
  let thr = Sthread.create 0 in
  (m, thr, Machine.ctx m thr)

let test_spin_serializes () =
  let m = Machine.create () in
  let t0 = Sthread.create 0 and t1 = Sthread.create 1 in
  let c0 = Machine.ctx m t0 and c1 = Machine.ctx m t1 in
  let l = Vlock.Spin.create () in
  Vlock.Spin.acquire c0 l;
  Machine.cpu c0 1000.0;
  Vlock.Spin.release c0 l;
  (* t1 at time 0 must wait until t0's release *)
  Vlock.Spin.acquire c1 l;
  Alcotest.(check bool) "waited" true (t1.Sthread.now >= 1000.0)

let test_rw_readers_overlap () =
  let m = Machine.create () in
  let t0 = Sthread.create 0 and t1 = Sthread.create 1 in
  let c0 = Machine.ctx m t0 and c1 = Machine.ctx m t1 in
  let l = Vlock.Rw.create ~striped:true () in
  let tok0 = Vlock.Rw.read_acquire c0 l in
  Machine.cpu c0 1000.0;
  Vlock.Rw.read_release c0 l tok0;
  let _tok1 = Vlock.Rw.read_acquire c1 l in
  (* readers do not wait for each other *)
  Alcotest.(check bool) "no reader wait" true (t1.Sthread.now < 500.0)

let test_rw_writer_excludes () =
  let m = Machine.create () in
  let t0 = Sthread.create 0 and t1 = Sthread.create 1 in
  let c0 = Machine.ctx m t0 and c1 = Machine.ctx m t1 in
  let l = Vlock.Rw.create () in
  let tok0 = Vlock.Rw.read_acquire c0 l in
  Machine.cpu c0 1000.0;
  Vlock.Rw.read_release c0 l tok0;
  let _ = Vlock.Rw.write_acquire c1 l in
  (* the writer queues behind the reader's (parallelism-scaled) hold *)
  Alcotest.(check bool) "writer waits for reader" true
    (t1.Sthread.now >= 1000.0 /. 4.0)

(* Posted ntstores: inside with_posted_writes the writer pays only its
   local store latency, yet the device still consumes the bandwidth —
   later FIFO writers queue behind the posted work. *)
let test_posted_writes () =
  let m = Machine.create () in
  let t0 = Sthread.create 0 and t1 = Sthread.create 1 in
  let c0 = Machine.ctx m t0 and c1 = Machine.ctx m t1 in
  let cm = Machine.cm c0 in
  let lines = 64 in
  Machine.with_posted_writes c0 (fun () ->
      Alcotest.(check bool) "flag set" true t0.Sthread.posted_writes;
      Machine.nvmm_write_lines c0 lines);
  Alcotest.(check bool) "flag restored" false t0.Sthread.posted_writes;
  (* local latency only: lines * write_latency / mlp(4) *)
  check_float "local store latency"
    (float_of_int lines *. cm.Cost_model.nvmm_write_latency /. 4.0)
    t0.Sthread.now;
  (* work-conserving: the next FIFO write queues behind the posted debt *)
  let posted_dur =
    float_of_int (lines * cm.Cost_model.cacheline) /. cm.Cost_model.nvmm_write_bw
  in
  Machine.nvmm_write_lines c1 1;
  Alcotest.(check bool) "device debt preserved" true
    (t1.Sthread.now >= posted_dur)

exception Poison

(* Regression: with_lock used to leak the lock when the body raised (a
   poisoned line surfacing as Media_error inside a critical section).
   The exception must propagate, the lock must come back released, and
   the aborted acquisition must still balance its contention counters. *)
let test_spin_with_lock_releases_on_raise () =
  let m = Machine.create () in
  let t0 = Sthread.create 0 and t1 = Sthread.create 1 in
  let c0 = Machine.ctx m t0 and c1 = Machine.ctx m t1 in
  let l = Vlock.Spin.create ~site:"poisoned" () in
  (try
     Vlock.Spin.with_lock c0 l (fun () ->
         Machine.cpu c0 500.0;
         raise Poison)
   with Poison -> ());
  Alcotest.(check bool) "released after raise" false (Vlock.Spin.locked l);
  let run = Machine.obs m in
  let stats =
    List.assoc "poisoned"
      (Simurgh_obs.Contention.to_list run.Simurgh_obs.Run.contention)
  in
  Alcotest.(check int) "acquisition recorded" 1
    stats.Simurgh_obs.Contention.acquisitions;
  Alcotest.(check bool) "hold recorded" true
    (Simurgh_obs.Contention.hold_cycles stats > 0.0);
  (* another thread can still take the lock *)
  Vlock.Spin.with_lock c1 l (fun () -> Machine.cpu c1 10.0);
  Alcotest.(check bool) "reacquired and released" false (Vlock.Spin.locked l)

let test_rw_with_write_releases_on_raise () =
  let m = Machine.create () in
  let t0 = Sthread.create 0 and t1 = Sthread.create 1 in
  let c0 = Machine.ctx m t0 and c1 = Machine.ctx m t1 in
  let l = Vlock.Rw.create () in
  (try Vlock.Rw.with_write c0 l (fun () -> raise Poison) with Poison -> ());
  (* the writer slot is free again: a reader enters without blocking
     (a leaked writer would trip wait_while's no-scheduler failure) *)
  Vlock.Rw.with_read c1 l (fun () -> Machine.cpu c1 10.0)

(* Regression: Rw kept a single shared [entered_at] field, so with two
   overlapping readers the second acquire overwrote the first reader's
   entry time and its release computed a truncated (or negative,
   silently dropped) hold.  Tokens are per-acquisition now. *)
let test_rw_overlapping_readers_holds () =
  let m = Machine.create () in
  let t0 = Sthread.create 0 and t1 = Sthread.create 1 in
  let c0 = Machine.ctx m t0 and c1 = Machine.ctx m t1 in
  let l = Vlock.Rw.create ~striped:true () in
  let tok0 = Vlock.Rw.read_acquire c0 l in
  (* the second reader enters much later in virtual time while the
     first still holds — this is where the shared field was clobbered *)
  Machine.cpu c1 3000.0;
  let tok1 = Vlock.Rw.read_acquire c1 l in
  Machine.cpu c0 4000.0;
  Vlock.Rw.read_release c0 l tok0;
  Vlock.Rw.read_release c1 l tok1;
  Alcotest.(check bool) "tokens are per-acquisition" true (tok0 < tok1);
  (* reader 0's full ~4000-cycle hold must reach the reader backlog
     (scaled by read_parallelism = 4); the shared-field bug accounted
     only now - tok1 ~ 1000 of it *)
  Alcotest.(check bool) "full hold accounted" true
    (Resource.busy_cycles l.Vlock.Rw.rd >= 4000.0 /. 4.0)

(* --- engine ---------------------------------------------------------------- *)

let test_engine_parallel_speedup () =
  let tput threads =
    let m = Machine.create () in
    let o =
      Engine.run_ops m ~threads ~ops_per_thread:100 (fun ctx _ ->
          Machine.cpu ctx 1000.0)
    in
    Engine.throughput m o
  in
  let t1 = tput 1 and t4 = tput 4 in
  Alcotest.(check bool) "4 threads ~4x" true
    (t4 /. t1 > 3.9 && t4 /. t1 < 4.1)

let test_engine_lock_serialization () =
  let m = Machine.create () in
  let l = Vlock.Spin.create () in
  let o =
    Engine.run_ops m ~threads:4 ~ops_per_thread:100 (fun ctx _ ->
        Vlock.Spin.acquire ctx l;
        Machine.cpu ctx 1000.0;
        Vlock.Spin.release ctx l)
  in
  (* fully serialized: makespan ~ total work (the backlog model lets the
     final holders finish without draining their own hold) *)
  Alcotest.(check bool) "serialized" true
    (o.Engine.makespan_cycles >= 0.9 *. 400.0 *. 1000.0)

let test_engine_causality () =
  (* the minimum-time thread always steps first, so completion order of a
     contended lock is FIFO in virtual time *)
  let m = Machine.create () in
  let l = Vlock.Spin.create () in
  let order = ref [] in
  let o =
    Engine.run_ops m ~threads:3 ~ops_per_thread:5 (fun ctx i ->
        Vlock.Spin.acquire ctx l;
        order := (ctx.Machine.thr.Sthread.tid, i) :: !order;
        Machine.cpu ctx 100.0;
        Vlock.Spin.release ctx l)
  in
  ignore o;
  (* each thread's own ops appear in order *)
  let seen = Hashtbl.create 3 in
  List.iter
    (fun (tid, i) ->
      match Hashtbl.find_opt seen tid with
      | Some prev -> Alcotest.(check bool) "per-thread order" true (i < prev)
      | None -> Hashtbl.replace seen tid i)
    !order

(* Ties used to be hard-wired to the lowest index, so equal-cost
   (zero-charge) operations ran to completion thread by thread.  The
   fair policy must round-robin the tied threads instead; legacy keeps
   the historical order bit-for-bit. *)
let test_engine_tie_break_policies () =
  let order_under schedule =
    let m = Machine.create () in
    let order = ref [] in
    ignore
      (Engine.run_ops m ?schedule ~threads:3 ~ops_per_thread:3 (fun ctx _ ->
           (* no charge: every thread stays tied at time 0 *)
           order := ctx.Machine.thr.Sthread.tid :: !order));
    List.rev !order
  in
  Alcotest.(check (list int))
    "legacy runs tied threads to completion by index"
    [ 0; 0; 0; 1; 1; 1; 2; 2; 2 ] (order_under None);
  Alcotest.(check (list int))
    "fair rotates tied threads"
    [ 0; 1; 2; 0; 1; 2; 0; 1; 2 ]
    (order_under (Some (Schedule.fair ())))

let test_machine_charges_advance_clock () =
  let _, thr, ctx = mk_ctx () in
  Machine.cpu ctx 100.0;
  Machine.nvmm_read ctx 4096;
  Machine.nvmm_write ctx 4096;
  Machine.nvmm_read_lines ctx 4;
  Machine.nvmm_meta_read_lines ctx 4;
  Machine.nvmm_write_lines ctx 4;
  Machine.dram_copy ctx 4096;
  Machine.memcpy_cpu ctx 4096;
  Machine.atomic ctx ~contended:true;
  Machine.fence ctx;
  Alcotest.(check bool) "clock moved" true (thr.Sthread.now > 5000.0)

(* Virtual-time oracle for the shared drain/queue sequence behind both
   Resource.serve and Resource.push_work: draining is clamped at zero,
   out-of-order arrivals queue behind the backlog without draining, and
   push_work is serve minus the completion wait -- identical debt and
   busy accounting. *)
let test_resource_drain_oracle () =
  let r = Resource.create () in
  check_float "idle serve pays own duration" 10.0
    (Resource.serve r ~now:0.0 ~dur:10.0);
  (* 5 cycles elapsed drain 5 of the 10 queued; 5 + (5 + 10) = 20 *)
  check_float "partial drain then queue" 20.0
    (Resource.serve r ~now:5.0 ~dur:10.0);
  (* out-of-order arrival (now < last): no drain, queue behind debt *)
  check_float "out-of-order queues behind backlog" 20.0
    (Resource.serve r ~now:3.0 ~dur:2.0);
  (* long idle gap: debt drains to zero, never negative *)
  Resource.push_work r ~now:30.0 ~dur:4.0;
  check_float "pending after push" 4.0 (Resource.pending r ~now:30.0);
  check_float "pending drains over time" 2.0 (Resource.pending r ~now:32.0);
  (* a zero-duration probe completes after the remaining backlog *)
  check_float "probe sees push_work backlog" 34.0
    (Resource.serve r ~now:32.0 ~dur:0.0);
  (* busy counts service cycles of both serve and push_work *)
  check_float "busy cycles" 26.0 (Resource.busy_cycles r)

let test_cost_model_consistency () =
  let cm = Cost_model.default in
  check_float "surcharge" 46.0 (Cost_model.protection_surcharge cm);
  check_float "roundtrip" 1.0
    (Cost_model.seconds cm (Cost_model.cycles_of_seconds cm 1.0))

let test_stats () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean a);
  Alcotest.(check bool) "stddev" true (abs_float (Stats.stddev a -. 1.29) < 0.01);
  check_float "p0" 1.0 (Stats.percentile a 0.0);
  check_float "p100" 4.0 (Stats.percentile a 100.0);
  let lo, hi = Stats.min_max a in
  check_float "min" 1.0 lo;
  check_float "max" 4.0 hi

(* The old percentile truncated the fractional rank: p50 of [1;2;3;4]
   came back as 2.0 and p90 as 3.0.  The interpolating version must
   return the standard linear-interpolation values. *)
let test_stats_percentile_interpolates () =
  let a = [| 4.0; 2.0; 1.0; 3.0 |] in
  (* unsorted on purpose *)
  check_float "p50" 2.5 (Stats.percentile a 50.0);
  check_float "p25" 1.75 (Stats.percentile a 25.0);
  check_float "p90" 3.7 (Stats.percentile a 90.0);
  check_float "p75" 3.25 (Stats.percentile a 75.0);
  check_float "single" 7.0 (Stats.percentile [| 7.0 |] 50.0);
  (* Float.compare, not polymorphic compare: nan-free ordering of
     negative values must still sort correctly *)
  check_float "negatives p50" (-2.5)
    (Stats.percentile [| -1.0; -4.0; -2.0; -3.0 |] 50.0)

let prop_stats_percentile_bounds_monotone =
  QCheck.Test.make ~name:"Stats.percentile bounded and monotone" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
    (fun l ->
      let a = Array.of_list l in
      let lo, hi = Stats.min_max a in
      let prev = ref neg_infinity in
      let ok = ref true in
      List.iter
        (fun p ->
          let v = Stats.percentile a p in
          if v < lo -. 1e-9 || v > hi +. 1e-9 then ok := false;
          if v < !prev -. 1e-9 then ok := false;
          prev := v)
        [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ];
      !ok)

(* Regression: lock-wait accounting used to live in module-level globals
   inside Vlock, so a second engine run reported the first run's waits on
   top of its own.  Per-machine obs runs must make two identical runs
   report identical (and nonzero) totals. *)
let test_contention_scoped_per_run () =
  let run_once () =
    let m = Machine.create () in
    let l = Vlock.Spin.create ~site:"test-site" () in
    let o =
      Engine.run_ops m ~threads:4 ~ops_per_thread:50 (fun ctx _ ->
          Vlock.Spin.acquire ctx l;
          Machine.cpu ctx 500.0;
          Vlock.Spin.release ctx l)
    in
    ignore o;
    let run = Machine.obs m in
    Simurgh_obs.Contention.total_wait run.Simurgh_obs.Run.contention
  in
  let w1 = run_once () in
  let w2 = run_once () in
  Alcotest.(check bool) "contended run waits" true (w1 > 0.0);
  check_float "second run identical, not cumulative" w1 w2

let test_contention_reset_on_machine_reset () =
  let m = Machine.create () in
  let l = Vlock.Spin.create ~site:"reset-site" () in
  ignore
    (Engine.run_ops m ~threads:4 ~ops_per_thread:20 (fun ctx _ ->
         Vlock.Spin.acquire ctx l;
         Machine.cpu ctx 200.0;
         Vlock.Spin.release ctx l));
  let run = Machine.obs m in
  Alcotest.(check bool) "waits recorded" true
    (Simurgh_obs.Contention.total_wait run.Simurgh_obs.Run.contention > 0.0);
  Machine.reset m;
  check_float "reset clears contention" 0.0
    (Simurgh_obs.Contention.total_wait run.Simurgh_obs.Run.contention)

(* Each lock caches its contention site per run.  The cache must follow
   the machine the acquiring context belongs to (one lock shared by two
   machines, A then B then A) and must go stale when [Machine.reset]
   clears the run, or acquisitions land in the wrong run's counters. *)
let test_contention_cache_follows_run () =
  let ma = Machine.create () and mb = Machine.create () in
  let ca = Machine.ctx ma (Sthread.create 0)
  and cb = Machine.ctx mb (Sthread.create 0) in
  let spin = Vlock.Spin.create ~site:"cache-spin" () in
  let rw = Vlock.Rw.create ~site:"cache-rw" () in
  let use c =
    Vlock.Spin.with_lock c spin (fun () -> Machine.cpu c 100.0);
    Vlock.Rw.with_read c rw (fun () -> Machine.cpu c 50.0);
    Vlock.Rw.with_write c rw (fun () -> Machine.cpu c 50.0)
  in
  (* (site, acquisitions, held at all) *)
  let counts m =
    List.map
      (fun (name, s) ->
        ( name,
          s.Simurgh_obs.Contention.acquisitions,
          Simurgh_obs.Contention.hold_cycles s > 0.0 ))
      (Simurgh_obs.Contention.to_list (Machine.obs m).Simurgh_obs.Run.contention)
  in
  let expect = Alcotest.(check (list (triple string int bool))) in
  let one_round = [ ("cache-rw", 2, true); ("cache-spin", 1, true) ] in
  use ca;
  use cb;
  use ca;
  expect "A counts its two rounds"
    [ ("cache-rw", 4, true); ("cache-spin", 2, true) ]
    (counts ma);
  expect "B counts its one round" one_round (counts mb);
  Machine.reset ma;
  expect "reset A is empty" [] (counts ma);
  use ca;
  expect "A after reset counts only the new round" one_round (counts ma);
  expect "B untouched" one_round (counts mb)

(* The bracket around [with_read]/[with_write] frees the lock and
   re-raises the body's own exception. *)
let test_rw_bracket_propagates () =
  let m = Machine.create () in
  let c = Machine.ctx m (Sthread.create 0) in
  let l = Vlock.Rw.create () in
  let raised with_ =
    match with_ c l (fun () -> failwith "inside") with
    | () -> None
    | exception Failure msg -> Some msg
  in
  Alcotest.(check (option string)) "read re-raises" (Some "inside")
    (raised Vlock.Rw.with_read);
  Alcotest.(check int) "no reader left" 0 l.Vlock.Rw.readers;
  Alcotest.(check (option string)) "write re-raises" (Some "inside")
    (raised Vlock.Rw.with_write);
  Alcotest.(check int) "no writer left" (-1) l.Vlock.Rw.writer;
  Vlock.Rw.with_write c l (fun () -> ());
  Alcotest.(check int) "write lock free again" (-1) l.Vlock.Rw.writer

(* [Schedule.pick_min] reads the engine's thread array and alive flags
   in place.  Under [Legacy] it must pick exactly what the historical
   closure-based scan picked: the lowest index among the minimal live
   clocks, or -1 when no thread is live.  Clocks come from {0..3} so
   ties are common. *)
let prop_pick_min_legacy =
  let closure_scan ~n ~now ~alive =
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if alive i && (!best < 0 || now i < now !best) then best := i
    done;
    !best
  in
  QCheck.Test.make ~name:"Legacy pick_min = lowest minimal live index"
    ~count:500
    QCheck.(list_of_size Gen.(int_range 0 12) (pair (int_range 0 3) bool))
    (fun l ->
      let n = List.length l in
      let threads =
        Array.of_list
          (List.mapi
             (fun i (clock, _) ->
               let t = Sthread.create i in
               t.Sthread.now <- float_of_int clock;
               t)
             l)
      in
      let alive = Array.of_list (List.map snd l) in
      let expected =
        let best = ref (-1) in
        List.iteri
          (fun i (clock, live) ->
            if live && (!best < 0 || clock < fst (List.nth l !best)) then
              best := i)
          l;
        !best
      in
      let picked = Schedule.pick_min Schedule.legacy threads alive in
      picked = expected
      && picked
         = closure_scan ~n
             ~now:(fun i -> threads.(i).Sthread.now)
             ~alive:(fun i -> alive.(i)))

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "streams differ" `Quick test_rng_streams_differ;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          QCheck_alcotest.to_alcotest prop_rng_int_bounds;
          QCheck_alcotest.to_alcotest prop_rng_float_bounds;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "rank order" `Quick test_zipf_rank_order;
          QCheck_alcotest.to_alcotest prop_zipf_in_range;
          QCheck_alcotest.to_alcotest prop_zipf_rank_mass;
        ] );
      ( "resource",
        [
          Alcotest.test_case "idle no wait" `Quick test_resource_idle_no_wait;
          Alcotest.test_case "saturation queues" `Quick test_resource_saturation;
          Alcotest.test_case "out-of-order bounded" `Quick
            test_resource_out_of_order_bounded;
          Alcotest.test_case "debt drains" `Quick test_resource_drain;
          QCheck_alcotest.to_alcotest prop_resource_pending_nonneg_drains;
          QCheck_alcotest.to_alcotest prop_resource_serve_push_agree;
        ] );
      ( "locks",
        [
          Alcotest.test_case "spin serializes" `Quick test_spin_serializes;
          Alcotest.test_case "posted writes" `Quick test_posted_writes;
          Alcotest.test_case "readers overlap" `Quick test_rw_readers_overlap;
          Alcotest.test_case "writer excludes" `Quick test_rw_writer_excludes;
          Alcotest.test_case "spin releases on raise" `Quick
            test_spin_with_lock_releases_on_raise;
          Alcotest.test_case "rw releases on raise" `Quick
            test_rw_with_write_releases_on_raise;
          Alcotest.test_case "overlapping reader holds" `Quick
            test_rw_overlapping_readers_holds;
          Alcotest.test_case "rw bracket re-raises" `Quick
            test_rw_bracket_propagates;
        ] );
      ( "engine",
        [
          Alcotest.test_case "parallel speedup" `Quick
            test_engine_parallel_speedup;
          Alcotest.test_case "tie-break policies" `Quick
            test_engine_tie_break_policies;
          Alcotest.test_case "lock serialization" `Quick
            test_engine_lock_serialization;
          Alcotest.test_case "causality" `Quick test_engine_causality;
          Alcotest.test_case "charges advance clock" `Quick
            test_machine_charges_advance_clock;
          Alcotest.test_case "cost model" `Quick test_cost_model_consistency;
          Alcotest.test_case "resource drain oracle" `Quick
            test_resource_drain_oracle;
          Alcotest.test_case "stats" `Quick test_stats;
          QCheck_alcotest.to_alcotest prop_pick_min_legacy;
        ] );
      ( "stats",
        [
          Alcotest.test_case "percentile interpolates" `Quick
            test_stats_percentile_interpolates;
          QCheck_alcotest.to_alcotest prop_stats_percentile_bounds_monotone;
        ] );
      ( "obs-scoping",
        [
          Alcotest.test_case "contention per run" `Quick
            test_contention_scoped_per_run;
          Alcotest.test_case "contention reset" `Quick
            test_contention_reset_on_machine_reset;
          Alcotest.test_case "contention cache follows run" `Quick
            test_contention_cache_follows_run;
        ] );
    ]

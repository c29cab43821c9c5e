(** The simulated machine: cost model plus the shared bandwidth servers
    every simulated thread charges against, and the per-thread charging
    helpers ([ctx]) used throughout the file-system implementations. *)

type t = {
  cm : Cost_model.t;
  nvmm_read_srv : Resource.t;
  nvmm_write_srv : Resource.t;
  dram_srv : Resource.t;
  mutable extra_nvmm_srvs : (Resource.t * Resource.t) array;
      (** (read, write) bandwidth-server pairs for NVMM regions 1..N-1
          of the multi-region DIMM/socket model; region 0 is the legacy
          [nvmm_read_srv]/[nvmm_write_srv] pair, so single-region runs
          are untouched.  Grown by {!set_regions}. *)
  obs : Simurgh_obs.Run.t;
      (** per-engine-run observability sinks (lock contention, per-op
          latency histograms, phase spans); scoped to this machine, so a
          fresh machine starts every experiment from zero *)
}

let create ?(cm = Cost_model.default) ?obs () =
  let obs =
    match obs with Some o -> o | None -> Simurgh_obs.Run.create ()
  in
  (* if the bench driver has an experiment collector installed, this
     run's sinks join the experiment's JSON snapshot *)
  Simurgh_obs.Collect.note_run obs;
  {
    cm;
    nvmm_read_srv = Resource.create ();
    nvmm_write_srv = Resource.create ();
    dram_srv = Resource.create ();
    extra_nvmm_srvs = [||];
    obs;
  }

(** Declare that the machine drives [n] NVMM regions, each behind its
    own read/write bandwidth-server pair (one set of DIMMs per region).
    Idempotent; never shrinks, so existing backlogs survive. *)
let set_regions t n =
  let have = 1 + Array.length t.extra_nvmm_srvs in
  if n > have then begin
    let extra = Array.length t.extra_nvmm_srvs in
    t.extra_nvmm_srvs <-
      Array.init (n - 1) (fun i ->
          if i < extra then t.extra_nvmm_srvs.(i)
          else (Resource.create (), Resource.create ()))
  end

let regions t = 1 + Array.length t.extra_nvmm_srvs

(* Per-region server selection; region ids out of the declared range
   fold onto region 0 rather than faulting (a context carrying a region
   id into a machine that never called [set_regions] is a plain
   single-device run). *)
let read_srv t r =
  if r <= 0 || r > Array.length t.extra_nvmm_srvs then t.nvmm_read_srv
  else fst t.extra_nvmm_srvs.(r - 1)

let write_srv t r =
  if r <= 0 || r > Array.length t.extra_nvmm_srvs then t.nvmm_write_srv
  else snd t.extra_nvmm_srvs.(r - 1)

(** Reset the measurement window: bandwidth-server backlogs and the
    observability run, so untimed setup phases leave no trace. *)
let reset t =
  Resource.reset t.nvmm_read_srv;
  Resource.reset t.nvmm_write_srv;
  Resource.reset t.dram_srv;
  Array.iter
    (fun (r, w) ->
      Resource.reset r;
      Resource.reset w)
    t.extra_nvmm_srvs;
  Simurgh_obs.Run.clear t.obs

let obs t = t.obs

type ctx = { m : t; thr : Sthread.t }

let ctx m thr = { m; thr }
let cm ctx = ctx.m.cm
let now ctx = ctx.thr.Sthread.now
let ctx_obs ctx = ctx.m.obs

(** Run [f] with the thread's NVMM charges routed to region [r] (its
    bandwidth servers, plus the cross-socket surcharge when the thread's
    home socket differs from the region's socket).  Restores the
    previous routing on exit. *)
let with_region ctx r f =
  let thr = ctx.thr in
  let prev = thr.Sthread.cur_region in
  thr.Sthread.cur_region <- r;
  Fun.protect ~finally:(fun () -> thr.Sthread.cur_region <- prev) f

(* Cross-socket access test for the thread's current target region.
   With the defaults (every thread homed on socket 0, every charge
   targeting region 0) this is always false, so the legacy virtual-time
   results are bit-identical. *)
let is_remote ctx =
  let r = ctx.thr.Sthread.cur_region in
  Cost_model.socket_of_region ctx.m.cm r <> ctx.thr.Sthread.home_socket

(** Pure CPU work. *)
let cpu ctx cycles = Sthread.advance ctx.thr cycles

(* A bulk transfer is limited by both the single-thread achievable rate
   and the shared device: the device server is charged at the aggregate
   rate, the thread additionally pays its core-local rate.  Under low
   load the core-local rate dominates; once concurrent demand exceeds the
   device, queueing at the server produces the saturation plateau. *)
let transfer ctx srv ~bytes ~thread_rate ~agg_rate =
  if bytes > 0 then begin
    let t = ctx.thr in
    let dev_done =
      Resource.serve srv ~now:t.Sthread.now
        ~dur:(float_of_int bytes /. agg_rate)
    in
    let local_done = t.Sthread.now +. (float_of_int bytes /. thread_rate) in
    Sthread.wait_until t (if dev_done > local_done then dev_done else local_done)
  end

(* Remote streaming traffic keeps the device's aggregate rate (the
   DIMMs behind the region serve at their own speed) but the requesting
   thread's achievable rate collapses across the UPI link. *)
let thread_rate_of ctx rate =
  if is_remote ctx then rate *. (cm ctx).Cost_model.numa_remote_bw_mult
  else rate

let line_lat_of ctx lat =
  if is_remote ctx then lat *. (cm ctx).Cost_model.numa_remote_lat_mult
  else lat

(** Sequential/streaming read of [bytes] from NVMM. *)
let nvmm_read ctx bytes =
  let cm = cm ctx in
  transfer ctx
    (read_srv ctx.m ctx.thr.Sthread.cur_region)
    ~bytes
    ~thread_rate:(thread_rate_of ctx cm.nvmm_read_bw_thread)
    ~agg_rate:cm.nvmm_read_bw

(** Streaming (non-temporal) write of [bytes] to NVMM. *)
let nvmm_write ctx bytes =
  let cm = cm ctx in
  transfer ctx
    (write_srv ctx.m ctx.thr.Sthread.cur_region)
    ~bytes
    ~thread_rate:(thread_rate_of ctx cm.nvmm_write_bw_thread)
    ~agg_rate:cm.nvmm_write_bw

(* Random cache-line accesses are latency-bound; out-of-order cores keep
   a handful of misses in flight (memory-level parallelism ~4). *)
let mlp = 4.0

(** [n] random (dependent chains of) cache-line reads from NVMM. *)
let nvmm_read_lines ctx n =
  if n > 0 then begin
    let cm = cm ctx in
    let lat = line_lat_of ctx (float_of_int n *. cm.nvmm_read_latency /. mlp) in
    let bytes = n * cm.cacheline in
    let dev_done =
      Resource.serve
        (read_srv ctx.m ctx.thr.Sthread.cur_region)
        ~now:ctx.thr.Sthread.now
        ~dur:(float_of_int bytes /. cm.nvmm_read_bw)
    in
    let local_done = ctx.thr.Sthread.now +. lat in
    Sthread.wait_until ctx.thr
      (if dev_done > local_done then dev_done else local_done)
  end

(** [n] metadata cache-line reads: same device accounting, but latency
    blended with CPU-cache hits (see {!Cost_model.nvmm_meta_read_latency}). *)
let nvmm_meta_read_lines ctx n =
  if n > 0 then begin
    let cm = cm ctx in
    let lat =
      line_lat_of ctx (float_of_int n *. cm.nvmm_meta_read_latency /. mlp)
    in
    let bytes = n * cm.cacheline in
    let dev_done =
      Resource.serve
        (read_srv ctx.m ctx.thr.Sthread.cur_region)
        ~now:ctx.thr.Sthread.now
        ~dur:(float_of_int bytes /. cm.nvmm_read_bw)
    in
    let local_done = ctx.thr.Sthread.now +. lat in
    Sthread.wait_until ctx.thr
      (if dev_done > local_done then dev_done else local_done)
  end

(** [n] random cache-line (non-temporal) writes to NVMM.

    In posted mode ({!with_posted_writes}) the thread pays only the
    local store(-buffer) latency and the device consumes the bandwidth
    asynchronously — later accessors queue behind the pushed work, so
    the accounting stays work-conserving.  Outside posted mode the write
    waits for the device queue as before. *)
let nvmm_write_lines ctx n =
  if n > 0 then begin
    let cm = cm ctx in
    let lat =
      line_lat_of ctx (float_of_int n *. cm.nvmm_write_latency /. mlp)
    in
    let bytes = n * cm.cacheline in
    let dur = float_of_int bytes /. cm.nvmm_write_bw in
    let srv = write_srv ctx.m ctx.thr.Sthread.cur_region in
    if ctx.thr.Sthread.posted_writes then begin
      Resource.push_work srv ~now:ctx.thr.Sthread.now ~dur;
      Sthread.advance ctx.thr lat
    end
    else begin
      let dev_done = Resource.serve srv ~now:ctx.thr.Sthread.now ~dur in
      let local_done = ctx.thr.Sthread.now +. lat in
      Sthread.wait_until ctx.thr
        (if dev_done > local_done then dev_done else local_done)
    end
  end

(** Run [f] with this thread's NVMM line writes charged as posted
    non-temporal stores.  Meant for short exclusive persistent
    sequences (a lock-held journal window): a real thread issuing a
    handful of ntstores inside a critical section stalls on its store
    buffer, not on the device's whole outstanding queue — charging the
    FIFO completion wait there would convoy every other thread behind
    the lock whenever the device is near saturation. *)
let with_posted_writes ctx f =
  let prev = ctx.thr.Sthread.posted_writes in
  ctx.thr.Sthread.posted_writes <- true;
  Fun.protect
    ~finally:(fun () -> ctx.thr.Sthread.posted_writes <- prev)
    f

(** Streaming DRAM traffic (page-cache copies and the like). *)
let dram_copy ctx bytes =
  let cm = cm ctx in
  transfer ctx ctx.m.dram_srv ~bytes ~thread_rate:cm.dram_bw_thread
    ~agg_rate:cm.dram_bw

(** CPU-side cost of moving [bytes] through registers (memcpy halves). *)
let memcpy_cpu ctx bytes =
  let cm = cm ctx in
  cpu ctx (float_of_int bytes /. cm.memcpy_bytes_per_cycle)

(** One atomic read-modify-write.  A legal preemption point under the
    schedule explorer (no-op otherwise). *)
let atomic ctx ~contended =
  Schedule.point Schedule.Atomic;
  let cm = cm ctx in
  cpu ctx (if contended then cm.atomic_contended else cm.atomic_uncontended)

(** `sfence`-style drain: the store buffer drain cost. *)
let fence_cycles = 30.0

let fence ctx =
  Simurgh_obs.Span.add_flush ctx.m.obs.Simurgh_obs.Run.spans fence_cycles;
  cpu ctx fence_cycles

(** Locks in virtual time.

    Acquisition moves the acquiring thread's clock to the lock's release
    time (if in the future) and charges the atomic-operation cost of the
    lock word's cache line.  Every lock word follows one rule
    ({!touch_cycles}):

    - {b local} ([atomic_uncontended]): this thread touched the word
      last, or no thread has yet;
    - {b one line transfer} ([atomic_contended]): another thread touched
      it last and that touch has completed — a serialized hand-off moves
      the line once;
    - {b retry storm} ([contended_factor] × [atomic_contended]): another
      thread touched it last and an earlier touch is still queued on the
      word's line, so the touches overlap and the atomic retries while
      the line bounces.  Only {!Rw}'s shared counter is a line server;
      the other words never storm ({!touch_word}).

    Contention diagnostics (wait cycles, acquisition counts, contended
    vs. uncontended, hold time) are recorded per call-site into the
    acquiring machine's {!Simurgh_obs.Run.t} — there is no process-global
    state, so consecutive experiments report independent totals.

    Two concerns beyond virtual time live here as well:

    - {b execution-level mutual exclusion}: under the preemptive
      schedule explorer ({!Engine.explore}) operations interleave at
      every yield point, so the locks must actually exclude — each lock
      tracks its owning simulated thread and blocks acquirers through
      {!Schedule.wait_while}.  Acquisition is re-entrant (rename's
      destination removal re-locks an already-held row lock).  Outside
      an exploring run operations are atomic with respect to each other
      and the owner field merely toggles within one operation.
    - {b happens-before edges}: every acquire/release notifies the
      ambient {!Race} detector with the lock's unique id.

    Each [with_*] helper releases on the way out {e even when the body
    raises} ({!Simurgh_util.bracket}) — a [Media_error]→EIO path
    throwing inside a critical section must not leak the lock.

    Recording allocates nothing and hashes nothing: each lock resolves
    its contention site once per run ({!Contention.resolve}), and the
    floats it updates live in all-float records. *)

open Simurgh_obs

(* Unique lock identities for the race detector's lock vector clocks. *)
let next_lock_id = ref 0

let fresh_lock_id () =
  incr next_lock_id;
  !next_lock_id

(* Record one acquisition into the machine-scoped contention registry,
   at the lock's [site]. *)
let[@inline] record_acquire (ctx : Machine.ctx) site ~wait =
  let run = Machine.ctx_obs ctx in
  Contention.acquired (Contention.resolve site run.Run.contention) ~wait;
  Span.add_lock_wait run.Run.spans wait

(* Only called with [hold > 0]: a zero hold must not create the site. *)
let[@inline] record_hold (ctx : Machine.ctx) site ~hold =
  let run = Machine.ctx_obs ctx in
  Contention.held (Contention.resolve site run.Run.contention) ~hold

(* Under many-way overlapping access a lockref-style counter costs far
   more than a single line transfer (retry storms); factor 8 over the
   base contended-atomic cost matches observed rw_semaphore scaling. *)
let contended_factor = 8.0

(** Cycles of one atomic on a lock word whose last toucher is [last]
    ([-1]: never touched), by thread [tid], with [pending] cycles of
    earlier touches still queued on the word's line. *)
let touch_cycles (cm : Cost_model.t) ~last ~tid ~pending =
  if last < 0 || last = tid then cm.atomic_uncontended
  else if pending > 0.0 then contended_factor *. cm.atomic_contended
  else cm.atomic_contended

(** One atomic on a word without a line server (a spin lock's word, the
    byte-range reservation word): no touch ever queues on its line, so
    it is local or one line transfer, never a storm.  A legal preemption
    point like {!Machine.atomic}.  Returns the caller's tid, the word's
    next [last]. *)
let touch_word (ctx : Machine.ctx) ~last =
  let tid = ctx.Machine.thr.Sthread.tid in
  Schedule.point Schedule.Atomic;
  Machine.cpu ctx (touch_cycles (Machine.cm ctx) ~last ~tid ~pending:0.0);
  tid

(* The acquire time of a held lock, in an all-float record (unboxed). *)
type stamp = { mutable at : float }

(** Busy-wait spin lock (Simurgh's atomic flags, per-line busy bits).

    Contention is modeled as a work-conserving backlog of hold durations:
    an acquirer waits for the outstanding backlog, and each release
    appends its own hold time.  Simulated threads interleave at operation
    granularity, so a thread whose operation started earlier in virtual
    time must not jump to another thread's later wall-clock release — the
    backlog formulation gives exactly the serialization the critical
    sections impose and nothing more.  The acquiring cmpxchg is a
    {!touch_word}: local for the last holder or a fresh lock, else one
    line transfer — the wait itself is the hold backlog's. *)
module Spin = struct
  type t = {
    id : int;
    server : Resource.t;  (** backlog of hold durations *)
    mutable last_holder : int;
    entered : stamp;
    mutable owner : int;  (** executing owner under the explorer, -1 free *)
    mutable depth : int;  (** re-entrant acquisition depth *)
    site : Contention.handle;
        (** where contention is reported (a Mutex's inner spin reports
            as [Mutex]) *)
  }

  let create ?(site = "anon") ?(kind = Contention.Spin) () =
    {
      id = fresh_lock_id ();
      server = Resource.create ();
      last_holder = -1;
      entered = { at = 0.0 };
      owner = -1;
      depth = 0;
      site = Contention.handle site kind;
    }

  (** Is the lock held (execution-level) right now?  Distinct from
      {!busy}, which asks about the virtual-time backlog. *)
  let locked t = t.owner >= 0

  let acquire (ctx : Machine.ctx) t =
    let thr = ctx.Machine.thr in
    let tid = thr.Sthread.tid in
    Schedule.point Schedule.Acquire;
    if t.owner = tid then t.depth <- t.depth + 1
    else begin
      (* tested first, here and in [Rw]: a free lock builds no closure *)
      if t.owner >= 0 then Schedule.wait_while (fun () -> t.owner >= 0);
      t.owner <- tid;
      t.depth <- 1
    end;
    t.last_holder <- touch_word ctx ~last:t.last_holder;
    let done_at = Resource.serve t.server ~now:thr.Sthread.now ~dur:0.0 in
    record_acquire ctx t.site ~wait:(done_at -. thr.Sthread.now);
    Sthread.wait_until thr done_at;
    t.entered.at <- thr.Sthread.now;
    Race.on_acquire t.id

  let release (ctx : Machine.ctx) t =
    let thr = ctx.Machine.thr in
    let hold = thr.Sthread.now -. t.entered.at in
    if hold > 0.0 then begin
      Resource.push_work t.server ~now:t.entered.at ~dur:hold;
      record_hold ctx t.site ~hold
    end;
    Race.on_release t.id;
    if t.depth > 1 then t.depth <- t.depth - 1
    else begin
      t.depth <- 0;
      t.owner <- -1
    end;
    Schedule.point Schedule.Release

  let release_bracket ctx t () = release ctx t

  let with_lock ctx t f =
    acquire ctx t;
    Simurgh_util.bracket release_bracket ctx t () f

  (** Is the lock (probably) held at [now]?  Used by the allocator to
      skip busy segments and by crash detection. *)
  let busy t ~now = Resource.pending t.server ~now > 0.0
end

(** Kernel sleeping mutex (VFS inode locks): contended acquisition goes
    through futex wait/wake, which costs a couple of kernel transitions. *)
module Mutex = struct
  type t = { spin : Spin.t; mutable contentions : int }

  let create ?(site = "mutex") () =
    { spin = Spin.create ~site ~kind:Contention.Mutex (); contentions = 0 }

  let acquire (ctx : Machine.ctx) t =
    let thr = ctx.Machine.thr in
    let cm = Machine.cm ctx in
    let contended =
      Resource.pending t.spin.Spin.server ~now:thr.Sthread.now > 0.0
    in
    if contended then begin
      (* futex_wait + wakeup path: two kernel transitions + scheduling *)
      t.contentions <- t.contentions + 1;
      Machine.cpu ctx (2.0 *. cm.Cost_model.syscall_cycles +. 1500.0)
    end;
    Spin.acquire ctx t.spin

  let release (ctx : Machine.ctx) t = Spin.release ctx t.spin

  let with_lock ctx t f =
    acquire ctx t;
    Simurgh_util.bracket Spin.release_bracket ctx t.spin () f

  let contentions t = t.contentions
end

(** Reader-writer lock.  Readers overlap; each acquisition still touches
    the shared counter cache line, which is precisely why Linux's
    per-file rw_semaphore limits shared-file read scalability (Fig. 7i)
    while writers serialize fully (Fig. 7k).  The counter is a line
    server charged by {!touch_cycles}: a touch by the last toucher (or
    the first touch ever) is local, a touch after another thread's has
    drained is one line transfer, and a touch that arrives while
    another's is still queued on the line is a retry storm — the cap on
    overlapping readers and writers.  Striped (per-core) counters are
    always local.

    Acquisitions return a token (the acquisition's virtual entry time)
    that must be passed back to the matching release.  The lock used to
    keep one shared [entered_at] field, so overlapping readers
    overwrote each other's acquire time and release computed wrong —
    even negative, silently dropped — hold times. *)
module Rw = struct
  (** Per-acquisition token: virtual time at which the caller entered. *)
  type token = float

  type t = {
    id : int;
    counter : Resource.t;  (** the shared count cache line *)
    excl : Resource.t;  (** writer hold backlog *)
    rd : Resource.t;  (** reader hold backlog (scaled by parallelism) *)
    mutable last_toucher : int;
    mutable writer : int;  (** executing writer under the explorer *)
    mutable wdepth : int;
    mutable readers : int;  (** executing reader count under the explorer *)
    site : Contention.handle;
    striped : bool;
        (** distributed (per-core) reader counters: readers do not bounce
            a shared line.  Simurgh's per-file locks use this; the Linux
            rw_semaphore does not, which is exactly why shared-file reads
            stop scaling on kernel file systems (Fig. 7i). *)
  }

  let create ?(site = "rwlock") ?(striped = false) () =
    {
      id = fresh_lock_id ();
      counter = Resource.create ();
      excl = Resource.create ();
      rd = Resource.create ();
      last_toucher = -1;
      writer = -1;
      wdepth = 0;
      readers = 0;
      site = Contention.handle site Contention.Rwlock;
      striped;
    }

  (* Concurrent readers overlap: a writer waits for roughly the residual
     of the overlapping reads, approximated by scaling reader holds down
     by the typical read parallelism. *)
  let read_parallelism = 4.0

  (* The counter line is a server: a touch queues behind the touches
     still in flight on it, and their backlog is what makes it a storm. *)
  let touch_counter ctx t =
    let thr = ctx.Machine.thr in
    let now = thr.Sthread.now in
    let dur =
      touch_cycles (Machine.cm ctx) ~last:t.last_toucher ~tid:thr.Sthread.tid
        ~pending:(Resource.pending t.counter ~now)
    in
    let done_at = Resource.serve t.counter ~now ~dur in
    Sthread.wait_until thr done_at;
    t.last_toucher <- thr.Sthread.tid

  let read_acquire ctx t : token =
    let thr = ctx.Machine.thr in
    Schedule.point Schedule.Acquire;
    (* a thread already holding the write side may also read *)
    if t.writer >= 0 && t.writer <> thr.Sthread.tid then
      Schedule.wait_while (fun () ->
          t.writer >= 0 && t.writer <> thr.Sthread.tid);
    t.readers <- t.readers + 1;
    if t.striped then Machine.atomic ctx ~contended:false
    else touch_counter ctx t;
    (* wait behind outstanding writer holds *)
    let done_at = Resource.serve t.excl ~now:thr.Sthread.now ~dur:0.0 in
    record_acquire ctx t.site
      ~wait:(Float.max 0.0 (done_at -. thr.Sthread.now));
    Sthread.wait_until thr done_at;
    Race.on_acquire t.id;
    thr.Sthread.now

  let read_release ctx t (entered_at : token) =
    let thr = ctx.Machine.thr in
    if t.striped then Machine.atomic ctx ~contended:false
    else touch_counter ctx t;
    let hold = thr.Sthread.now -. entered_at in
    if hold > 0.0 then begin
      Resource.push_work t.rd ~now:entered_at ~dur:(hold /. read_parallelism);
      record_hold ctx t.site ~hold
    end;
    Race.on_release t.id;
    t.readers <- t.readers - 1;
    Schedule.point Schedule.Release

  let write_acquire ctx t : token =
    let thr = ctx.Machine.thr in
    let tid = thr.Sthread.tid in
    Schedule.point Schedule.Acquire;
    if t.writer = tid then t.wdepth <- t.wdepth + 1
    else begin
      if t.writer >= 0 || t.readers > 0 then
        Schedule.wait_while (fun () -> t.writer >= 0 || t.readers > 0);
      t.writer <- tid;
      t.wdepth <- 1
    end;
    touch_counter ctx t;
    let d1 = Resource.serve t.excl ~now:thr.Sthread.now ~dur:0.0 in
    let d2 = Resource.serve t.rd ~now:thr.Sthread.now ~dur:0.0 in
    let done_at = Float.max d1 d2 in
    record_acquire ctx t.site
      ~wait:(Float.max 0.0 (done_at -. thr.Sthread.now));
    Sthread.wait_until thr done_at;
    Race.on_acquire t.id;
    thr.Sthread.now

  let write_release ctx t (entered_at : token) =
    let thr = ctx.Machine.thr in
    let hold = thr.Sthread.now -. entered_at in
    if hold > 0.0 then begin
      Resource.push_work t.excl ~now:entered_at ~dur:hold;
      record_hold ctx t.site ~hold
    end;
    Race.on_release t.id;
    if t.wdepth > 1 then t.wdepth <- t.wdepth - 1
    else begin
      t.wdepth <- 0;
      t.writer <- -1
    end;
    Schedule.point Schedule.Release

  let with_read ctx t f =
    let tok = read_acquire ctx t in
    Simurgh_util.bracket read_release ctx t tok f

  let with_write ctx t f =
    let tok = write_acquire ctx t in
    Simurgh_util.bracket write_release ctx t tok f
end

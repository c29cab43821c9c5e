(** A deterministic dynamic task pool with three interchangeable drivers.

    Recovery (and any future bulk scan) decomposes its work into tasks —
    directory subtrees for the mark pass, slab segments and directory
    chains for the sweep — and pushes them into a shared frontier.  Tasks may
    push further tasks while executing (the mark frontier grows as
    subdirectories are discovered).  The pool then runs the *same* task
    set under one of three drivers:

    + {!run_seq} — plain sequential execution on the caller's stack.
      The reference semantics; zero scheduling.
    + {!run_vtime} — virtual-time list scheduling over [workers]
      {!Sthread} clocks.  Each task runs atomically on the
      least-loaded worker (argmin clock, lowest index on ties); a task
      pushed while another task executes becomes ready only when its
      producer finishes, modelling the fork-join dependency.  The
      caller charges each task's cost to the worker's clock; the
      phase's makespan is the max clock afterwards.
    + {!run_fibers} — cooperative fibers over {!Engine.explore}, one
      worker fiber per slot, interleaved at every region store / lock /
      atomic under a pluggable {!Schedule} policy.  This is the driver
      the schedule explorer and the race detector see.

    The frontier is a single shared FIFO; workers pull from the common
    pool, so "stealing" is degenerate (every idle worker steals from
    the same place).  Pops are labelled {!Schedule.Atomic} points in
    fiber mode; between scheduler yields OCaml fibers run atomically,
    so the queue needs no lock.

    Determinism contract: a driver choice (or fiber schedule) may
    change the order tasks execute in, but never the task *set* — so
    any task whose effects are commutative-and-idempotent with respect
    to its siblings produces a driver-independent result.  Recovery's
    tasks are built that way (see DESIGN.md §14). *)

type 'a t = {
  frontier : ('a * float) Queue.t;  (** task, virtual ready time *)
  mutable outstanding : int;  (** queued + currently executing *)
  mutable stage : 'a Queue.t option;
      (** virtual-time mode: tasks pushed by the task currently
          executing, released at the producer's completion time *)
}

let create () = { frontier = Queue.create (); outstanding = 0; stage = None }

(** [push t task] adds a task to the frontier.  Safe to call while a
    task executes (the common case for mark-frontier growth). *)
let push t task =
  t.outstanding <- t.outstanding + 1;
  match t.stage with
  | Some s -> Queue.push task s
  | None -> Queue.push (task, 0.0) t.frontier

let pending t = t.outstanding

(* -- sequential ------------------------------------------------------- *)

let run_seq t exec =
  while not (Queue.is_empty t.frontier) do
    let task, _ = Queue.pop t.frontier in
    exec ~worker:0 task;
    t.outstanding <- t.outstanding - 1
  done

(* -- virtual-time list scheduling ------------------------------------- *)

let argmin_clock (clocks : Sthread.t array) =
  let best = ref 0 in
  for i = 1 to Array.length clocks - 1 do
    if clocks.(i).Sthread.now < clocks.(!best).Sthread.now then best := i
  done;
  !best

(** [barrier clocks] joins all workers: every clock advances to the
    maximum.  Models the fork-join barrier between phases (and before
    a sequential section charged to worker 0). *)
let barrier (clocks : Sthread.t array) =
  let m =
    Array.fold_left (fun acc c -> Stdlib.max acc c.Sthread.now) 0.0 clocks
  in
  Array.iter (fun c -> Sthread.wait_until c m) clocks

let run_vtime t ~(clocks : Sthread.t array) exec =
  while not (Queue.is_empty t.frontier) do
    let w = argmin_clock clocks in
    let task, ready = Queue.pop t.frontier in
    (* the task cannot start before its producer finished *)
    Sthread.wait_until clocks.(w) ready;
    let s = Queue.create () in
    t.stage <- Some s;
    exec ~worker:w task;
    t.stage <- None;
    t.outstanding <- t.outstanding - 1;
    (* children become ready at the producer's (post-charge) clock *)
    let done_at = clocks.(w).Sthread.now in
    while not (Queue.is_empty s) do
      Queue.push (Queue.pop s, done_at) t.frontier
    done
  done

(* -- cooperative fibers ----------------------------------------------- *)

(** [run_fibers] returns the phase's {!Engine.explore_outcome} (trace
    hash, yields, switches): the schedule explorer collects them to
    prove the schedules it compared genuinely differed. *)
let run_fibers t ~schedule ~workers exec =
  let body w () =
    (* Fork/join barrier semantics for the race detector: a pool run
       begins by joining everything published before it and ends by
       publishing everything it did — accesses in consecutive pool
       phases are ordered, exactly like threads joined between phases.
       No-ops when no detector is active. *)
    Race.on_fence ();
    let rec loop () =
      Schedule.point Schedule.Atomic;
      if not (Queue.is_empty t.frontier) then begin
        let task, _ = Queue.pop t.frontier in
        exec ~worker:w task;
        t.outstanding <- t.outstanding - 1;
        loop ()
      end
      else if t.outstanding > 0 then begin
        (* Empty frontier but tasks still in flight elsewhere: block
           until either new work appears or everything drains.  No
           deadlock is possible: if every worker blocks here, nothing
           is in flight, so outstanding equals the queue length, which
           is zero — the predicate is false and all wake. *)
        Schedule.wait_while (fun () ->
            Queue.is_empty t.frontier && t.outstanding > 0);
        loop ()
      end
    in
    loop ();
    Race.on_fence ()
  in
  Engine.explore ~schedule (Array.init workers body)

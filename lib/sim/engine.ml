(** Deterministic discrete-event execution of simulated threads.

    Two execution modes:

    - {!run}: the virtual-time engine.  Each [step] executes one whole
      operation atomically; the next thread is the one with the smallest
      virtual clock, equal-time ties routed through a {!Schedule} policy
      (default {!Schedule.legacy}: lowest index, the historical
      bit-identical behavior).  With at most tens of threads a linear
      scan beats a heap.
    - {!explore}: the preemptive fiber engine for schedule exploration.
      Each thread body runs as an effect-handler fiber that suspends at
      every {!Schedule.point} (lock acquire/release, atomics, NVMM
      stores and persist barriers) and whenever {!Schedule.wait_while}
      blocks it; the policy picks freely among {e runnable} fibers, so
      virtual time is an output of the chosen schedule rather than a
      constraint on it.  This is what lets the explorer drive the same
      FS state machine through hundreds of distinct interleavings. *)

type outcome = {
  makespan_cycles : float;  (** max end time over all threads *)
  total_ops : int;
  threads : Sthread.t array;
}

(** [run threads step] repeatedly calls [step thr] on the minimum-time
    live thread; [step] performs one unit of work, advances the thread's
    clock and returns [false] when the thread has no more work.
    [schedule] breaks equal-virtual-time ties (and, for non-legacy
    policies, owns the choice among minimal threads). *)
let run ?(schedule = Schedule.legacy) (threads : Sthread.t array)
    (step : Sthread.t -> bool) =
  let n = Array.length threads in
  let alive = Array.make n true in
  let remaining = ref n in
  while !remaining > 0 do
    let i = Schedule.pick_min schedule threads alive in
    if not (step threads.(i)) then begin
      alive.(i) <- false;
      decr remaining
    end
  done;
  let makespan =
    Array.fold_left (fun acc t -> max acc t.Sthread.now) 0.0 threads
  in
  let total_ops = Array.fold_left (fun acc t -> acc + t.Sthread.ops) 0 threads in
  { makespan_cycles = makespan; total_ops; threads }

(** Convenience: [n] threads each performing [ops_per_thread] calls of
    [f ctx op_index]; returns the outcome.  Thread RNGs derive from
    [seed]. *)
let run_ops ?(seed = 42L) ?schedule machine ~threads:n ~ops_per_thread f =
  let threads = Array.init n (fun i -> Sthread.create ~seed i) in
  let progress = Array.make n 0 in
  let step thr =
    let i = thr.Sthread.tid in
    if progress.(i) >= ops_per_thread then false
    else begin
      let ctx = Machine.ctx machine thr in
      f ctx progress.(i);
      progress.(i) <- progress.(i) + 1;
      thr.Sthread.ops <- thr.Sthread.ops + 1;
      true
    end
  in
  run ?schedule threads step

(** Aggregate throughput in operations per second of real (modeled) time. *)
let throughput machine (o : outcome) =
  if o.makespan_cycles <= 0.0 then 0.0
  else
    float_of_int o.total_ops
    /. Cost_model.seconds machine.Machine.cm o.makespan_cycles

(* ---------------------------------------------------------------------- *)
(* Preemptive fiber engine (schedule exploration)                         *)
(* ---------------------------------------------------------------------- *)

(** Raised when every unfinished fiber is blocked: with correct lock
    discipline this cannot happen, so it is itself a finding (e.g. the
    pre-fix [with_lock] leak turns an exception inside a critical
    section into exactly this). *)
exception Deadlock of string

type explore_outcome = {
  yields : int;  (** preemption points offered during the run *)
  switches : int;  (** scheduling decisions actually taken *)
  trace_hash : int;  (** hash of the pick sequence: distinguishes schedules *)
}

type _ Effect.t += Sched_yield : Schedule.point -> unit Effect.t
type _ Effect.t += Sched_wait : (unit -> bool) -> unit Effect.t

type fiber_state =
  | Not_started
  | Paused of (unit, unit) Effect.Deep.continuation
  | Blocked of (unit -> bool) * (unit, unit) Effect.Deep.continuation
  | Finished

(** [explore ~schedule bodies] runs each [bodies.(i) ()] as a preemptible
    fiber and lets [schedule] pick among runnable fibers at every yield
    point until all finish.  Deterministic for deterministic bodies and
    policies — the same policy state replays the same interleaving,
    which is what makes {!Schedule.Dfs} enumeration sound.  Exceptions
    raised by a body propagate to the caller (the harness treats them as
    oracle failures). *)
let explore ~(schedule : Schedule.t) (bodies : (unit -> unit) array) =
  let n = Array.length bodies in
  let states = Array.make n Not_started in
  let finished = ref 0 in
  let yields = ref 0 in
  let switches = ref 0 in
  let trace_hash = ref 17 in
  let current = ref (-1) in
  let ops =
    {
      Schedule.yield = (fun p -> Effect.perform (Sched_yield p));
      wait =
        (fun pred ->
          (* re-check after every wake: the scheduler may wake several
             fibers blocked on the same condition and run another one
             first (condition-variable discipline); uncontended waits
             cost no context switch *)
          while pred () do
            Effect.perform (Sched_wait pred)
          done);
      tid = (fun () -> !current);
    }
  in
  let start i body =
    let open Effect.Deep in
    match_with body ()
      {
        retc =
          (fun () ->
            states.(i) <- Finished;
            incr finished);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sched_yield _ ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    incr yields;
                    states.(i) <- Paused k)
            | Sched_wait pred ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    incr yields;
                    states.(i) <- Blocked (pred, k))
            | _ -> None);
      }
  in
  Schedule.with_ops ops (fun () ->
      while !finished < n do
        (* wake fibers whose block predicate has cleared *)
        Array.iteri
          (fun i st ->
            match st with
            | Blocked (pred, k) when not (pred ()) -> states.(i) <- Paused k
            | _ -> ())
          states;
        let runnable = ref [] in
        for i = n - 1 downto 0 do
          match states.(i) with
          | Not_started | Paused _ -> runnable := i :: !runnable
          | Blocked _ | Finished -> ()
        done;
        if !runnable = [] then begin
          let stuck = ref [] in
          Array.iteri
            (fun i st ->
              match st with Blocked _ -> stuck := i :: !stuck | _ -> ())
            states;
          raise
            (Deadlock
               (Printf.sprintf "all unfinished fibers blocked: {%s}"
                  (String.concat ","
                     (List.rev_map string_of_int !stuck))))
        end;
        let i = Schedule.pick_any schedule ~runnable:!runnable in
        incr switches;
        trace_hash := (!trace_hash * 31) + i;
        current := i;
        (match states.(i) with
        | Not_started -> start i bodies.(i)
        | Paused k -> Effect.Deep.continue k ()
        | Blocked _ | Finished -> assert false);
        current := -1
      done);
  { yields = !yields; switches = !switches; trace_hash = !trace_hash }

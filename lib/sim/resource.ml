(** A shared FIFO server in virtual time, used to model bandwidth-limited
    devices (NVMM DIMMs, DRAM channels) and contended cache lines.

    The server is modeled as a leaky bucket of work ("debt", in cycles):
    a request of duration [d] arriving at time [t] first lets the debt
    drain by the time elapsed since the previous arrival, then queues its
    own work and completes at [t + debt].  Under low utilization the debt
    stays near zero and requests only pay their own duration; once
    aggregate demand exceeds the service rate the debt grows and
    throughput clamps to the device rate — the saturation plateau of
    Fig. 7i.

    Simulated threads interleave at operation granularity, so requests
    can arrive slightly out of virtual-time order within overlapping
    operations; the debt formulation stays work-conserving in that case
    (an earlier-timestamped request queues behind the current backlog
    rather than jumping to another thread's later timestamp).

    The state is an all-float record, which OCaml stores unboxed: a
    charge updates it in place without allocating. *)

type t = {
  mutable debt : float;  (** queued work, cycles *)
  mutable last : float;  (** last arrival considered for draining *)
  mutable busy : float;  (** total service cycles (utilization) *)
}

let create () = { debt = 0.0; last = 0.0; busy = 0.0 }

let reset t =
  t.debt <- 0.0;
  t.last <- 0.0;
  t.busy <- 0.0

(* The one place the leaky bucket leaks: let the debt drain by the time
   elapsed since the last considered arrival, then queue [dur] cycles of
   new work.  Out-of-order arrivals ([now <= t.last]) drain nothing and
   queue behind the current backlog — both [serve] and [push_work] MUST
   share this exact sequence, otherwise per-region server replicas drift
   apart on the out-of-order path and on [busy] accounting. *)
let[@inline] drain_and_queue t ~now ~dur =
  if now > t.last then begin
    let elapsed = now -. t.last in
    t.debt <- (if t.debt > elapsed then t.debt -. elapsed else 0.0);
    t.last <- now
  end;
  t.debt <- t.debt +. dur;
  t.busy <- t.busy +. dur

(** [serve t ~now ~dur] returns the completion time of a request of
    [dur] cycles issued at [now]. *)
let[@inline] serve t ~now ~dur =
  drain_and_queue t ~now ~dur;
  now +. t.debt

(** Queue work without waiting for it: used by locks to append their
    hold duration at release time.  Identical drain/queue/busy semantics
    to {!serve} by construction; only the completion wait differs. *)
let[@inline] push_work t ~now ~dur = drain_and_queue t ~now ~dur

(** Outstanding backlog as seen at [now] (0 when fully drained). *)
let[@inline] pending t ~now =
  if now > t.last then
    if t.debt > now -. t.last then t.debt -. (now -. t.last) else 0.0
  else t.debt

(** Total busy cycles since the last [reset]; used to report device
    utilization (e.g. NVMM bandwidth saturation in Fig. 7i). *)
let busy_cycles t = t.busy

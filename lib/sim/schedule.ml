(** Scheduling policy: who runs next, made explicit.

    Historically the engine hard-coded "step the minimum-virtual-time
    thread, break ties by lowest index".  That is a fine *performance*
    model but a terrible *correctness* explorer: every workload sees
    exactly one interleaving, biased toward thread 0, so ordering bugs in
    the decentralized lock protocols (per-line busy flags, striped file
    rwlocks, per-segment allocator locks) are invisible.  This module
    makes the choice a first-class, pluggable policy:

    - {!legacy}: minimum virtual time, ties to the lowest index — the
      historical schedule, bit-identical for every benchmark;
    - {!fair}: minimum virtual time, ties rotated round-robin (the
      least-recently-scheduled tied thread runs), so equal-cost ops
      interleave instead of running to completion by index;
    - {!random}: seeded uniform choice — used by the schedule explorer
      to sample interleavings;
    - {!driven}: choices replayed from a {!Dfs} enumerator — systematic
      depth-first exploration of the schedule tree for small scenarios.

    The second half of the module is the ambient yield-point interface:
    simulation code (locks, atomics, the NVMM region via its trace
    hooks) announces "a scheduling decision is legal here" through
    {!point}, and blocks through {!wait_while}.  Outside an exploring
    run both are no-ops, so the benchmark fast path is untouched. *)

(** Where a preemption is legal: lock acquire/release, an atomic RMW,
    an NVMM store, or a persist barrier (clwb+sfence). *)
type point = Acquire | Release | Atomic | Store | Persist

(* ---------------------------------------------------------------------- *)
(* Depth-first schedule enumeration                                       *)
(* ---------------------------------------------------------------------- *)

(** Systematic enumeration of the schedule tree, mirroring the crash
    explorer's design ({!Simurgh_core.Explore}): a run is a sequence of
    decisions, each with a known number of alternatives; the first run
    takes alternative 0 everywhere, and each subsequent run increments
    the deepest decision that still has an unexplored alternative
    (backtracking when the tail is exhausted).  Every run is therefore a
    {e distinct} schedule, and enumeration is exhaustive when it
    terminates before the caller's budget runs out. *)
module Dfs = struct
  type t = {
    mutable replay : int list;  (** choices fixed for the current run *)
    mutable path : (int * int) list;
        (** (choice, alternatives) of the current run, deepest first *)
    mutable runs : int;
    mutable exhausted : bool;
  }

  let create () = { replay = []; path = []; runs = 0; exhausted = false }

  (** Called by the policy at each decision with the number of runnable
      threads; returns the alternative to take. *)
  let choose t ~alts =
    match t.replay with
    | c :: tl ->
        let c = if c >= alts then alts - 1 else c in
        t.replay <- tl;
        t.path <- (c, alts) :: t.path;
        c
    | [] ->
        t.path <- (0, alts) :: t.path;
        0

  let start t = t.path <- []

  (** Record the finished run and prepare the next prefix.  Returns
      [false] when the whole tree has been explored. *)
  let advance t =
    t.runs <- t.runs + 1;
    let rec trim = function
      | (c, a) :: tl when c + 1 >= a -> trim tl
      | rest -> rest
    in
    (match trim t.path with
    | [] ->
        t.exhausted <- true;
        t.replay <- []
    | (c, _) :: shallower ->
        (* keep the shallower choices, bump the deepest live decision *)
        t.replay <- List.rev_map fst shallower @ [ c + 1 ]);
    t.path <- [];
    not t.exhausted

  let runs t = t.runs
  let exhausted t = t.exhausted
end

(* ---------------------------------------------------------------------- *)
(* Policies                                                               *)
(* ---------------------------------------------------------------------- *)

type t =
  | Legacy
  | Fair of { mutable last : int }
  | Random of Rng.t
  | Driven of Dfs.t

let legacy = Legacy
let fair () = Fair { last = -1 }
let random seed = Random (Rng.create seed)
let driven dfs = Driven dfs

let name = function
  | Legacy -> "legacy"
  | Fair _ -> "fair"
  | Random _ -> "random"
  | Driven _ -> "dfs"

(* Break a tie among [ties] (indices, ascending). *)
let tie_break policy ties =
  match ties with
  | [ i ] -> i
  | [] -> invalid_arg "Schedule.tie_break: empty tie set"
  | _ -> (
      match policy with
      | Legacy -> List.hd ties
      | Fair f ->
          (* least-recently-scheduled: first tied index strictly after
             [last] in cyclic order; falls back to the lowest *)
          let after = List.filter (fun i -> i > f.last) ties in
          let pick = match after with i :: _ -> i | [] -> List.hd ties in
          pick
      | Random rng -> List.nth ties (Rng.int rng (List.length ties))
      | Driven d -> List.nth ties (Dfs.choose d ~alts:(List.length ties)))

let note_ran policy i =
  match policy with Fair f -> f.last <- i | Legacy | Random _ | Driven _ -> ()

(** Pick the next thread for the virtual-time engine: the minimum-time
    thread among those with [alive.(i)], equal-time ties routed through
    the policy; [-1] when none is alive.  [Legacy] reproduces the
    historical scan (lowest index among ties) exactly.  Reads the clocks
    and flags in place: the engine calls this on every step. *)
let pick_min policy (threads : Sthread.t array) (alive : bool array) =
  let n = Array.length threads in
  match policy with
  | Legacy ->
      (* historical scan: first strictly-smaller time wins, so the
         lowest index among equal minimal times is chosen *)
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if alive.(i) then
          if !best < 0 then best := i
          else if threads.(i).Sthread.now < threads.(!best).Sthread.now then
            best := i
      done;
      !best
  | _ ->
      let tmin = ref infinity and any = ref (-1) in
      for i = 0 to n - 1 do
        if alive.(i) then begin
          let now = threads.(i).Sthread.now in
          if !any < 0 then any := i;
          if now < !tmin then tmin := now
        end
      done;
      if !any < 0 then -1
      else begin
        let ties = ref [] in
        for i = n - 1 downto 0 do
          if alive.(i) && threads.(i).Sthread.now = !tmin then
            ties := i :: !ties
        done;
        let i = tie_break policy !ties in
        note_ran policy i;
        i
      end

(** Pick among an arbitrary runnable set (ascending indices) — used by
    the preemptive fiber scheduler, where virtual time is an output of
    the schedule rather than a constraint on it. *)
let pick_any policy ~runnable =
  match runnable with
  | [] -> invalid_arg "Schedule.pick_any: nothing runnable"
  | _ ->
      let i = tie_break policy runnable in
      note_ran policy i;
      i

(* ---------------------------------------------------------------------- *)
(* Ambient yield points                                                   *)
(* ---------------------------------------------------------------------- *)

(** The operations a preemptive scheduler installs for the duration of an
    exploring run.  [yield] offers a preemption opportunity; [wait]
    blocks the calling thread while the predicate holds (the scheduler
    re-evaluates it whenever another thread runs); [tid] identifies the
    currently running simulated thread. *)
type ops = {
  yield : point -> unit;
  wait : (unit -> bool) -> unit;
  tid : unit -> int;
}

let active : ops option ref = ref None

(** Announce a legal preemption point.  No-op outside an exploring run —
    the benchmark fast path pays one ref load. *)
let point p = match !active with None -> () | Some o -> o.yield p

(** Block the calling simulated thread while [pred] returns [true].
    Outside an exploring run threads execute their operations atomically
    with respect to each other, so a held lock here means a genuine
    self-deadlock — fail loudly instead of spinning forever. *)
let wait_while pred =
  match !active with
  | Some o -> o.wait pred
  | None ->
      if pred () then
        failwith
          "Schedule.wait_while: blocked with no scheduler active \
           (lock held across an operation boundary?)"

(** Simulated thread id currently executing under an exploring
    scheduler, or [-1] when none is active. *)
let current_tid () = match !active with None -> -1 | Some o -> o.tid ()

let with_ops ops f =
  let prev = !active in
  active := Some ops;
  Fun.protect ~finally:(fun () -> active := prev) f

(** Execution-time phase attribution (spans).

    Generalizes the old two-bucket instrumentation (FS cycles +
    copy bytes) into the phases the paper's breakdowns use:

    - [fs_cycles]: virtual time inside file-system entry points
      (accumulated by {!Simurgh_workloads.Instrument});
    - [lock_wait_cycles]: virtual time blocked on virtual-time locks
      (a subset of [fs_cycles] when the lock is taken inside the FS);
    - [flush_cycles]: persist-barrier drain time ([sfence]);
    - [copy_bytes]: payload bytes moved by read/write/append, converted
      to "data copy" cycles by the cost model at reporting time.

    "Application" time is derived: total minus copy minus FS.  The
    cycle fields live in an all-float record, which OCaml stores
    unboxed, so the hot recording paths stay a single add with no
    allocation. *)

type cycles = {
  mutable fs : float;
  mutable lock_wait : float;
  mutable flush : float;
}

type t = { cycles : cycles; mutable copy_bytes : int }

let create () =
  { cycles = { fs = 0.0; lock_wait = 0.0; flush = 0.0 }; copy_bytes = 0 }

let fs_cycles t = t.cycles.fs

let clear t =
  t.cycles.fs <- 0.0;
  t.cycles.lock_wait <- 0.0;
  t.cycles.flush <- 0.0;
  t.copy_bytes <- 0

let[@inline] add_fs t c = t.cycles.fs <- t.cycles.fs +. c
let[@inline] add_lock_wait t c = t.cycles.lock_wait <- t.cycles.lock_wait +. c
let[@inline] add_flush t c = t.cycles.flush <- t.cycles.flush +. c
let add_copy_bytes t b = t.copy_bytes <- t.copy_bytes + b

let merge_into dst src =
  add_fs dst src.cycles.fs;
  add_lock_wait dst src.cycles.lock_wait;
  add_flush dst src.cycles.flush;
  dst.copy_bytes <- dst.copy_bytes + src.copy_bytes

let to_json t =
  Json.Obj
    [
      ("fs_cycles", Json.Float t.cycles.fs);
      ("lock_wait_cycles", Json.Float t.cycles.lock_wait);
      ("flush_cycles", Json.Float t.cycles.flush);
      ("copy_bytes", Json.Int t.copy_bytes);
    ]
